// Open-loop multi-tenant traffic generation: arrival processes for the
// node-level scheduler benchmarks. Unlike the OMB drivers (closed-loop:
// the next message waits for the previous), an open-loop generator fixes
// the arrival times up front, so offered load does not shrink when the
// node slows down — exactly the regime where concurrent transfers mis-plan
// against each other.
//
// Arrival processes:
//   * kStorm     — bursts of `storm_width` same-instant transfers (an
//                  allreduce-style storm), bursts spaced by the mean gap;
//   * kPoisson   — exponential inter-arrival times (memoryless tenants);
//   * kHeavyTail — Pareto inter-arrival times scaled to the same mean:
//                  long quiet stretches punctuated by clustered arrivals.
//
// make_arrivals is pure and deterministic in (topology, options): the same
// seed always yields the same trace, so benchmark runs are reproducible
// and the joint-vs-solo comparison sees identical offered load.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mpath/benchcore/stack.hpp"

namespace mpath::benchcore {

enum class ArrivalPattern { kStorm, kPoisson, kHeavyTail };

[[nodiscard]] std::string_view to_string(ArrivalPattern pattern);

struct TrafficOptions {
  ArrivalPattern pattern = ArrivalPattern::kPoisson;
  int transfers = 32;  ///< total arrivals in the trace
  /// Mean gap between arrivals (kStorm: between bursts).
  double mean_interarrival_s = 200e-6;
  int storm_width = 4;  ///< same-instant transfers per kStorm burst
  /// Message sizes, sampled uniformly per arrival (mixed tenants). Must be
  /// non-empty. The src/dst GPU pair is drawn uniformly (src != dst).
  std::vector<std::uint64_t> sizes = {4ull << 20, 16ull << 20, 64ull << 20};
  std::uint64_t seed = 1;
};

/// Pareto shape of kHeavyTail gaps (> 1, so the mean exists; smaller =
/// heavier tail).
inline constexpr double kParetoAlpha = 1.5;

struct Arrival {
  double t = 0.0;
  topo::DeviceId src = 0;
  topo::DeviceId dst = 0;
  std::uint64_t bytes = 0;
};

/// Build the arrival trace. Throws std::invalid_argument on nonsensical
/// options (no transfers, empty sizes, < 2 GPUs, ...).
[[nodiscard]] std::vector<Arrival> make_arrivals(const topo::Topology& topo,
                                                 const TrafficOptions& options);

struct TrafficReport {
  int transfers = 0;
  int completed = 0;
  int failed = 0;  ///< ended in TransferError
  std::uint64_t bytes_offered = 0;
  /// Last completion minus first arrival (sim seconds).
  double makespan_s = 0.0;
  double transfers_per_s = 0.0;       ///< completed / makespan
  double aggregate_bandwidth = 0.0;   ///< offered bytes / makespan
};

/// Replay `arrivals` open-loop against the stack's channel: each transfer
/// is spawned at its arrival instant regardless of what else is in flight.
/// Runs the engine to quiescence. Per-transfer prediction accounting lives
/// in stack.scheduler()->history() when the stack is scheduled.
[[nodiscard]] TrafficReport run_traffic(SimStack& stack,
                                        std::span<const Arrival> arrivals);

}  // namespace mpath::benchcore
