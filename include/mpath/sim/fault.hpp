// Deterministic fault injection for the fluid network.
//
// A FaultInjector schedules link-capacity mutations on the engine clock:
// scripted degrade/sever/restore/flap events, or a seeded random fault plan
// over a set of links. Every applied event is recorded (and optionally
// traced on a "faults" track) so tests and demos can assert the exact
// schedule. Restores return a link to its *baseline* capacity — the value
// it had the first time this injector touched it — so degrade/restore
// pairs compose without drift.
//
// All mutations go through FluidNetwork::set_link_capacity, which
// re-solves only the affected component; injecting faults into one
// component does not perturb solver cost elsewhere. Code that reacts to a
// capacity change listens on the network (add_capacity_listener), which
// sees every mutation, injected or not.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mpath/sim/engine.hpp"
#include "mpath/sim/fluid.hpp"

namespace mpath::sim {

class FaultInjector {
 public:
  /// One capacity mutation that has been applied to the network.
  struct Applied {
    Time t = 0.0;
    LinkId link = 0;
    double capacity_bps = 0.0;  ///< capacity after the event
  };

  struct RandomPlanOptions {
    Time start = 0.0;             ///< earliest fault time
    Time horizon = 1.0;           ///< faults drawn in [start, start+horizon)
    int faults = 8;               ///< number of degrade events
    double min_factor = 0.0;      ///< degraded capacity as fraction of base
    double max_factor = 0.5;
    double sever_probability = 0.25;  ///< chance a fault is a full sever
    double restore_probability = 0.9;  ///< chance the fault is later undone
    Time min_duration = 0.05;     ///< fault length before restore
    Time max_duration = 0.5;
  };

  FaultInjector(Engine& engine, FluidNetwork& net)
      : engine_(&engine), net_(&net) {}
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Emit an instant per applied fault on `tracer` track "faults".
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Schedule an absolute capacity for `link` at time `t` (>= now). Throws
  /// std::invalid_argument unless `bps` is finite and >= 0.
  void set_capacity_at(Time t, LinkId link, double bps);
  /// Scale `link` to `factor` × its baseline capacity at time `t`. Throws
  /// std::invalid_argument unless `factor` is finite and >= 0.
  void degrade_at(Time t, LinkId link, double factor);
  /// Cut `link` to zero capacity at time `t` (flows on it stall).
  void sever_at(Time t, LinkId link);
  /// Return `link` to its baseline capacity at time `t`.
  void restore_at(Time t, LinkId link);
  /// `cycles` alternations of down (zero capacity) for `down_for` then up
  /// (baseline) for `up_for`, starting at `first_down`.
  void flap(LinkId link, Time first_down, Time down_for, Time up_for,
            int cycles);

  /// Build a seeded random fault plan over `links`: `opts.faults` degrade /
  /// sever events at uniform times, most followed by a restore. Fault times
  /// are fixed by the seed up front; each fault's target link is chosen at
  /// fire time, weighted by current utilization (allocated/capacity) plus
  /// a fixed idle floor, so soaks stress the links actually carrying
  /// traffic while idle links remain reachable. The same seed always yields
  /// the same schedule for the same workload.
  void random_plan(std::span<const LinkId> links, const RandomPlanOptions& opts,
                   std::uint64_t seed);

  /// Events scheduled so far (applied or not).
  [[nodiscard]] std::size_t scheduled_count() const { return scheduled_; }
  /// Events already applied to the network, in application order.
  [[nodiscard]] const std::vector<Applied>& applied() const {
    return applied_;
  }
  /// Baseline capacity for `link` (captured at first touch, else current).
  [[nodiscard]] double baseline(LinkId link) const;

 private:
  void schedule(Time t, LinkId link, double bps);
  double capture_baseline(LinkId link);

  Engine* engine_;
  FluidNetwork* net_;
  Tracer* tracer_ = nullptr;
  std::unordered_map<LinkId, double> baseline_;
  std::vector<Applied> applied_;
  std::size_t scheduled_ = 0;
};

}  // namespace mpath::sim
