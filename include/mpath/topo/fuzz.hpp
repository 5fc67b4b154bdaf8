// Seeded random topology generation for scenario fuzzing.
//
// The generator emits a serializable TopoSpec — a plain description of
// devices, directed links and software costs — rather than a built
// Topology, because the mispredict minimizer (benchcore/hunter.hpp) needs
// to mutate scenarios structurally (drop GPUs, drop links) and re-build,
// and the frozen regression corpus (tests/corpus/*.json) needs a stable
// on-disk form.
//
// Invariants, by construction (tested in tests/topo/test_fuzz_generator.cpp):
//   * every NUMA domain has a Host device with a DRAM memory channel,
//     hosts are chained by inter-socket fabric, and every GPU has a PCIe
//     connection to its domain's host — so the topology is connected and
//     every ordered GPU pair is routable before any fabric is added;
//   * link capacities and latencies stay inside [kMinGbps, kMaxGbps] and
//     [kMinLatencyUs, kMaxLatencyUs];
//   * device ids equal spec indices, with real hosts first (so
//     Topology::nearest_host never picks an NVSwitch pseudo-host);
//   * generation is a pure function of the seed: the same seed yields the
//     same spec on every run and at any fuzzing job count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mpath/topo/system.hpp"
#include "mpath/util/json.hpp"

namespace mpath::fuzz {

struct DeviceSpec {
  topo::DeviceKind kind = topo::DeviceKind::Gpu;
  int numa = 0;
  std::string name;
};

/// One directed link. The generator emits duplex pairs with (optionally)
/// asymmetric per-direction capacities; the minimizer drops both directions
/// together.
struct EdgeSpec {
  topo::DeviceId from = 0;
  topo::DeviceId to = 0;
  topo::LinkKind kind = topo::LinkKind::PCIe3;
  double capacity_bps = 0.0;
  double latency_s = 0.0;
};

struct MemChannelSpec {
  topo::DeviceId host = 0;
  double capacity_bps = 0.0;
  double latency_s = 0.0;
};

struct TopoSpec {
  std::string name;
  std::vector<DeviceSpec> devices;
  std::vector<EdgeSpec> edges;
  std::vector<MemChannelSpec> mem_channels;
  topo::SoftwareCosts costs;

  /// Materialize the spec. Throws std::invalid_argument for malformed
  /// specs (dangling device ids, non-positive capacities, ...).
  [[nodiscard]] topo::System build() const;

  [[nodiscard]] std::size_t gpu_count() const;
  [[nodiscard]] std::size_t host_count() const;

  [[nodiscard]] util::json::Value to_json() const;
  [[nodiscard]] static TopoSpec from_json(const util::json::Value& v);
};

/// True when every ordered pair of GPUs has a route. (Route enumeration
/// also requires this for staged candidates; the generator guarantees it,
/// the minimizer uses it to reject over-aggressive cuts early.)
[[nodiscard]] bool fully_routable(const topo::Topology& topo);

/// Generated GPU count range, and the link-capacity (GB/s, log-uniform) and
/// latency (us, uniform) ranges every generated link respects.
inline constexpr int kMinGpus = 2;
inline constexpr int kMaxGpus = 8;
inline constexpr double kMinGbps = 4.0;
inline constexpr double kMaxGbps = 300.0;
inline constexpr double kMinLatencyUs = 0.15;
inline constexpr double kMaxLatencyUs = 2.5;

/// Generate one random topology: one to four NUMA domains, a fabric drawn
/// from {PCIe-only, NVLink mesh/partial, NVSwitch, XGMI ring, mixed}, and
/// some asymmetric duplex capacities. Pure in the seed.
[[nodiscard]] TopoSpec generate_topology(std::uint64_t seed);

[[nodiscard]] topo::DeviceKind device_kind_from_string(std::string_view s);
[[nodiscard]] topo::LinkKind link_kind_from_string(std::string_view s);

}  // namespace mpath::fuzz
