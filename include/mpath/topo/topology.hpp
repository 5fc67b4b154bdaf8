// Intra-node hardware topology: GPUs, host (CPU socket + DRAM) nodes, and
// typed directed links (NVLink generations, PCIe generations, inter-socket
// UPI/xGMI, and per-NUMA memory channels).
//
// The topology is pure description — it knows nothing about simulated time.
// `NetworkBinding` (binding.hpp) lowers it onto a sim::FluidNetwork, and the
// performance model consumes per-route (alpha, beta) summaries.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace mpath::topo {

using DeviceId = std::uint32_t;
using EdgeId = std::uint32_t;
inline constexpr DeviceId kInvalidDevice = 0xFFFFFFFFu;

enum class DeviceKind {
  Gpu,
  Host,  ///< CPU socket / NUMA domain with its DRAM
};

enum class LinkKind {
  NVLink2,
  NVLink3,
  NVLink4,
  PCIe3,
  PCIe4,
  PCIe5,
  UPI,     ///< inter-socket (UPI / xGMI / Infinity Fabric)
  XGMI,    ///< AMD GPU-GPU
  MemChan, ///< DRAM channel bandwidth of a Host device (self edge)
  NVSwitch,
};

[[nodiscard]] std::string_view to_string(LinkKind kind);
[[nodiscard]] std::string_view to_string(DeviceKind kind);

struct DeviceInfo {
  DeviceId id = kInvalidDevice;
  DeviceKind kind = DeviceKind::Gpu;
  int numa_node = 0;
  std::string name;
};

struct Edge {
  EdgeId id = 0;
  DeviceId from = kInvalidDevice;
  DeviceId to = kInvalidDevice;
  LinkKind kind = LinkKind::PCIe3;
  double capacity_bps = 0.0;  ///< bytes/second per direction
  double latency_s = 0.0;     ///< per-traversal hardware latency
  std::string name;
  bool is_memory_channel = false;
};

class Topology {
 public:
  explicit Topology(std::string system_name) : name_(std::move(system_name)) {}

  DeviceId add_device(DeviceKind kind, int numa_node, std::string name);

  /// Add one directed edge. Aggregate multi-sublink connections (e.g. two
  /// NVLink2 bricks) into a single edge with the combined capacity.
  EdgeId connect(DeviceId from, DeviceId to, LinkKind kind,
                 double capacity_bps, double latency_s);

  /// Add a full-duplex connection (two directed edges, equal parameters).
  std::pair<EdgeId, EdgeId> connect_duplex(DeviceId a, DeviceId b,
                                           LinkKind kind, double capacity_bps,
                                           double latency_s);

  /// Attach a DRAM channel to a Host device. Every transfer that starts or
  /// ends in that host's memory traverses this (shared) resource, which is
  /// how staged bidirectional contention (paper Observation 5) arises.
  EdgeId add_memory_channel(DeviceId host, double capacity_bps,
                            double latency_s);

  // -- queries ------------------------------------------------------------
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const DeviceInfo& device(DeviceId id) const;
  [[nodiscard]] std::span<const DeviceInfo> devices() const {
    return devices_;
  }
  [[nodiscard]] std::span<const Edge> edges() const { return edges_; }
  [[nodiscard]] std::vector<DeviceId> gpus() const;
  [[nodiscard]] std::vector<DeviceId> hosts() const;
  /// Host device in the given NUMA domain; throws if absent.
  [[nodiscard]] DeviceId host_for_numa(int numa_node) const;
  /// Host device nearest to `dev` (same NUMA if possible, else any host).
  [[nodiscard]] DeviceId nearest_host(DeviceId dev) const;
  /// Highest-capacity direct edge from `a` to `b`, if any (ignores memory
  /// channels).
  [[nodiscard]] std::optional<EdgeId> direct_edge(DeviceId a,
                                                  DeviceId b) const;
  [[nodiscard]] bool has_direct_link(DeviceId a, DeviceId b) const {
    return direct_edge(a, b).has_value();
  }

  // -- routing ------------------------------------------------------------
  /// Directed edge sequence for a DMA from `from`'s memory to `to`'s
  /// memory. Shortest path by (latency + transfer-weighted inverse
  /// capacity); memory-channel edges are appended for Host endpoints but
  /// never used in transit (PCIe peer-to-peer does not touch DRAM).
  /// Throws std::runtime_error if no route exists.
  ///
  /// A pure function of the const topology: concurrent calls are safe
  /// (sweep workers share one topo::System snapshot), and a copy carries
  /// only devices and edges. Where routes are hot, NetworkBinding lowers
  /// each device pair's route once per stack.
  [[nodiscard]] std::vector<EdgeId> route(DeviceId from, DeviceId to) const;

  /// Bottleneck capacity along a route (min over edges), bytes/s.
  [[nodiscard]] double route_capacity(std::span<const EdgeId> route) const;
  /// Sum of hardware latencies along a route, seconds.
  [[nodiscard]] double route_latency(std::span<const EdgeId> route) const;

 private:
  std::string name_;
  std::vector<DeviceInfo> devices_;
  std::vector<Edge> edges_;
  // adjacency over non-memory-channel edges: device -> outgoing EdgeIds
  std::vector<std::vector<EdgeId>> adjacency_;
  // Host device -> its memory channel edge
  std::map<DeviceId, EdgeId> memory_channels_;
};

}  // namespace mpath::topo
