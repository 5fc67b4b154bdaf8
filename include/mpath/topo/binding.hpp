// Lowers a Topology onto a sim::FluidNetwork: one fluid link per directed
// edge (including memory channels). Routes resolved by the topology are
// translated into fluid link sequences for simulated DMA, once per device
// pair.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "mpath/sim/fluid.hpp"
#include "mpath/topo/topology.hpp"

namespace mpath::topo {

/// A device-to-device route lowered onto the fluid network.
struct LoweredRoute {
  sim::Route links;
  double latency_s = 0.0;  ///< the links' latencies summed in route order
};

class NetworkBinding {
 public:
  /// Creates one fluid link per topology edge. The topology must outlive
  /// the binding and must not gain devices or edges afterwards.
  NetworkBinding(const Topology& topo, sim::FluidNetwork& net);

  [[nodiscard]] const Topology& topology() const { return *topo_; }
  [[nodiscard]] sim::FluidNetwork& network() const { return *net_; }

  [[nodiscard]] sim::LinkId link_for_edge(EdgeId edge) const;
  /// Returned routes use sim::Route's inline storage — building one does
  /// not allocate for the ≤3-edge paths every shipped topology produces.
  [[nodiscard]] sim::Route links_for_route(std::span<const EdgeId> route) const;
  /// The route of a DMA from `from`'s memory to `to`'s memory, lowered on
  /// the pair's first lookup and kept for the binding's lifetime: the
  /// binding is the per-stack table of routes, so a repeat lookup returns
  /// the same entry without searching the topology again. Throws as
  /// Topology::route does. An unreachable pair is never stored, so it
  /// throws on every lookup. Like the runtime that owns it, a binding is
  /// used from one thread.
  [[nodiscard]] const LoweredRoute& route(DeviceId from, DeviceId to);

 private:
  const Topology* topo_;
  sim::FluidNetwork* net_;
  std::vector<sim::LinkId> edge_to_link_;
  std::size_t devices_;  ///< the topology's device count at construction
  std::vector<std::optional<LoweredRoute>> routes_;  ///< [from * devices_ + to]
};

}  // namespace mpath::topo
