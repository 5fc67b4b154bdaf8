#include "mpath/topo/binding.hpp"

#include <stdexcept>

namespace mpath::topo {

NetworkBinding::NetworkBinding(const Topology& topo, sim::FluidNetwork& net)
    : topo_(&topo),
      net_(&net),
      devices_(topo.devices().size()),
      routes_(devices_ * devices_) {
  edge_to_link_.reserve(topo.edges().size());
  for (const Edge& e : topo.edges()) {
    edge_to_link_.push_back(net.add_link(
        sim::LinkSpec{e.name, e.capacity_bps, e.latency_s}));
  }
}

sim::LinkId NetworkBinding::link_for_edge(EdgeId edge) const {
  return edge_to_link_.at(edge);
}

sim::Route NetworkBinding::links_for_route(
    std::span<const EdgeId> route) const {
  sim::Route out;
  out.reserve(route.size());
  for (EdgeId e : route) {
    out.push_back(edge_to_link_.at(e));
  }
  return out;
}

const LoweredRoute& NetworkBinding::route(DeviceId from, DeviceId to) {
  if (from >= devices_ || to >= devices_) {
    throw std::out_of_range("NetworkBinding::route: bad DeviceId");
  }
  std::optional<LoweredRoute>& slot = routes_[from * devices_ + to];
  if (!slot) {
    LoweredRoute lowered{links_for_route(topo_->route(from, to))};
    for (sim::LinkId l : lowered.links) {
      lowered.latency_s += net_->link(l).latency_s;
    }
    slot = std::move(lowered);
  }
  return *slot;
}

}  // namespace mpath::topo
