#include "mpath/topo/topology.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>

namespace mpath::topo {

namespace {

/// Refuse a capacity that is not finite and > 0 or a latency that is not
/// finite and >= 0, naming the link. Written so that NaN fails too.
void check_link_parameters(const std::string& name, double capacity_bps,
                           double latency_s) {
  if (!(std::isfinite(capacity_bps) && capacity_bps > 0.0)) {
    throw std::invalid_argument("Topology: link " + name +
                                " capacity must be finite and positive");
  }
  if (!(std::isfinite(latency_s) && latency_s >= 0.0)) {
    throw std::invalid_argument("Topology: link " + name +
                                " latency must be finite and >= 0");
  }
}

}  // namespace

std::string_view to_string(LinkKind kind) {
  switch (kind) {
    case LinkKind::NVLink2: return "NVLink2";
    case LinkKind::NVLink3: return "NVLink3";
    case LinkKind::NVLink4: return "NVLink4";
    case LinkKind::PCIe3: return "PCIe3";
    case LinkKind::PCIe4: return "PCIe4";
    case LinkKind::PCIe5: return "PCIe5";
    case LinkKind::UPI: return "UPI";
    case LinkKind::XGMI: return "xGMI";
    case LinkKind::MemChan: return "MemChan";
    case LinkKind::NVSwitch: return "NVSwitch";
  }
  return "?";
}

std::string_view to_string(DeviceKind kind) {
  switch (kind) {
    case DeviceKind::Gpu: return "GPU";
    case DeviceKind::Host: return "Host";
  }
  return "?";
}

DeviceId Topology::add_device(DeviceKind kind, int numa_node,
                              std::string name) {
  const auto id = static_cast<DeviceId>(devices_.size());
  devices_.push_back(DeviceInfo{id, kind, numa_node, std::move(name)});
  adjacency_.emplace_back();
  return id;
}

EdgeId Topology::connect(DeviceId from, DeviceId to, LinkKind kind,
                         double capacity_bps, double latency_s) {
  if (from >= devices_.size() || to >= devices_.size() || from == to) {
    throw std::invalid_argument("Topology::connect: bad endpoints");
  }
  std::string name = devices_[from].name + "->" + devices_[to].name + ":" +
                     std::string(to_string(kind));
  check_link_parameters(name, capacity_bps, latency_s);
  const auto id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(
      Edge{id, from, to, kind, capacity_bps, latency_s, std::move(name), false});
  adjacency_[from].push_back(id);
  return id;
}

std::pair<EdgeId, EdgeId> Topology::connect_duplex(DeviceId a, DeviceId b,
                                                   LinkKind kind,
                                                   double capacity_bps,
                                                   double latency_s) {
  EdgeId ab = connect(a, b, kind, capacity_bps, latency_s);
  EdgeId ba = connect(b, a, kind, capacity_bps, latency_s);
  return {ab, ba};
}

EdgeId Topology::add_memory_channel(DeviceId host, double capacity_bps,
                                    double latency_s) {
  if (host >= devices_.size() || devices_[host].kind != DeviceKind::Host) {
    throw std::invalid_argument(
        "Topology::add_memory_channel: not a Host device");
  }
  if (memory_channels_.count(host) != 0) {
    throw std::invalid_argument(
        "Topology::add_memory_channel: host already has a channel");
  }
  std::string name = devices_[host].name + ":MemChan";
  check_link_parameters(name, capacity_bps, latency_s);
  const auto id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{id, host, host, LinkKind::MemChan, capacity_bps,
                        latency_s, std::move(name), true});
  memory_channels_.emplace(host, id);
  return id;
}

const DeviceInfo& Topology::device(DeviceId id) const {
  if (id >= devices_.size()) throw std::out_of_range("bad DeviceId");
  return devices_[id];
}

std::vector<DeviceId> Topology::gpus() const {
  std::vector<DeviceId> out;
  for (const auto& d : devices_) {
    if (d.kind == DeviceKind::Gpu) out.push_back(d.id);
  }
  return out;
}

std::vector<DeviceId> Topology::hosts() const {
  std::vector<DeviceId> out;
  for (const auto& d : devices_) {
    if (d.kind == DeviceKind::Host) out.push_back(d.id);
  }
  return out;
}

DeviceId Topology::host_for_numa(int numa_node) const {
  for (const auto& d : devices_) {
    if (d.kind == DeviceKind::Host && d.numa_node == numa_node) return d.id;
  }
  throw std::runtime_error("Topology: no host in NUMA node " +
                           std::to_string(numa_node));
}

DeviceId Topology::nearest_host(DeviceId dev) const {
  const auto& info = device(dev);
  for (const auto& d : devices_) {
    if (d.kind == DeviceKind::Host && d.numa_node == info.numa_node) {
      return d.id;
    }
  }
  for (const auto& d : devices_) {
    if (d.kind == DeviceKind::Host) return d.id;
  }
  throw std::runtime_error("Topology: no host device");
}

std::optional<EdgeId> Topology::direct_edge(DeviceId a, DeviceId b) const {
  std::optional<EdgeId> best;
  for (EdgeId e : adjacency_.at(a)) {
    if (edges_[e].to != b) continue;
    if (!best || edges_[e].capacity_bps > edges_[*best].capacity_bps) {
      best = e;
    }
  }
  return best;
}

std::vector<EdgeId> Topology::route(DeviceId from, DeviceId to) const {
  if (from >= devices_.size() || to >= devices_.size()) {
    throw std::out_of_range("Topology::route: bad DeviceId");
  }
  std::vector<EdgeId> path;
  if (from != to) {
    // Dijkstra over non-memory-channel edges. Edge weight approximates the
    // cost of pushing a reference-sized transfer (1 MiB) through the edge,
    // so higher-bandwidth links are preferred and latency breaks ties.
    //
    // A GPU cannot transparently forward traffic: data only transits a GPU
    // when the hardware routes it (AMD xGMI rings). NVLink/PCIe forwarding
    // requires explicit staging, which is modeled as separate hop transfers
    // by the pipeline engine, not as routing. Whether an edge out of a
    // transit GPU is admissible therefore depends on HOW the data arrived
    // there (on xGMI or not) — predecessor-dependent admissibility breaks
    // Dijkstra's subpath-optimality assumption, so the search state is
    // (device, arrived-via-xGMI) rather than the device alone. Otherwise a
    // cheaper non-xGMI arrival at a ring GPU would mask the xGMI arrival
    // that the onward ring hop needs, yielding spurious "no route" or a
    // worse detour.
    constexpr double kRefBytes = 1.0 * (1 << 20);
    const double inf = std::numeric_limits<double>::infinity();
    const std::size_t n = devices_.size();
    const auto state_of = [n](DeviceId dev, bool via_xgmi) {
      return static_cast<std::size_t>(dev) + (via_xgmi ? n : 0);
    };
    std::vector<double> dist(2 * n, inf);
    std::vector<EdgeId> via(2 * n, 0);
    std::vector<std::size_t> prev_state(2 * n, 0);
    using Item = std::pair<double, std::size_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    const std::size_t start = state_of(from, false);
    dist[start] = 0.0;
    heap.emplace(0.0, start);
    std::size_t goal = start;  // best arrival state at `to`, once found
    bool found = false;
    while (!heap.empty()) {
      const auto [d, s] = heap.top();
      heap.pop();
      if (d > dist[s]) continue;
      const DeviceId u = static_cast<DeviceId>(s < n ? s : s - n);
      const bool arrived_xgmi = s >= n;
      if (u == to) {
        // First popped arrival state is the global optimum; ties break on
        // the lower state index (non-xGMI first) for determinism.
        goal = s;
        found = true;
        break;
      }
      const bool gpu_transit = u != from && devices_[u].kind == DeviceKind::Gpu;
      for (EdgeId e : adjacency_[u]) {
        const Edge& edge = edges_[e];
        if (gpu_transit && (edge.kind != LinkKind::XGMI || !arrived_xgmi)) {
          continue;
        }
        const double w = edge.latency_s + kRefBytes / edge.capacity_bps;
        const std::size_t t = state_of(edge.to, edge.kind == LinkKind::XGMI);
        if (dist[s] + w < dist[t]) {
          dist[t] = dist[s] + w;
          via[t] = e;
          prev_state[t] = s;
          heap.emplace(dist[t], t);
        }
      }
    }
    if (!found) {
      throw std::runtime_error("Topology: no route " + devices_[from].name +
                               " -> " + devices_[to].name);
    }
    for (std::size_t s = goal; s != start; s = prev_state[s]) {
      path.push_back(via[s]);
    }
    std::reverse(path.begin(), path.end());
  }
  // DMA into or out of host DRAM consumes the host's memory channel.
  if (auto it = memory_channels_.find(from); it != memory_channels_.end()) {
    path.insert(path.begin(), it->second);
  }
  if (auto it = memory_channels_.find(to); it != memory_channels_.end()) {
    path.push_back(it->second);
  }
  return path;
}

double Topology::route_capacity(std::span<const EdgeId> route) const {
  double cap = std::numeric_limits<double>::infinity();
  for (EdgeId e : route) {
    cap = std::min(cap, edges_.at(e).capacity_bps);
  }
  return cap;
}

double Topology::route_latency(std::span<const EdgeId> route) const {
  double lat = 0.0;
  for (EdgeId e : route) {
    lat += edges_.at(e).latency_s;
  }
  return lat;
}

}  // namespace mpath::topo
