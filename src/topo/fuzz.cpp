#include "mpath/topo/fuzz.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "mpath/util/rng.hpp"
#include "mpath/util/units.hpp"

namespace mpath::fuzz {

using topo::DeviceId;
using topo::DeviceKind;
using topo::LinkKind;
using util::usec;

// ---------------------------------------------------------------------------
// Spec <-> topology
// ---------------------------------------------------------------------------

topo::System TopoSpec::build() const {
  topo::Topology t(name.empty() ? "fuzz" : name);
  for (const DeviceSpec& d : devices) {
    t.add_device(d.kind, d.numa, d.name);
  }
  for (const MemChannelSpec& m : mem_channels) {
    t.add_memory_channel(m.host, m.capacity_bps, m.latency_s);
  }
  for (const EdgeSpec& e : edges) {
    t.connect(e.from, e.to, e.kind, e.capacity_bps, e.latency_s);
  }
  return topo::System{std::move(t), costs};
}

std::size_t TopoSpec::gpu_count() const {
  return static_cast<std::size_t>(
      std::count_if(devices.begin(), devices.end(), [](const DeviceSpec& d) {
        return d.kind == DeviceKind::Gpu;
      }));
}

std::size_t TopoSpec::host_count() const {
  return devices.size() - gpu_count();
}

bool fully_routable(const topo::Topology& topo) {
  const std::vector<DeviceId> gpus = topo.gpus();
  for (DeviceId a : gpus) {
    for (DeviceId b : gpus) {
      if (a == b) continue;
      try {
        (void)topo.route(a, b);
      } catch (const std::runtime_error&) {
        return false;
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

namespace {

constexpr std::pair<LinkKind, std::string_view> kLinkNames[] = {
    {LinkKind::NVLink2, "NVLink2"}, {LinkKind::NVLink3, "NVLink3"},
    {LinkKind::NVLink4, "NVLink4"}, {LinkKind::PCIe3, "PCIe3"},
    {LinkKind::PCIe4, "PCIe4"},     {LinkKind::PCIe5, "PCIe5"},
    {LinkKind::UPI, "UPI"},         {LinkKind::XGMI, "xGMI"},
    {LinkKind::MemChan, "MemChan"}, {LinkKind::NVSwitch, "NVSwitch"},
};

}  // namespace

DeviceKind device_kind_from_string(std::string_view s) {
  if (s == "GPU") return DeviceKind::Gpu;
  if (s == "Host") return DeviceKind::Host;
  throw std::invalid_argument("unknown device kind: " + std::string(s));
}

LinkKind link_kind_from_string(std::string_view s) {
  for (const auto& [kind, lit] : kLinkNames) {
    if (s == lit) return kind;
  }
  throw std::invalid_argument("unknown link kind: " + std::string(s));
}

util::json::Value TopoSpec::to_json() const {
  using util::json::Array;
  using util::json::Value;
  Value v{util::json::Object{}};
  v.set("name", name);
  Array devs;
  for (const DeviceSpec& d : devices) {
    Value dv{util::json::Object{}};
    dv.set("kind", topo::to_string(d.kind));
    dv.set("numa", d.numa);
    dv.set("name", d.name);
    devs.push_back(std::move(dv));
  }
  v.set("devices", std::move(devs));
  Array edgs;
  for (const EdgeSpec& e : edges) {
    Value ev{util::json::Object{}};
    ev.set("from", std::uint64_t{e.from});
    ev.set("to", std::uint64_t{e.to});
    ev.set("kind", topo::to_string(e.kind));
    ev.set("bps", e.capacity_bps);
    ev.set("latency_s", e.latency_s);
    edgs.push_back(std::move(ev));
  }
  v.set("edges", std::move(edgs));
  Array mems;
  for (const MemChannelSpec& m : mem_channels) {
    Value mv{util::json::Object{}};
    mv.set("host", std::uint64_t{m.host});
    mv.set("bps", m.capacity_bps);
    mv.set("latency_s", m.latency_s);
    mems.push_back(std::move(mv));
  }
  v.set("memory_channels", std::move(mems));
  Value cv{util::json::Object{}};
  cv.set("op_launch_s", costs.op_launch_s);
  cv.set("event_record_s", costs.event_record_s);
  cv.set("event_wait_s", costs.event_wait_s);
  cv.set("stage_sync_s", costs.stage_sync_s);
  cv.set("host_stage_sync_s", costs.host_stage_sync_s);
  cv.set("ipc_open_s", costs.ipc_open_s);
  cv.set("rendezvous_s", costs.rendezvous_s);
  cv.set("local_copy_bps", costs.local_copy_bps);
  cv.set("jitter_rel", costs.jitter_rel);
  v.set("costs", std::move(cv));
  return v;
}

TopoSpec TopoSpec::from_json(const util::json::Value& v) {
  TopoSpec spec;
  spec.name = v.at("name").as_string();
  for (const util::json::Value& dv : v.at("devices").as_array()) {
    DeviceSpec d;
    d.kind = device_kind_from_string(dv.at("kind").as_string());
    d.numa = static_cast<int>(dv.at("numa").as_int());
    d.name = dv.at("name").as_string();
    spec.devices.push_back(std::move(d));
  }
  for (const util::json::Value& ev : v.at("edges").as_array()) {
    EdgeSpec e;
    e.from = static_cast<DeviceId>(ev.at("from").as_uint());
    e.to = static_cast<DeviceId>(ev.at("to").as_uint());
    e.kind = link_kind_from_string(ev.at("kind").as_string());
    e.capacity_bps = ev.at("bps").as_number();
    e.latency_s = ev.at("latency_s").as_number();
    spec.edges.push_back(e);
  }
  for (const util::json::Value& mv : v.at("memory_channels").as_array()) {
    MemChannelSpec m;
    m.host = static_cast<DeviceId>(mv.at("host").as_uint());
    m.capacity_bps = mv.at("bps").as_number();
    m.latency_s = mv.at("latency_s").as_number();
    spec.mem_channels.push_back(m);
  }
  const util::json::Value& cv = v.at("costs");
  spec.costs.op_launch_s = cv.at("op_launch_s").as_number();
  spec.costs.event_record_s = cv.at("event_record_s").as_number();
  spec.costs.event_wait_s = cv.at("event_wait_s").as_number();
  spec.costs.stage_sync_s = cv.at("stage_sync_s").as_number();
  spec.costs.host_stage_sync_s = cv.at("host_stage_sync_s").as_number();
  spec.costs.ipc_open_s = cv.at("ipc_open_s").as_number();
  spec.costs.rendezvous_s = cv.at("rendezvous_s").as_number();
  spec.costs.local_copy_bps = cv.at("local_copy_bps").as_number();
  spec.costs.jitter_rel = cv.at("jitter_rel").as_number();
  return spec;
}

// ---------------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------------

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

enum class Fabric { kPcieOnly, kNvlinkMesh, kNvlinkPartial, kNvswitch,
                    kXgmiRing, kMixed };

/// NUMA domains drawn per topology: 1..kMaxNumaDomains.
constexpr std::int64_t kMaxNumaDomains = 4;

struct Gen {
  util::Rng rng;
  TopoSpec spec;

  static double clamp_gbps(double g) {
    return std::clamp(g, kMinGbps, kMaxGbps);
  }
  /// Log-uniform capacity draw inside [lo, hi] GB/s (intersected with the
  /// configured range), in bytes/s.
  double draw_bps(double lo_gbps, double hi_gbps) {
    const double lo = clamp_gbps(lo_gbps);
    const double hi = std::max(lo, clamp_gbps(hi_gbps));
    const double g = std::exp(rng.uniform(std::log(lo), std::log(hi)));
    return util::gbps(g);
  }
  double draw_latency() {
    return usec(rng.uniform(kMinLatencyUs, kMaxLatencyUs));
  }
  bool chance(double p) { return rng.uniform(0.0, 1.0) < p; }

  /// Duplex link; when `may_skew` the reverse direction may get an
  /// independently drawn capacity (same latency — wire length is shared).
  void connect(DeviceId a, DeviceId b, LinkKind kind, double lo_gbps,
               double hi_gbps, bool may_skew) {
    const double fwd = draw_bps(lo_gbps, hi_gbps);
    const double lat = draw_latency();
    double rev = fwd;
    if (may_skew && chance(0.3)) {
      rev = draw_bps(lo_gbps, hi_gbps);
    }
    spec.edges.push_back({a, b, kind, fwd, lat});
    spec.edges.push_back({b, a, kind, rev, lat});
  }
};

}  // namespace

TopoSpec generate_topology(std::uint64_t seed) {
  Gen g{util::Rng(mix_seed(seed, 0x0F0F0F0Full)), {}};
  g.spec.name = "fuzz-" + std::to_string(seed);

  const int n_numa = static_cast<int>(g.rng.uniform_int(1, kMaxNumaDomains));
  const int n_gpus = static_cast<int>(g.rng.uniform_int(kMinGpus, kMaxGpus));

  // Hosts first (device ids 0..n_numa-1): one per NUMA domain, each with a
  // DRAM channel. Chained by inter-socket fabric so hosts always form a
  // connected backbone.
  for (int i = 0; i < n_numa; ++i) {
    g.spec.devices.push_back(
        {DeviceKind::Host, i, "host" + std::to_string(i)});
    g.spec.mem_channels.push_back(
        {static_cast<DeviceId>(i), g.draw_bps(12.0, 80.0),
         usec(g.rng.uniform(0.15, 0.3))});
  }
  for (int i = 0; i + 1 < n_numa; ++i) {
    g.connect(static_cast<DeviceId>(i), static_cast<DeviceId>(i + 1),
              LinkKind::UPI, 10.0, 40.0, /*may_skew=*/false);
  }
  // Extra cross-socket links (beyond the chain) with some probability.
  for (int a = 0; a < n_numa; ++a) {
    for (int b = a + 2; b < n_numa; ++b) {
      if (g.chance(0.4)) {
        g.connect(static_cast<DeviceId>(a), static_cast<DeviceId>(b),
                  LinkKind::UPI, 8.0, 30.0, /*may_skew=*/false);
      }
    }
  }

  // GPUs: each lands in a random NUMA domain with a PCIe uplink to that
  // domain's host — the connectivity guarantee no fabric draw can break.
  const LinkKind pcie_gen = std::array{LinkKind::PCIe3, LinkKind::PCIe4,
                                       LinkKind::PCIe5}[static_cast<std::size_t>(
      g.rng.uniform_int(0, 2))];
  const double pcie_base =
      pcie_gen == LinkKind::PCIe3 ? 12.0 : pcie_gen == LinkKind::PCIe4 ? 24.0
                                                                       : 48.0;
  std::vector<DeviceId> gpus;
  for (int i = 0; i < n_gpus; ++i) {
    const int numa = static_cast<int>(g.rng.uniform_int(0, n_numa - 1));
    const auto id = static_cast<DeviceId>(g.spec.devices.size());
    g.spec.devices.push_back(
        {DeviceKind::Gpu, numa, "gpu" + std::to_string(i)});
    gpus.push_back(id);
    g.connect(id, static_cast<DeviceId>(numa), pcie_gen, pcie_base * 0.8,
              pcie_base * 1.1, /*may_skew=*/true);
  }

  // Fabric family.
  std::vector<Fabric> fabrics{Fabric::kPcieOnly, Fabric::kNvlinkMesh,
                              Fabric::kNvlinkPartial, Fabric::kNvswitch};
  if (n_gpus >= 3) {
    fabrics.push_back(Fabric::kXgmiRing);
    fabrics.push_back(Fabric::kMixed);
  }
  const Fabric fabric = fabrics[static_cast<std::size_t>(
      g.rng.uniform_int(0, static_cast<std::int64_t>(fabrics.size()) - 1))];

  const LinkKind nv_gen = std::array{LinkKind::NVLink2, LinkKind::NVLink3,
                                     LinkKind::NVLink4}[static_cast<std::size_t>(
      g.rng.uniform_int(0, 2))];
  const auto nvlink_pairs = [&](double link_prob) {
    for (std::size_t a = 0; a < gpus.size(); ++a) {
      for (std::size_t b = a + 1; b < gpus.size(); ++b) {
        if (g.chance(link_prob)) {
          g.connect(gpus[a], gpus[b], nv_gen, 23.0, 300.0, /*may_skew=*/true);
        }
      }
    }
  };
  const auto xgmi_ring = [&] {
    // Ring over a random GPU permutation; occasional chord.
    std::vector<std::size_t> order(gpus.size());
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<std::size_t>(g.rng.uniform_int(
                    0, static_cast<std::int64_t>(i) - 1))]);
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
      g.connect(gpus[order[i]], gpus[order[(i + 1) % order.size()]],
                LinkKind::XGMI, 25.0, 100.0, /*may_skew=*/false);
    }
    if (order.size() >= 4 && g.chance(0.3)) {
      g.connect(gpus[order[0]], gpus[order[order.size() / 2]], LinkKind::XGMI,
                25.0, 100.0, /*may_skew=*/false);
    }
  };
  switch (fabric) {
    case Fabric::kPcieOnly: break;
    case Fabric::kNvlinkMesh: nvlink_pairs(1.0); break;
    case Fabric::kNvlinkPartial: nvlink_pairs(0.55); break;
    case Fabric::kNvswitch: {
      // The switch is modeled like the DGX preset: a Host pseudo-device
      // with no memory channel, added AFTER the real hosts so that
      // nearest_host() never selects it as a staging target.
      const auto sw = static_cast<DeviceId>(g.spec.devices.size());
      g.spec.devices.push_back({DeviceKind::Host, 0, "nvswitch"});
      for (DeviceId gpu : gpus) {
        g.connect(gpu, sw, LinkKind::NVSwitch, 100.0, 300.0,
                  /*may_skew=*/false);
      }
      break;
    }
    case Fabric::kXgmiRing: xgmi_ring(); break;
    case Fabric::kMixed:
      nvlink_pairs(0.35);
      xgmi_ring();
      break;
  }

  // Software costs: mild per-system perturbation of the defaults. Jitter is
  // zero so the fluid simulation is a noise-free oracle — every flagged
  // mispredict is structural, not measurement luck.
  topo::SoftwareCosts& c = g.spec.costs;
  const double s = g.rng.uniform(0.7, 1.3);
  c.op_launch_s *= s;
  c.event_record_s *= s;
  c.event_wait_s *= s;
  c.stage_sync_s *= g.rng.uniform(0.7, 1.4);
  c.host_stage_sync_s *= g.rng.uniform(0.7, 1.4);
  c.ipc_open_s *= g.rng.uniform(0.5, 1.5);
  c.rendezvous_s *= g.rng.uniform(0.7, 1.3);
  c.jitter_rel = 0.0;
  return g.spec;
}

}  // namespace mpath::fuzz
