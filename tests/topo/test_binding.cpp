#include "mpath/topo/binding.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "mpath/topo/system.hpp"
#include "mpath/util/units.hpp"

namespace ms = mpath::sim;
namespace mt = mpath::topo;
using namespace mpath::util::literals;
using mpath::util::gbps;

namespace {
struct BoundBeluga {
  mt::System sys = mt::make_beluga();
  ms::Engine engine;
  ms::FluidNetwork net{engine};
  mt::NetworkBinding binding{sys.topology, net};
  std::vector<mt::DeviceId> gpus = sys.topology.gpus();
};
}  // namespace

TEST(Binding, OneLinkPerEdge) {
  BoundBeluga b;
  EXPECT_EQ(b.net.link_count(), b.sys.topology.edges().size());
  for (const auto& e : b.sys.topology.edges()) {
    const auto link = b.binding.link_for_edge(e.id);
    EXPECT_DOUBLE_EQ(b.net.link(link).capacity_bps, e.capacity_bps);
    EXPECT_DOUBLE_EQ(b.net.link(link).latency_s, e.latency_s);
  }
}

TEST(Binding, RouteLinksMatchTopologyRoute) {
  BoundBeluga b;
  const auto links = b.binding.route(b.gpus[0], b.gpus[1]).links;
  ASSERT_EQ(links.size(), 1u);
  EXPECT_DOUBLE_EQ(b.net.link(links[0]).capacity_bps, gbps(46));
}

// Copies take their links and startup latency from the binding's table:
// each entry must be what lowering the topology's route gives, with the
// latency summed in route order as the copy path always summed it.
TEST(Binding, LoweredRoutesMatchTopologyOnEveryPreset) {
  for (mt::System (*make)() : {&mt::make_beluga, &mt::make_narval,
                               &mt::make_dgx_nvswitch, &mt::make_pcie_only,
                               &mt::make_amd_ring}) {
    const mt::System sys = make();
    ms::Engine engine;
    ms::FluidNetwork net{engine};
    mt::NetworkBinding binding{sys.topology, net};
    for (const mt::DeviceInfo& a : sys.topology.devices()) {
      for (const mt::DeviceInfo& b : sys.topology.devices()) {
        const std::string pair =
            sys.topology.name() + " " + a.name + "->" + b.name;
        std::vector<mt::EdgeId> edges;
        try {
          edges = sys.topology.route(a.id, b.id);
        } catch (const std::runtime_error&) {
          EXPECT_THROW((void)binding.route(a.id, b.id), std::runtime_error)
              << pair;
          EXPECT_THROW((void)binding.route(a.id, b.id), std::runtime_error)
              << pair;
          continue;
        }
        const mt::LoweredRoute& lowered = binding.route(a.id, b.id);
        const ms::Route want = binding.links_for_route(edges);
        EXPECT_EQ(lowered.links, want) << pair;
        double latency = 0.0;
        for (ms::LinkId l : want) latency += net.link(l).latency_s;
        EXPECT_EQ(lowered.latency_s, latency) << pair;
        EXPECT_EQ(&binding.route(a.id, b.id), &lowered) << pair;
      }
    }
  }
}

TEST(Binding, UnreachablePairThrowsOnEveryLookup) {
  // Two GPUs on separate hosts with nothing between the hosts.
  mt::Topology topo("islands");
  const auto h0 = topo.add_device(mt::DeviceKind::Host, 0, "host0");
  const auto h1 = topo.add_device(mt::DeviceKind::Host, 1, "host1");
  const auto g0 = topo.add_device(mt::DeviceKind::Gpu, 0, "gpu0");
  const auto g1 = topo.add_device(mt::DeviceKind::Gpu, 1, "gpu1");
  topo.connect_duplex(g0, h0, mt::LinkKind::PCIe3, gbps(12), 1e-6);
  topo.connect_duplex(g1, h1, mt::LinkKind::PCIe3, gbps(12), 1e-6);
  ms::Engine engine;
  ms::FluidNetwork net{engine};
  mt::NetworkBinding binding{topo, net};
  for (int i = 0; i < 2; ++i) {
    EXPECT_THROW((void)binding.route(g0, g1), std::runtime_error);
    EXPECT_THROW((void)binding.route(g1, h0), std::runtime_error);
  }
  EXPECT_EQ(binding.route(g0, h0).links.size(), 1u);
  EXPECT_THROW((void)binding.route(g0, 4), std::out_of_range);
  EXPECT_THROW((void)binding.route(4, g0), std::out_of_range);
}

TEST(Binding, SimulatedDirectTransferMatchesAnalyticTime) {
  BoundBeluga b;
  const auto route = b.binding.route(b.gpus[0], b.gpus[1]).links;
  double finish = -1;
  b.engine.spawn([](ms::Engine& e, ms::FluidNetwork& net,
                    ms::Route r, double& out) -> ms::Task<void> {
    co_await net.transfer(std::move(r), 64.0 * (1 << 20));
    out = e.now();
  }(b.engine, b.net, route, finish));
  b.engine.run();
  const double expected =
      1e-6 + 64.0 * (1 << 20) / gbps(46);  // latency + n/beta
  EXPECT_NEAR(finish, expected, 1e-9);
}

TEST(Binding, HostStagedHopsShareMemoryChannel) {
  // Simultaneous write+read through host memory: each hop is limited by
  // the shared 30 GB/s channel only if PCIe (12 GB/s) were faster; here
  // PCIe binds, so both proceed at 12 GB/s concurrently.
  BoundBeluga b;
  const auto host = b.sys.topology.hosts()[0];
  const auto up = b.binding.route(b.gpus[0], host).links;
  const auto down = b.binding.route(host, b.gpus[1]).links;
  double f_up = -1, f_down = -1;
  const double bytes = 12e9;  // 1 second at PCIe speed
  b.engine.spawn([](ms::Engine& e, ms::FluidNetwork& net,
                    ms::Route r, double bs,
                    double& out) -> ms::Task<void> {
    co_await net.transfer(std::move(r), bs);
    out = e.now();
  }(b.engine, b.net, up, bytes, f_up));
  b.engine.spawn([](ms::Engine& e, ms::FluidNetwork& net,
                    ms::Route r, double bs,
                    double& out) -> ms::Task<void> {
    co_await net.transfer(std::move(r), bs);
    out = e.now();
  }(b.engine, b.net, down, bytes, f_down));
  b.engine.run();
  EXPECT_NEAR(f_up, 1.0, 1e-3);
  EXPECT_NEAR(f_down, 1.0, 1e-3);
}

TEST(Binding, FourConcurrentMemChannelUsersContend) {
  // Bidirectional host staging: 4 streams through a 30 GB/s channel get
  // 7.5 GB/s each — slower than their 12 GB/s PCIe. This is the mechanism
  // behind the paper's Observation 5.
  BoundBeluga b;
  const auto host = b.sys.topology.hosts()[0];
  std::vector<ms::Route> routes = {
      b.binding.route(b.gpus[0], host).links,
      b.binding.route(host, b.gpus[1]).links,
      b.binding.route(b.gpus[1], host).links,
      b.binding.route(host, b.gpus[0]).links,
  };
  std::vector<double> finishes(4, -1);
  const double bytes = 7.5e9;
  for (int i = 0; i < 4; ++i) {
    b.engine.spawn([](ms::Engine& e, ms::FluidNetwork& net,
                      ms::Route r, double bs,
                      double& out) -> ms::Task<void> {
      co_await net.transfer(std::move(r), bs);
      out = e.now();
    }(b.engine, b.net, routes[i], bytes, finishes[i]));
  }
  b.engine.run();
  for (double f : finishes) {
    EXPECT_NEAR(f, 1.0, 1e-2);  // channel-bound, not PCIe-bound
  }
}
