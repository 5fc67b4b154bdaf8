#include "mpath/topo/topology.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mpath/util/units.hpp"

namespace mt = mpath::topo;
using mpath::util::gbps;
using mpath::util::usec;

namespace {
// Two GPUs on one host, NVLink between them, PCIe to the host.
struct MiniNode {
  mt::Topology topo{"mini"};
  mt::DeviceId host, g0, g1;
  mt::EdgeId memchan;

  MiniNode() {
    host = topo.add_device(mt::DeviceKind::Host, 0, "host0");
    memchan = topo.add_memory_channel(host, gbps(30), usec(0.2));
    g0 = topo.add_device(mt::DeviceKind::Gpu, 0, "gpu0");
    g1 = topo.add_device(mt::DeviceKind::Gpu, 0, "gpu1");
    topo.connect_duplex(g0, g1, mt::LinkKind::NVLink2, gbps(46), usec(1.0));
    topo.connect_duplex(g0, host, mt::LinkKind::PCIe3, gbps(12), usec(1.6));
    topo.connect_duplex(g1, host, mt::LinkKind::PCIe3, gbps(12), usec(1.6));
  }
};
}  // namespace

TEST(Topology, DeviceBookkeeping) {
  MiniNode n;
  EXPECT_EQ(n.topo.devices().size(), 3u);
  EXPECT_EQ(n.topo.gpus().size(), 2u);
  EXPECT_EQ(n.topo.hosts().size(), 1u);
  EXPECT_EQ(n.topo.device(n.g0).kind, mt::DeviceKind::Gpu);
  EXPECT_EQ(n.topo.host_for_numa(0), n.host);
  EXPECT_EQ(n.topo.nearest_host(n.g0), n.host);
  EXPECT_THROW((void)n.topo.host_for_numa(7), std::runtime_error);
}

TEST(Topology, ConnectValidation) {
  mt::Topology t("bad");
  const auto a = t.add_device(mt::DeviceKind::Gpu, 0, "a");
  const auto b = t.add_device(mt::DeviceKind::Gpu, 0, "b");
  EXPECT_THROW(t.connect(a, a, mt::LinkKind::NVLink2, 1e9, 0), std::invalid_argument);
  EXPECT_THROW(t.connect(a, b, mt::LinkKind::NVLink2, 0, 0), std::invalid_argument);
  EXPECT_THROW(t.connect(a, b, mt::LinkKind::NVLink2, 1e9, -1), std::invalid_argument);
  EXPECT_THROW(t.connect(a, 99, mt::LinkKind::NVLink2, 1e9, 0), std::invalid_argument);
  EXPECT_THROW(t.add_memory_channel(a, 1e9, 0), std::invalid_argument);
}

// NaN passes a `<= 0` or `< 0` check and an infinite capacity never
// drains a flow, so both are refused, with the link named.
TEST(Topology, NonFiniteLinkParametersAreRefused) {
  mt::Topology t("bad");
  const auto a = t.add_device(mt::DeviceKind::Gpu, 0, "a");
  const auto b = t.add_device(mt::DeviceKind::Gpu, 0, "b");
  const auto h = t.add_device(mt::DeviceKind::Host, 0, "h");
  const auto expect_refused = [](auto&& add, const std::string& link) {
    try {
      add();
      ADD_FAILURE() << link << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(link), std::string::npos)
          << e.what();
    }
  };
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), inf,
                           -inf}) {
    SCOPED_TRACE(bad);
    expect_refused([&] { t.connect(a, b, mt::LinkKind::NVLink2, bad, 0); },
                   "a->b:NVLink2");
    expect_refused([&] { t.connect(a, b, mt::LinkKind::NVLink2, 1e9, bad); },
                   "a->b:NVLink2");
    expect_refused([&] { t.add_memory_channel(h, bad, 0); }, "h:MemChan");
    expect_refused([&] { t.add_memory_channel(h, 1e9, bad); }, "h:MemChan");
  }
  expect_refused([&] { t.add_memory_channel(h, 0.0, 0); }, "h:MemChan");
  EXPECT_TRUE(t.edges().empty());
}

TEST(Topology, MemoryChannelUniquePerHost) {
  mt::Topology t("x");
  const auto h = t.add_device(mt::DeviceKind::Host, 0, "h");
  t.add_memory_channel(h, 1e9, 0);
  EXPECT_THROW(t.add_memory_channel(h, 1e9, 0), std::invalid_argument);
}

TEST(Topology, DirectEdgePrefersHighestCapacity) {
  mt::Topology t("multi");
  const auto a = t.add_device(mt::DeviceKind::Gpu, 0, "a");
  const auto b = t.add_device(mt::DeviceKind::Gpu, 0, "b");
  t.connect(a, b, mt::LinkKind::PCIe3, gbps(12), usec(1));
  const auto nv = t.connect(a, b, mt::LinkKind::NVLink2, gbps(46), usec(1));
  ASSERT_TRUE(t.direct_edge(a, b).has_value());
  EXPECT_EQ(*t.direct_edge(a, b), nv);
  EXPECT_FALSE(t.direct_edge(b, a).has_value() &&
               t.edges()[*t.direct_edge(b, a)].kind == mt::LinkKind::NVLink2);
}

TEST(Topology, GpuToGpuRoutePrefersNVLink) {
  MiniNode n;
  const auto& r = n.topo.route(n.g0, n.g1);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(n.topo.edges()[r[0]].kind, mt::LinkKind::NVLink2);
}

TEST(Topology, GpuToHostRouteEndsWithMemChannel) {
  MiniNode n;
  const auto& r = n.topo.route(n.g0, n.host);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(n.topo.edges()[r[0]].kind, mt::LinkKind::PCIe3);
  EXPECT_TRUE(n.topo.edges()[r[1]].is_memory_channel);
}

TEST(Topology, HostToGpuRouteStartsWithMemChannel) {
  MiniNode n;
  const auto& r = n.topo.route(n.host, n.g1);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_TRUE(n.topo.edges()[r[0]].is_memory_channel);
  EXPECT_EQ(n.topo.edges()[r[1]].kind, mt::LinkKind::PCIe3);
}

TEST(Topology, TransitThroughHostSkipsMemChannel) {
  // Remove the NVLink: GPU-GPU traffic routes PCIe->PCIe through the root
  // complex without touching DRAM.
  mt::Topology t("pcie");
  const auto h = t.add_device(mt::DeviceKind::Host, 0, "h");
  t.add_memory_channel(h, gbps(30), usec(0.2));
  const auto a = t.add_device(mt::DeviceKind::Gpu, 0, "a");
  const auto b = t.add_device(mt::DeviceKind::Gpu, 0, "b");
  t.connect_duplex(a, h, mt::LinkKind::PCIe3, gbps(12), usec(1.6));
  t.connect_duplex(b, h, mt::LinkKind::PCIe3, gbps(12), usec(1.6));
  const auto& r = t.route(a, b);
  ASSERT_EQ(r.size(), 2u);
  for (auto e : r) EXPECT_FALSE(t.edges()[e].is_memory_channel);
}

TEST(Topology, RouteToSelfIsEmpty) {
  MiniNode n;
  EXPECT_TRUE(n.topo.route(n.g0, n.g0).empty());
}

TEST(Topology, NoRouteThrows) {
  mt::Topology t("disconnected");
  const auto a = t.add_device(mt::DeviceKind::Gpu, 0, "a");
  const auto b = t.add_device(mt::DeviceKind::Gpu, 0, "b");
  EXPECT_THROW((void)t.route(a, b), std::runtime_error);
}

TEST(Topology, RouteCapacityAndLatency) {
  MiniNode n;
  const auto& r = n.topo.route(n.g0, n.host);
  EXPECT_DOUBLE_EQ(n.topo.route_capacity(r), gbps(12));
  EXPECT_NEAR(n.topo.route_latency(r), usec(1.8), 1e-12);
}

TEST(Topology, LinkKindNames) {
  EXPECT_EQ(mt::to_string(mt::LinkKind::NVLink3), "NVLink3");
  EXPECT_EQ(mt::to_string(mt::LinkKind::MemChan), "MemChan");
  EXPECT_EQ(mt::to_string(mt::DeviceKind::Gpu), "GPU");
}

// ---------------------------------------------------------------------------
// xGMI transit routing (regression).
//
// Transit through a GPU is only admissible when the data ARRIVES on xGMI
// and LEAVES on xGMI (hardware ring routing). That makes edge admissibility
// depend on the predecessor edge, so the Dijkstra state must be
// (device, arrived-via-xGMI). A device-keyed search records only the
// cheapest arrival; when that arrival is a faster non-xGMI link, the
// onward ring hop gets rejected and the search reports a spurious
// "no route".
// ---------------------------------------------------------------------------

TEST(Topology, XgmiTransitSurvivesFasterNonXgmiArrival) {
  mt::Topology t("ring");
  const auto g0 = t.add_device(mt::DeviceKind::Gpu, 0, "g0");
  const auto g1 = t.add_device(mt::DeviceKind::Gpu, 0, "g1");
  const auto g2 = t.add_device(mt::DeviceKind::Gpu, 0, "g2");
  t.connect_duplex(g0, g1, mt::LinkKind::XGMI, gbps(50), usec(1.1));
  t.connect_duplex(g1, g2, mt::LinkKind::XGMI, gbps(50), usec(1.1));
  // Cheaper non-xGMI arrival at the ring GPU: this must not mask the xGMI
  // arrival state that the onward ring hop needs.
  t.connect_duplex(g0, g1, mt::LinkKind::NVLink4, gbps(300), usec(0.5));

  const auto& r = t.route(g0, g2);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(t.edges()[r[0]].kind, mt::LinkKind::XGMI);
  EXPECT_EQ(t.edges()[r[1]].kind, mt::LinkKind::XGMI);

  // The one-hop neighbour still takes the faster link.
  const auto& d = t.route(g0, g1);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(t.edges()[d[0]].kind, mt::LinkKind::NVLink4);
}

TEST(Topology, XgmiRingRoutesAroundTheRing) {
  mt::Topology t("ring4");
  mt::DeviceId g[4];
  for (int i = 0; i < 4; ++i) {
    g[i] = t.add_device(mt::DeviceKind::Gpu, 0, "g" + std::to_string(i));
  }
  for (int i = 0; i < 4; ++i) {
    t.connect_duplex(g[i], g[(i + 1) % 4], mt::LinkKind::XGMI, gbps(50),
                     usec(1.1));
  }
  const auto& r = t.route(g[0], g[2]);
  ASSERT_EQ(r.size(), 2u);
  for (auto e : r) EXPECT_EQ(t.edges()[e].kind, mt::LinkKind::XGMI);
}

TEST(Topology, NonXgmiGpuChainDoesNotTransit) {
  // NVLink forwarding through a GPU is staging, not routing: with only a
  // g0-g1-g2 NVLink chain there is no g0->g2 route.
  mt::Topology t("chain");
  const auto g0 = t.add_device(mt::DeviceKind::Gpu, 0, "g0");
  const auto g1 = t.add_device(mt::DeviceKind::Gpu, 0, "g1");
  const auto g2 = t.add_device(mt::DeviceKind::Gpu, 0, "g2");
  t.connect_duplex(g0, g1, mt::LinkKind::NVLink3, gbps(92), usec(1.0));
  t.connect_duplex(g1, g2, mt::LinkKind::NVLink3, gbps(92), usec(1.0));
  EXPECT_THROW((void)t.route(g0, g2), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Concurrent route() lookups (regression; runs under TSan in CI).
//
// Sweep workers share one const topo::System snapshot and call route() on
// it concurrently. route() is a pure function of the const topology, so
// every thread must see the serial answer.
// ---------------------------------------------------------------------------

TEST(ConcurrentRoute, ParallelColdLookupsAgreeWithSerial) {
  const auto build = [] {
    mt::Topology t("ring4h");
    const auto h = t.add_device(mt::DeviceKind::Host, 0, "h");
    t.add_memory_channel(h, gbps(30), usec(0.2));
    mt::DeviceId g[4];
    for (int i = 0; i < 4; ++i) {
      g[i] = t.add_device(mt::DeviceKind::Gpu, 0, "g" + std::to_string(i));
      t.connect_duplex(g[i], h, mt::LinkKind::PCIe4, gbps(24), usec(1.6));
    }
    for (int i = 0; i < 4; ++i) {
      t.connect_duplex(g[i], g[(i + 1) % 4], mt::LinkKind::XGMI, gbps(50),
                       usec(1.1));
    }
    return t;
  };

  // Serial reference: every pair's route on a private instance.
  mt::Topology ref = build();
  std::map<std::pair<mt::DeviceId, mt::DeviceId>, std::vector<mt::EdgeId>>
      expect;
  for (const auto& a : ref.devices()) {
    for (const auto& b : ref.devices()) {
      expect[{a.id, b.id}] = ref.route(a.id, b.id);
    }
  }

  // One shared instance, hammered from many threads.
  const mt::Topology shared = build();
  constexpr int kThreads = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&] {
      for (int rep = 0; rep < 25; ++rep) {
        for (const auto& a : shared.devices()) {
          for (const auto& b : shared.devices()) {
            const auto& r = shared.route(a.id, b.id);
            if (r != expect[{a.id, b.id}]) mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : workers) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrentRoute, CopyTakesCacheSnapshot) {
  MiniNode n;
  (void)n.topo.route(n.g0, n.g1);
  const mt::Topology copy = n.topo;
  const auto& r = copy.route(n.g0, n.g1);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(copy.edges()[r[0]].kind, mt::LinkKind::NVLink2);
}
