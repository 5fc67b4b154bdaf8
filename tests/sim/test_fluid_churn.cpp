// Property tests for the incremental max-min solver: randomized flow churn
// (start / cancel / complete) over shared-link topologies, with the
// retained full-resolve water-filling oracle checking every incremental
// solve, plus pinned completion times and re-solve counts.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "mpath/sim/fault.hpp"
#include "mpath/sim/fluid.hpp"
#include "mpath/util/rng.hpp"

namespace ms = mpath::sim;

namespace {

struct FlowSpec {
  std::vector<ms::LinkId> route;
  double bytes;
  double start;
  double cancel_after;  // <0: never cancelled
};

// Deterministic random churn workload over `nlinks` shared links.
std::vector<FlowSpec> make_workload(mpath::util::Rng& rng, int nlinks,
                                    int nflows, bool with_cancels) {
  std::vector<FlowSpec> specs;
  specs.reserve(static_cast<std::size_t>(nflows));
  for (int i = 0; i < nflows; ++i) {
    FlowSpec s;
    const int hops = 1 + static_cast<int>(rng.uniform(0.0, 2.999));
    for (int h = 0; h < hops; ++h) {
      s.route.push_back(
          static_cast<ms::LinkId>(rng.uniform(0.0, nlinks - 0.001)));
    }
    if (rng.uniform(0.0, 1.0) < 0.15) {
      s.route.push_back(s.route.front());  // double traversal
    }
    s.bytes = rng.uniform(0.5, 5000.0);
    s.start = rng.uniform(0.0, 10.0);
    s.cancel_after = (with_cancels && rng.uniform(0.0, 1.0) < 0.3)
                         ? rng.uniform(0.0, 20.0)
                         : -1.0;
    specs.push_back(std::move(s));
  }
  return specs;
}

ms::Task<void> timed_transfer(ms::Engine& e, ms::FluidNetwork& net,
                              std::vector<ms::LinkId> route, double bytes,
                              double& finish) {
  co_await net.transfer(std::move(route), bytes);
  finish = e.now();
}

ms::Task<void> delayed_transfer(ms::Engine& e, ms::FluidNetwork& net,
                                double start, std::vector<ms::LinkId> route,
                                double bytes, double& finish) {
  co_await e.delay(start);
  co_await net.transfer(std::move(route), bytes);
  finish = e.now();
}

}  // namespace

// Hundreds of randomly routed flows churn over shared links while the
// full-resolve oracle audits every incremental solve; afterwards per-link
// byte accounting must balance exactly against route multiplicities.
TEST(FluidChurn, RandomChurnMatchesOracleAndConservesBytes) {
  mpath::util::Rng rng(1234);
  const int nlinks = 10;
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  net.set_self_check(true);  // oracle audit: throws std::logic_error on drift
  std::vector<ms::LinkId> links;
  for (int l = 0; l < nlinks; ++l) {
    links.push_back(net.add_link({"l" + std::to_string(l),
                                  rng.uniform(50.0, 500.0), 0.0}));
  }
  const auto specs = make_workload(rng, nlinks, 300, /*with_cancels=*/false);
  std::vector<double> finishes(specs.size(), -1.0);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    engine.spawn(delayed_transfer(engine, net, specs[i].start, specs[i].route,
                                  specs[i].bytes, finishes[i]));
  }
  engine.run();

  EXPECT_EQ(net.active_flow_count(), 0u);
  EXPECT_EQ(net.stats().timers_stale, 0u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_GT(finishes[i], 0.0) << "flow " << i << " never finished";
    double cap = 1e18;
    for (auto l : specs[i].route) {
      cap = std::min(cap, net.link(l).capacity_bps);
    }
    // No flow beats its serial lower bound (implicit capacity check).
    EXPECT_GE(finishes[i] + 1e-9, specs[i].start + specs[i].bytes / cap);
  }
  // Conservation: every flow contributes bytes once per route traversal.
  double expected = 0.0;
  for (const auto& s : specs) {
    expected += s.bytes * static_cast<double>(s.route.size());
  }
  double delivered = 0.0;
  for (auto l : links) delivered += net.link_bytes_transferred(l);
  EXPECT_NEAR(delivered / expected, 1.0, 1e-9);
  EXPECT_GT(net.stats().resolves, 0u);
  EXPECT_LT(net.stats().resolves, net.stats().resolve_requests +
                                      net.stats().timers_fired + 1);
}

// Same churn with ~30% of flows cancelled mid-flight: handles must
// invalidate, cancelled bytes must not be double-counted, and the oracle
// must still agree after every add/remove.
TEST(FluidChurn, CancelChurnMatchesOracle) {
  mpath::util::Rng rng(99);
  const int nlinks = 8;
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  net.set_self_check(true);
  std::vector<ms::LinkId> links;
  for (int l = 0; l < nlinks; ++l) {
    links.push_back(net.add_link({"l" + std::to_string(l),
                                  rng.uniform(50.0, 500.0), 0.0}));
  }
  const auto specs = make_workload(rng, nlinks, 200, /*with_cancels=*/true);
  std::vector<ms::FlowId> ids(specs.size(), ms::kInvalidFlow);
  int cancels_attempted = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    engine.schedule_callback(specs[i].start, [&net, &ids, &specs, i] {
      ids[i] = net.start_flow(specs[i].route, specs[i].bytes);
    });
    if (specs[i].cancel_after >= 0.0) {
      ++cancels_attempted;
      engine.schedule_callback(specs[i].start + specs[i].cancel_after,
                               [&net, &ids, i] {
        (void)net.cancel_flow(ids[i]);  // may race completion: both fine
      });
    }
  }
  engine.run();

  EXPECT_EQ(net.active_flow_count(), 0u);
  EXPECT_EQ(net.stats().timers_stale, 0u);
  EXPECT_GT(cancels_attempted, 10);
  // Cancelled flows deliver at most their size; totals cannot exceed the
  // all-completed sum.
  double max_expected = 0.0;
  for (const auto& s : specs) {
    max_expected += s.bytes * static_cast<double>(s.route.size());
  }
  double delivered = 0.0;
  for (auto l : links) delivered += net.link_bytes_transferred(l);
  EXPECT_LE(delivered, max_expected * (1.0 + 1e-9));
  EXPECT_GT(delivered, 0.0);
  // All handles are stale afterwards.
  for (ms::FlowId id : ids) EXPECT_FALSE(net.cancel_flow(id));
}

// The incremental solver against its whole-network oracle on a workload
// with per-link latencies: the self-check throws on the first re-solve
// whose rates differ from the oracle's, and every flow must finish no
// sooner than its serial lower bound.
TEST(FluidChurn, ModesProduceIdenticalCompletionTimes) {
  mpath::util::Rng rng(777);
  const int nlinks = 6;
  const auto specs = make_workload(rng, nlinks, 150, /*with_cancels=*/false);
  mpath::util::Rng cap_rng(42);
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  net.set_self_check(true);
  for (int l = 0; l < nlinks; ++l) {
    net.add_link({"l" + std::to_string(l), cap_rng.uniform(50.0, 500.0),
                  1e-5 * l});
  }
  std::vector<double> finishes(specs.size(), -1.0);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    engine.spawn(delayed_transfer(engine, net, specs[i].start, specs[i].route,
                                  specs[i].bytes, finishes[i]));
  }
  engine.run();
  EXPECT_EQ(net.stats().timers_stale, 0u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    double cap = 1e18;
    for (auto l : specs[i].route) {
      cap = std::min(cap, net.link(l).capacity_bps);
    }
    EXPECT_GE(finishes[i] + 1e-9, specs[i].start + specs[i].bytes / cap)
        << "flow " << i;
  }
}

// Exact-tie workload: symmetric power-of-two capacities make every link
// bottleneck at exactly the same share, so the heap's (share, LinkId)
// tie-break must mirror the oracle's ascending-id scan — the self-check
// audits every solve. The completion instants are pinned bit-for-bit
// (EXPECT_EQ, not NEAR: exact arithmetic, no tolerance).
TEST(FluidChurn, ExactTiesResolveIdenticallyAcrossModes) {
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  net.set_self_check(true);
  const std::size_t nlinks = 8;
  std::vector<ms::LinkId> links;
  for (std::size_t l = 0; l < nlinks; ++l) {
    links.push_back(net.add_link({"l" + std::to_string(l), 128.0, 0.0}));
  }
  std::vector<double> finishes(3 * nlinks, -1.0);
  for (std::size_t i = 0; i < nlinks; ++i) {
    // Ring flow over a link pair, a single-link flow, and a delayed second
    // wave — all sizes powers of two so shares tie exactly.
    engine.spawn(timed_transfer(engine, net,
                                {links[i], links[(i + 1) % nlinks]}, 1024.0,
                                finishes[3 * i]));
    engine.spawn(
        timed_transfer(engine, net, {links[i]}, 2048.0, finishes[3 * i + 1]));
    engine.spawn(delayed_transfer(engine, net, 8.0, {links[i]}, 512.0,
                                  finishes[3 * i + 2]));
  }
  engine.run();
  EXPECT_EQ(net.stats().timers_stale, 0u);
  for (std::size_t i = 0; i < nlinks; ++i) {
    EXPECT_EQ(finishes[3 * i], 28.0) << "ring flow " << i;
    EXPECT_EQ(finishes[3 * i + 1], 36.0) << "single-link flow " << i;
    EXPECT_EQ(finishes[3 * i + 2], 24.0) << "second-wave flow " << i;
  }
}

// The oracle audit under a seeded random fault plan: capacity churn
// exercises the heap's lazy-invalidation path (stale keys from freeze-time
// decrements), and every re-solve must still match the whole-network
// water-filling. Also pins down that the heap actually ran and lazily
// reinserted stale keys.
TEST(FluidChurn, ModesAgreeUnderFaultPlan) {
  mpath::util::Rng rng(4242);
  const int nlinks = 6;
  const auto specs = make_workload(rng, nlinks, 150, /*with_cancels=*/false);
  mpath::util::Rng cap_rng(42);
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  net.set_self_check(true);
  std::vector<ms::LinkId> links;
  for (int l = 0; l < nlinks; ++l) {
    links.push_back(net.add_link(
        {"l" + std::to_string(l), cap_rng.uniform(50.0, 500.0), 1e-5 * l}));
  }
  ms::FaultInjector inj(engine, net);
  ms::FaultInjector::RandomPlanOptions opts;
  opts.faults = 16;
  opts.horizon = 20.0;
  opts.min_factor = 0.1;
  opts.max_factor = 0.8;
  opts.restore_probability = 1.0;  // flows must still drain
  inj.random_plan(links, opts, 7);
  std::vector<double> finishes(specs.size(), -1.0);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    engine.spawn(delayed_transfer(engine, net, specs[i].start, specs[i].route,
                                  specs[i].bytes, finishes[i]));
  }
  engine.run();
  for (std::size_t i = 0; i < finishes.size(); ++i) {
    ASSERT_GT(finishes[i], 0.0) << "flow " << i << " never finished";
  }
  const auto& st = net.stats();
  EXPECT_EQ(st.timers_stale, 0u);
  EXPECT_GT(st.heap_pushes, 0u);
  EXPECT_GT(st.heap_reinserts, 0u);
}

// Every flow change re-solves in place, so a same-timestamp burst of k
// starts costs k re-solves; the burst's completions, which drain in one
// timer firing, share one. The self-check audits each.
TEST(FluidChurn, SameTimestampBurstResolvesEachChangeInPlace) {
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  net.set_self_check(true);
  const auto link = net.add_link({"l", 100.0, 0.0});
  const int n = 32;
  std::vector<double> finishes(n, -1.0);
  for (int i = 0; i < n; ++i) {
    engine.spawn(
        timed_transfer(engine, net, {link}, 100.0, finishes[i]));
  }
  engine.run();
  // All start at t=0 and, being identical, all complete at t=32 together.
  for (double f : finishes) EXPECT_EQ(f, 32.0);
  const auto& st = net.stats();
  EXPECT_EQ(st.resolves, static_cast<std::uint64_t>(n) + 1);
  EXPECT_EQ(st.resolve_requests, st.resolves);
  EXPECT_EQ(st.coalesced, 0u);
  EXPECT_EQ(st.timers_stale, 0u);
}

// start_flow, cancel_flow and set_link_capacity re-solve before they
// return: the new max-min rates are visible before the engine runs.
TEST(FluidChurn, FlowChangesResolveBeforeReturning) {
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  const auto shared = net.add_link({"shared", 100.0, 0.0});
  const auto narrow = net.add_link({"narrow", 30.0, 0.0});
  const ms::FlowId a = net.start_flow({shared, narrow}, 1000.0);
  EXPECT_EQ(net.stats().resolves, 1u);
  EXPECT_EQ(net.link_allocated_rate(shared), 30.0);
  (void)net.start_flow({shared}, 1000.0);
  EXPECT_EQ(net.stats().resolves, 2u);
  // The narrow flow keeps 30; the other takes the 70 left on `shared`.
  EXPECT_EQ(net.link_allocated_rate(shared), 100.0);
  net.set_link_capacity(narrow, 60.0);
  EXPECT_EQ(net.stats().resolves, 3u);
  EXPECT_EQ(net.link_allocated_rate(narrow), 50.0);  // the fair half
  EXPECT_TRUE(net.cancel_flow(a));
  EXPECT_EQ(net.stats().resolves, 4u);
  EXPECT_EQ(net.link_allocated_rate(narrow), 0.0);
  EXPECT_EQ(net.link_allocated_rate(shared), 100.0);
  EXPECT_EQ(engine.queued_event_count(), 1u);  // the completion timer
}

// Disjoint components: churn on one pair of links must not grow the
// resolve component beyond that pair.
TEST(FluidChurn, DisjointComponentsStayLocal) {
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  const auto a0 = net.add_link({"a0", 100.0, 0.0});
  const auto a1 = net.add_link({"a1", 100.0, 0.0});
  const auto b0 = net.add_link({"b0", 100.0, 0.0});
  const auto b1 = net.add_link({"b1", 100.0, 0.0});
  double fa = -1.0, fb = -1.0;
  engine.spawn(timed_transfer(engine, net, {a0, a1}, 400.0, fa));
  engine.spawn(delayed_transfer(engine, net, 1.0, {b0, b1}, 100.0, fb));
  engine.run();
  EXPECT_NEAR(fa, 4.0, 1e-9);
  EXPECT_NEAR(fb, 2.0, 1e-9);
  // Each resolve touched only one two-link component, never all four.
  const auto& st = net.stats();
  EXPECT_EQ(st.full_resolves, 0u);
  EXPECT_LE(st.links_resolved, 2 * st.resolves);
  EXPECT_EQ(st.timers_stale, 0u);
}

// start_flow/cancel_flow basics: partial delivery is accounted, the latch
// fires, and rates of surviving flows rise after the cancel.
TEST(FluidChurn, CancelReleasesBandwidthAndAccountsPartialBytes) {
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  const auto link = net.add_link({"l", 100.0, 0.0});
  double other_finish = -1.0;
  engine.spawn(timed_transfer(engine, net, {link}, 400.0, other_finish));
  ms::FlowId id = ms::kInvalidFlow;
  engine.schedule_callback(0.0, [&] {
    id = net.start_flow({link}, 1000.0);
  });
  engine.schedule_callback(2.0, [&] { EXPECT_TRUE(net.cancel_flow(id)); });
  engine.run();
  // Shared 50/50 for 2 s (other delivers 100 B), then the survivor runs at
  // full rate: 300 B at 100 B/s -> t = 5.
  EXPECT_NEAR(other_finish, 5.0, 1e-9);
  // Link moved 400 (completed) + 100 (cancelled partial) bytes.
  EXPECT_NEAR(net.link_bytes_transferred(link), 500.0, 1e-6);
  EXPECT_EQ(net.active_flow_count(), 0u);
  EXPECT_EQ(net.stats().timers_stale, 0u);
}

TEST(FluidChurn, StartFlowValidatesArguments) {
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  const auto link = net.add_link({"l", 100.0, 0.0});
  EXPECT_THROW((void)net.start_flow({}, 10.0), std::invalid_argument);
  EXPECT_THROW((void)net.start_flow({link}, 0.0), std::invalid_argument);
  // NaN passes a `bytes <= 0` check; such a flow never completes and its
  // network would re-arm a zero-delay completion timer forever.
  EXPECT_THROW((void)net.start_flow({link},
                                    std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW((void)net.start_flow({static_cast<ms::LinkId>(99)}, 10.0),
               std::invalid_argument);
  EXPECT_FALSE(net.cancel_flow(ms::kInvalidFlow));
  EXPECT_EQ(net.active_flow_count(), 0u);
}

TEST(FluidChurn, TransferRejectsNaNBytes) {
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  const auto link = net.add_link({"l", 100.0, 1.0});
  bool threw = false;
  engine.spawn([](ms::FluidNetwork& n, ms::LinkId l,
                  bool& flag) -> ms::Task<void> {
    const ms::LinkId route[] = {l};
    try {
      co_await n.transfer(route, std::numeric_limits<double>::quiet_NaN());
    } catch (const std::invalid_argument&) {
      flag = true;
    }
  }(net, link, threw));
  engine.run();
  EXPECT_TRUE(threw);
  EXPECT_EQ(engine.now(), 0.0);  // refused before the latency leg
  EXPECT_EQ(net.active_flow_count(), 0u);
}

// A network destroyed while its completion timer is armed takes the timer
// with it: nothing is left to fire into freed memory (the sanitizer build
// runs these under ASan). start_flow re-solves in place, so the armed
// completion timer is the only event it leaves queued, whether the network
// dies before the engine runs or mid-run.
TEST(FluidChurn, DestroyedWhileTimerArmedLeavesNothingToFire) {
  ms::Engine engine;
  auto net = std::make_unique<ms::FluidNetwork>(engine);
  const auto link = net->add_link({"l", 100.0, 0.0});
  (void)net->start_flow({link}, 1000.0);  // would complete at t = 10
  EXPECT_EQ(engine.queued_event_count(), 1u);  // the armed timer
  engine.schedule_callback(5.0, [&] {
    EXPECT_EQ(engine.queued_event_count(), 1u);  // the armed timer
    net.reset();
    EXPECT_EQ(engine.queued_event_count(), 0u);
  });
  // Only the callback runs; no timer firing.
  EXPECT_EQ(engine.run(), 1u);
  EXPECT_EQ(engine.now(), 5.0);
}

TEST(FluidChurn, DestroyedWhileResolvePendingLeavesNothingToFire) {
  // Destroyed in the instant after a flow change, before the engine runs:
  // the change was re-solved in place, so only the completion timer is
  // queued, and destroying the network disarms it.
  ms::Engine engine;
  auto net = std::make_unique<ms::FluidNetwork>(engine);
  const auto link = net->add_link({"l", 100.0, 0.0});
  (void)net->start_flow({link}, 1000.0);
  EXPECT_EQ(engine.queued_event_count(), 1u);
  net.reset();
  EXPECT_EQ(engine.queued_event_count(), 0u);
  EXPECT_EQ(engine.run(), 0u);
}
