// Fault injection over the fluid network: dynamic link-capacity changes
// (degrade / sever / restore), stalled-flow semantics, component-local
// re-solves under faults, the FaultInjector scheduling front-end, and an
// env-gated churn soak (MPATH_NIGHTLY_SOAK=1).
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "mpath/sim/fault.hpp"
#include "mpath/sim/fluid.hpp"
#include "mpath/sim/trace.hpp"
#include "mpath/util/rng.hpp"

namespace ms = mpath::sim;

namespace {

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

/// `change` must throw std::invalid_argument naming `link`.
template <typename Fn>
void expect_refused(Fn&& change, const std::string& link) {
  try {
    change();
    ADD_FAILURE() << "a non-finite parameter of " << link << " was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(link), std::string::npos)
        << e.what();
  }
}

}  // namespace

// A capacity cut mid-flight rescales the remaining bytes analytically:
// 1000 B at 100 B/s for 2 s (200 delivered), then 50 B/s -> 2 + 800/50.
TEST(Fault, SetLinkCapacityRescalesRates) {
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  const auto link = net.add_link({"l", 100.0, 0.0});
  double finish = -1.0;
  engine.spawn(timed_transfer(engine, net, {link}, 1000.0, finish));
  engine.schedule_callback(2.0, [&] { net.set_link_capacity(link, 50.0); });
  engine.run();
  EXPECT_NEAR(finish, 18.0, 1e-9);
  EXPECT_NEAR(net.link_bytes_transferred(link), 1000.0, 1e-6);
  EXPECT_EQ(net.stats().capacity_changes, 1u);
}

// Severing stalls the flow at rate 0 (still live, not cancelled); restoring
// resumes it with the pre-fault remainder intact.
TEST(Fault, SeverStallsAndRestoreResumes) {
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  const auto link = net.add_link({"l", 100.0, 0.0});
  double finish = -1.0;
  engine.spawn(timed_transfer(engine, net, {link}, 1000.0, finish));
  engine.schedule_callback(2.0, [&] { net.set_link_capacity(link, 0.0); });
  engine.schedule_callback(3.0, [&] {
    EXPECT_EQ(net.stalled_flow_count(), 1u);
    EXPECT_EQ(net.active_flow_count(), 1u);
    EXPECT_NEAR(net.link_allocated_rate(link), 0.0, 1e-12);
  });
  engine.schedule_callback(5.0, [&] { net.set_link_capacity(link, 100.0); });
  engine.run();
  // 200 B before the sever, 3 s stalled, 800 B after the restore.
  EXPECT_NEAR(finish, 2.0 + 3.0 + 8.0, 1e-9);
  EXPECT_EQ(net.stalled_flow_count(), 0u);
}

// A sever with no restore leaves the flow parked forever: the engine must
// report a deadlock instead of hanging or mis-completing.
TEST(Fault, SeverWithoutRestoreDeadlocks) {
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  const auto link = net.add_link({"l", 100.0, 0.0});
  double finish = -1.0;
  engine.spawn(timed_transfer(engine, net, {link}, 1000.0, finish));
  engine.schedule_callback(2.0, [&] { net.set_link_capacity(link, 0.0); });
  EXPECT_THROW(engine.run(), ms::SimError);
  EXPECT_LT(finish, 0.0);
  EXPECT_EQ(net.stalled_flow_count(), 1u);
}

// Cancelling a stalled flow is the documented way to abort it; the network
// must drain cleanly afterwards.
TEST(Fault, CancelAbortsStalledFlow) {
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  const auto link = net.add_link({"l", 100.0, 0.0});
  ms::FlowId id = ms::kInvalidFlow;
  engine.schedule_callback(0.0, [&] { id = net.start_flow({link}, 1000.0); });
  engine.schedule_callback(2.0, [&] { net.set_link_capacity(link, 0.0); });
  engine.schedule_callback(4.0, [&] { EXPECT_TRUE(net.cancel_flow(id)); });
  engine.run();
  EXPECT_EQ(net.active_flow_count(), 0u);
  EXPECT_EQ(net.stalled_flow_count(), 0u);
  EXPECT_EQ(net.stats().cancelled_flows, 1u);
  EXPECT_NEAR(net.link_bytes_transferred(link), 200.0, 1e-6);
}

TEST(Fault, SetLinkCapacityValidatesArguments) {
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  const auto link = net.add_link({"l", 100.0, 0.0});
  EXPECT_THROW(net.set_link_capacity(static_cast<ms::LinkId>(7), 10.0),
               std::out_of_range);
  EXPECT_THROW(net.set_link_capacity(link, -1.0), std::invalid_argument);
}

// NaN passes a `<= 0` or `< 0` check and an infinite capacity never drains
// a flow: at either, the flows on the link would stay live with no
// completion ahead. Both are refused, with the link named.
TEST(Fault, NonFiniteLinkParametersAreRefused) {
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  const auto link = net.add_link({"victim", 100.0, 0.0});
  ms::FaultInjector inj(engine, net);
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), inf,
                           -inf}) {
    SCOPED_TRACE(bad);
    expect_refused([&] { (void)net.add_link({"new-cap", bad, 0.0}); },
                   "new-cap");
    expect_refused([&] { (void)net.add_link({"new-lat", 1.0, bad}); },
                   "new-lat");
    expect_refused([&] { net.set_link_capacity(link, bad); }, "victim");
    expect_refused([&] { inj.set_capacity_at(0.0, link, bad); }, "victim");
    expect_refused([&] { inj.degrade_at(0.0, link, bad); }, "victim");
    ms::FaultInjector::RandomPlanOptions opts;
    opts.max_factor = bad;
    EXPECT_THROW(inj.random_plan({&link, 1}, opts, 1), std::invalid_argument);
  }
  EXPECT_EQ(net.link_count(), 1u);
  EXPECT_EQ(net.link(link).capacity_bps, 100.0);
  EXPECT_EQ(inj.scheduled_count(), 0u);
  EXPECT_EQ(engine.queued_event_count(), 0u);
}

// Random churn with random capacity changes (including paired sever /
// restore cycles) audited by the full-resolve oracle after every solve.
TEST(Fault, RandomChurnWithCapacityChangesMatchesOracle) {
  mpath::util::Rng rng(4242);
  const int nlinks = 8;
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  net.set_self_check(true);
  std::vector<ms::LinkId> links;
  std::vector<double> base;
  for (int l = 0; l < nlinks; ++l) {
    base.push_back(rng.uniform(50.0, 500.0));
    links.push_back(net.add_link({"l" + std::to_string(l), base.back(), 0.0}));
  }
  // 150 random flows over the shared links.
  const int nflows = 150;
  std::vector<double> finishes(static_cast<std::size_t>(nflows), -1.0);
  for (int i = 0; i < nflows; ++i) {
    std::vector<ms::LinkId> route;
    const int hops = 1 + static_cast<int>(rng.uniform(0.0, 2.999));
    for (int h = 0; h < hops; ++h) {
      route.push_back(links[static_cast<std::size_t>(
          rng.uniform_int(0, nlinks - 1))]);
    }
    engine.spawn(delayed_transfer(engine, net, rng.uniform(0.0, 10.0),
                                  std::move(route), rng.uniform(1.0, 2000.0),
                                  finishes[static_cast<std::size_t>(i)]));
  }
  // 40 capacity events; every sever is paired with a restore so no flow
  // stays stalled at the end.
  for (int i = 0; i < 40; ++i) {
    const auto idx = static_cast<std::size_t>(rng.uniform_int(0, nlinks - 1));
    const double t = rng.uniform(0.0, 15.0);
    if (rng.uniform(0.0, 1.0) < 0.3) {
      engine.schedule_callback(
          t, [&net, &links, idx] { net.set_link_capacity(links[idx], 0.0); });
      engine.schedule_callback(t + rng.uniform(0.1, 2.0),
                               [&net, &links, &base, idx] {
                                 net.set_link_capacity(links[idx], base[idx]);
                               });
    } else {
      const double factor = rng.uniform(0.1, 1.0);
      engine.schedule_callback(t, [&net, &links, &base, idx, factor] {
        net.set_link_capacity(links[idx], base[idx] * factor);
      });
    }
  }
  engine.run();
  EXPECT_EQ(net.active_flow_count(), 0u);
  EXPECT_EQ(net.stalled_flow_count(), 0u);
  EXPECT_GT(net.stats().capacity_changes, 40u);  // 40 events, severs paired
}

// Faults in one component must not spill solver work into the other:
// with two disjoint link pairs, no resolve ever touches all four links.
TEST(Fault, CapacityChangeResolvesOnlyAffectedComponent) {
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  const auto a0 = net.add_link({"a0", 100.0, 0.0});
  const auto a1 = net.add_link({"a1", 100.0, 0.0});
  const auto b0 = net.add_link({"b0", 100.0, 0.0});
  const auto b1 = net.add_link({"b1", 100.0, 0.0});
  double fa = -1.0, fb = -1.0;
  engine.spawn(timed_transfer(engine, net, {a0, a1}, 400.0, fa));
  engine.spawn(delayed_transfer(engine, net, 0.5, {b0, b1}, 400.0, fb));
  // Halve component A's bottleneck at t=2: A slows, B is untouched.
  engine.schedule_callback(2.0, [&] { net.set_link_capacity(a0, 50.0); });
  engine.run();
  EXPECT_NEAR(fa, 2.0 + 200.0 / 50.0, 1e-9);
  EXPECT_NEAR(fb, 4.5, 1e-9);
  const auto& st = net.stats();
  EXPECT_EQ(st.full_resolves, 0u);
  EXPECT_LE(st.links_resolved, 2 * st.resolves);
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

TEST(FaultInjector, ScriptedDegradeAndRestoreUseBaseline) {
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  const auto link = net.add_link({"l", 200.0, 0.0});
  ms::FaultInjector inj(engine, net);
  inj.degrade_at(1.0, link, 0.25);
  inj.restore_at(2.0, link);
  inj.sever_at(3.0, link);
  inj.restore_at(4.0, link);
  EXPECT_EQ(inj.scheduled_count(), 4u);
  EXPECT_NEAR(inj.baseline(link), 200.0, 1e-12);

  double finish = -1.0;
  engine.spawn(timed_transfer(engine, net, {link}, 1000.0, finish));
  engine.run();

  ASSERT_EQ(inj.applied().size(), 4u);
  EXPECT_NEAR(inj.applied()[0].t, 1.0, 1e-12);
  EXPECT_NEAR(inj.applied()[0].capacity_bps, 50.0, 1e-12);
  EXPECT_NEAR(inj.applied()[1].capacity_bps, 200.0, 1e-12);
  EXPECT_NEAR(inj.applied()[2].capacity_bps, 0.0, 1e-12);
  EXPECT_NEAR(inj.applied()[3].capacity_bps, 200.0, 1e-12);
  // 200 B in [0,1), 50 B in [1,2), 200 B in [2,3), stalled in [3,4),
  // remaining 550 B after t=4 at 200 B/s.
  EXPECT_NEAR(finish, 4.0 + 550.0 / 200.0, 1e-9);
}

TEST(FaultInjector, FlapAlternatesDownAndUp) {
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  const auto link = net.add_link({"l", 100.0, 0.0});
  ms::FaultInjector inj(engine, net);
  inj.flap(link, /*first_down=*/1.0, /*down_for=*/0.5, /*up_for=*/0.5,
           /*cycles=*/3);
  EXPECT_EQ(inj.scheduled_count(), 6u);
  double finish = -1.0;
  engine.spawn(timed_transfer(engine, net, {link}, 500.0, finish));
  engine.run();
  ASSERT_EQ(inj.applied().size(), 6u);
  for (std::size_t i = 0; i < inj.applied().size(); ++i) {
    EXPECT_NEAR(inj.applied()[i].capacity_bps, i % 2 == 0 ? 0.0 : 100.0,
                1e-12);
  }
  // 100 B by t=1; three 0.5 s outages add 1.5 s total stall.
  EXPECT_NEAR(finish, 5.0 + 1.5, 1e-9);
}

TEST(FaultInjector, RandomPlanIsDeterministicPerSeed) {
  auto run_plan = [](std::uint64_t seed) {
    ms::Engine engine;
    ms::FluidNetwork net(engine);
    std::vector<ms::LinkId> links;
    for (int l = 0; l < 4; ++l) {
      links.push_back(net.add_link({"l" + std::to_string(l), 100.0, 0.0}));
    }
    ms::FaultInjector inj(engine, net);
    ms::FaultInjector::RandomPlanOptions opts;
    opts.faults = 12;
    opts.horizon = 5.0;
    inj.random_plan(links, opts, seed);
    // Keep one long flow per link alive so events always see traffic.
    std::vector<double> finishes(links.size(), -1.0);
    for (std::size_t i = 0; i < links.size(); ++i) {
      engine.spawn(
          timed_transfer(engine, net, {links[i]}, 2000.0, finishes[i]));
    }
    engine.run();
    return inj.applied();
  };
  const auto a = run_plan(11);
  const auto b = run_plan(11);
  const auto c = run_plan(12);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_GT(a.size(), 0u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].link, b[i].link);
    EXPECT_NEAR(a[i].t, b[i].t, 1e-12);
    EXPECT_NEAR(a[i].capacity_bps, b[i].capacity_bps, 1e-12);
  }
  // A different seed yields a different schedule (vanishingly unlikely to
  // collide on every event time).
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].link != c[i].link || a[i].t != c[i].t;
  }
  EXPECT_TRUE(differs);
}

// Target selection is utilization-weighted: with one link saturated and the
// rest idle, the busy link (weight 0.25 idle floor + 1) must draw far more
// faults than any idle link (weight 0.25).
TEST(FaultInjector, RandomPlanPrefersUtilizedLinks) {
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  std::vector<ms::LinkId> links;
  for (int l = 0; l < 4; ++l) {
    links.push_back(net.add_link({"l" + std::to_string(l), 100.0, 0.0}));
  }
  ms::FaultInjector inj(engine, net);
  ms::FaultInjector::RandomPlanOptions opts;
  opts.faults = 60;
  opts.horizon = 5.0;
  opts.sever_probability = 0.0;
  opts.min_factor = 0.5;  // keep the busy link's utilization at 1
  opts.max_factor = 0.5;
  opts.restore_probability = 0.0;  // applied() holds exactly the degrades
  inj.random_plan(links, opts, 17);
  // One flow saturates links[0] for the whole horizon; the others stay idle.
  double finish = -1.0;
  engine.spawn(timed_transfer(engine, net, {links[0]}, 5000.0, finish));
  engine.run();
  ASSERT_EQ(inj.applied().size(), 60u);
  std::vector<int> hits(links.size(), 0);
  for (const auto& a : inj.applied()) {
    ++hits[static_cast<std::size_t>(a.link)];
  }
  for (std::size_t l = 1; l < links.size(); ++l) {
    EXPECT_GT(hits[0], hits[l]) << "idle link " << l << " out-drew the busy"
                                << " one (" << hits[l] << " vs " << hits[0]
                                << ")";
  }
  EXPECT_GT(hits[0], 30);  // expected share is 1.25/2.0 of 60 draws
}

TEST(FaultInjector, ValidatesArguments) {
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  const auto link = net.add_link({"l", 100.0, 0.0});
  ms::FaultInjector inj(engine, net);
  EXPECT_THROW(inj.set_capacity_at(0.0, link, -5.0), std::invalid_argument);
  EXPECT_THROW(inj.degrade_at(0.0, link, -0.5), std::invalid_argument);
  engine.schedule_callback(1.0, [&] {
    EXPECT_THROW(inj.set_capacity_at(0.5, link, 10.0), std::invalid_argument);
  });
  double finish = -1.0;
  engine.spawn(timed_transfer(engine, net, {link}, 300.0, finish));
  engine.run();
  EXPECT_EQ(inj.applied().size(), 0u);
}

TEST(FaultInjector, EmitsTracerInstants) {
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  ms::Tracer tracer;
  const auto link = net.add_link({"l", 100.0, 0.0});
  ms::FaultInjector inj(engine, net);
  inj.set_tracer(&tracer);
  inj.degrade_at(1.0, link, 0.5);
  inj.restore_at(2.0, link);
  double finish = -1.0;
  engine.spawn(timed_transfer(engine, net, {link}, 400.0, finish));
  engine.run();
  EXPECT_GE(tracer.instant_count(), 2u);
}

// ---------------------------------------------------------------------------
// cancel_flow
// ---------------------------------------------------------------------------

// Cancel churn with the oracle active: every re-solve after a cancel must
// still match the whole-network water-filling.
TEST(FaultCancel, CancelChurnUnderSelfCheck) {
  mpath::util::Rng rng(271);
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  net.set_self_check(true);
  std::vector<ms::LinkId> links;
  for (int l = 0; l < 6; ++l) {
    links.push_back(
        net.add_link({"l" + std::to_string(l), rng.uniform(50.0, 300.0), 0.0}));
  }
  std::vector<ms::FlowId> ids(80, ms::kInvalidFlow);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto idx = static_cast<std::size_t>(rng.uniform_int(0, 5));
    const double bytes = rng.uniform(10.0, 1000.0);
    const double start = rng.uniform(0.0, 5.0);
    engine.schedule_callback(start, [&net, &ids, &links, i, idx, bytes] {
      ids[i] = net.start_flow({links[idx]}, bytes);
    });
    if (rng.uniform(0.0, 1.0) < 0.4) {
      engine.schedule_callback(start + rng.uniform(0.0, 3.0), [&net, &ids, i] {
        (void)net.cancel_flow(ids[i]);
      });
    }
  }
  engine.run();
  EXPECT_EQ(net.active_flow_count(), 0u);
  EXPECT_GT(net.stats().cancelled_flows, 0u);
}

// Byte conservation with cancellation: the survivor's full size plus the
// cancelled flow's partial delivery is exactly what the link moved.
TEST(FaultCancel, SurvivorBytesConservedExactly) {
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  const auto link = net.add_link({"l", 100.0, 0.0});
  double survivor_finish = -1.0;
  engine.spawn(timed_transfer(engine, net, {link}, 600.0, survivor_finish));
  ms::FlowId victim = ms::kInvalidFlow;
  engine.schedule_callback(0.0,
                           [&] { victim = net.start_flow({link}, 600.0); });
  engine.schedule_callback(4.0, [&] { EXPECT_TRUE(net.cancel_flow(victim)); });
  engine.run();
  // 50/50 share for 4 s (200 B each), then the survivor's 400 B at full
  // rate: finish t = 8; link total = 600 + 200.
  EXPECT_NEAR(survivor_finish, 8.0, 1e-9);
  EXPECT_NEAR(net.link_bytes_transferred(link), 800.0, 1e-6);
}

// Cancelling an already-completed flow is a stale-handle no-op.
TEST(FaultCancel, CancelOfCompletedFlowReturnsFalse) {
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  const auto link = net.add_link({"l", 100.0, 0.0});
  ms::FlowId id = ms::kInvalidFlow;
  engine.schedule_callback(0.0, [&] { id = net.start_flow({link}, 100.0); });
  engine.schedule_callback(5.0, [&] {
    EXPECT_FALSE(net.cancel_flow(id));  // completed at t=1
  });
  engine.run();
  EXPECT_EQ(net.stats().cancelled_flows, 0u);
}

// ---------------------------------------------------------------------------
// Nightly churn soak (opt-in: MPATH_NIGHTLY_SOAK=1)
// ---------------------------------------------------------------------------

// Tens of thousands of flows over several disjoint components with random
// faults (every sever paired with a restore). Too slow for the default
// suite; run via  MPATH_NIGHTLY_SOAK=1 ./test_sim.
TEST(FaultSoak, NightlyChurnWithRandomFaults) {
  const char* gate = std::getenv("MPATH_NIGHTLY_SOAK");
  if (gate == nullptr || std::string(gate) != "1") {
    GTEST_SKIP() << "set MPATH_NIGHTLY_SOAK=1 to run the churn soak";
  }
  mpath::util::Rng rng(31337);
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  net.set_self_check(false);  // oracle is O(network) per solve — too slow here
  const int ncomponents = 4;
  const int links_per_comp = 6;
  std::vector<std::vector<ms::LinkId>> comps(ncomponents);
  std::vector<std::vector<double>> base(ncomponents);
  for (int c = 0; c < ncomponents; ++c) {
    for (int l = 0; l < links_per_comp; ++l) {
      base[static_cast<std::size_t>(c)].push_back(rng.uniform(50.0, 500.0));
      comps[static_cast<std::size_t>(c)].push_back(net.add_link(
          {"c" + std::to_string(c) + "l" + std::to_string(l),
           base[static_cast<std::size_t>(c)].back(), 0.0}));
    }
  }
  const int nflows = 40000;
  std::vector<double> finishes(static_cast<std::size_t>(nflows), -1.0);
  for (int i = 0; i < nflows; ++i) {
    const auto& pool = comps[static_cast<std::size_t>(
        rng.uniform_int(0, ncomponents - 1))];
    std::vector<ms::LinkId> route;
    const int hops = 1 + static_cast<int>(rng.uniform(0.0, 2.999));
    for (int h = 0; h < hops; ++h) {
      route.push_back(pool[static_cast<std::size_t>(
          rng.uniform_int(0, links_per_comp - 1))]);
    }
    engine.spawn(delayed_transfer(engine, net, rng.uniform(0.0, 100.0),
                                  std::move(route), rng.uniform(1.0, 500.0),
                                  finishes[static_cast<std::size_t>(i)]));
  }
  // 400 utilization-weighted fault events (100 per component) so the soak
  // preferentially hits the links carrying traffic; every fault restores.
  ms::FaultInjector inj(engine, net);
  ms::FaultInjector::RandomPlanOptions opts;
  opts.horizon = 120.0;
  opts.faults = 100;
  opts.min_factor = 0.05;
  opts.max_factor = 1.0;
  opts.sever_probability = 0.25;
  opts.restore_probability = 1.0;
  opts.min_duration = 0.05;
  opts.max_duration = 1.0;
  for (int c = 0; c < ncomponents; ++c) {
    inj.random_plan(comps[static_cast<std::size_t>(c)], opts,
                    31337u + static_cast<std::uint64_t>(c));
  }
  engine.run();
  EXPECT_EQ(inj.applied().size(), 800u);  // every fault paired with a restore
  EXPECT_EQ(net.active_flow_count(), 0u);
  EXPECT_EQ(net.stalled_flow_count(), 0u);
  for (double f : finishes) EXPECT_GE(f, 0.0);
  EXPECT_EQ(net.stats().full_resolves, 0u);  // components stay disjoint
}
