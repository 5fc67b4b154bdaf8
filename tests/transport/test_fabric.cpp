#include "mpath/transport/fabric.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "mpath/pipeline/channels.hpp"
#include "mpath/topo/system.hpp"
#include "mpath/util/units.hpp"

namespace mg = mpath::gpusim;
namespace mp = mpath::pipeline;
namespace ms = mpath::sim;
namespace mt = mpath::topo;
namespace mx = mpath::transport;
using namespace mpath::util::literals;

namespace {

struct Fixture {
  mt::System sys = [] {
    auto s = mt::make_beluga();
    s.costs.jitter_rel = 0;
    return s;
  }();
  ms::Engine engine;
  ms::FluidNetwork net{engine};
  mg::GpuRuntime rt{sys, engine, net};
  mp::PipelineEngine pipe{rt};
  mp::SinglePathChannel channel{pipe};
  mx::Fabric fabric{rt, channel};
  std::vector<mt::DeviceId> gpus = sys.topology.gpus();

  Fixture() {
    fabric.add_worker(0, gpus[0]);
    fabric.add_worker(1, gpus[1]);
  }
};

}  // namespace

TEST(Fabric, WorkerRegistration) {
  Fixture f;
  EXPECT_EQ(f.fabric.worker_count(), 2);
  EXPECT_EQ(f.fabric.worker(0).rank(), 0);
  EXPECT_EQ(f.fabric.worker(1).device(), f.gpus[1]);
  EXPECT_THROW((void)f.fabric.worker(5), std::out_of_range);
  EXPECT_THROW(f.fabric.add_worker(5, f.gpus[0]), std::invalid_argument);
}

TEST(Fabric, SendThenRecvDelivers) {
  Fixture f;
  mg::DeviceBuffer src(f.gpus[0], 1_MiB), dst(f.gpus[1], 1_MiB);
  src.fill_pattern(21);
  f.engine.spawn(f.fabric.worker(0).send(1, src, 0, 1_MiB, 7), "send");
  f.engine.spawn(f.fabric.worker(1).recv(0, dst, 0, 1_MiB, 7), "recv");
  f.engine.run();
  EXPECT_TRUE(dst.same_content(src));
  EXPECT_EQ(f.fabric.messages_sent(), 1u);
  EXPECT_EQ(f.fabric.bytes_sent(), 1_MiB);
}

TEST(Fabric, RecvPostedBeforeSendAlsoDelivers) {
  Fixture f;
  mg::DeviceBuffer src(f.gpus[0], 1_MiB), dst(f.gpus[1], 1_MiB);
  src.fill_pattern(22);
  f.engine.spawn([](Fixture& fx, mg::DeviceBuffer& s) -> ms::Task<void> {
    co_await fx.engine.delay(1e-3);  // send strictly after the recv posts
    co_await fx.fabric.worker(0).send(1, s, 0, 1_MiB, 7);
  }(f, src), "late-send");
  f.engine.spawn(f.fabric.worker(1).recv(0, dst, 0, 1_MiB, 7), "recv");
  f.engine.run();
  EXPECT_TRUE(dst.same_content(src));
}

TEST(Fabric, TagsKeepMessagesApart) {
  Fixture f;
  mg::DeviceBuffer a(f.gpus[0], 64), b(f.gpus[0], 64);
  mg::DeviceBuffer ra(f.gpus[1], 64), rb(f.gpus[1], 64);
  a.fill_pattern(1);
  b.fill_pattern(2);
  // Send tag 2 first, but receive tag 1 into ra.
  f.engine.spawn(f.fabric.worker(0).send(1, b, 0, 64, 2), "send-b");
  f.engine.spawn(f.fabric.worker(0).send(1, a, 0, 64, 1), "send-a");
  f.engine.spawn(f.fabric.worker(1).recv(0, ra, 0, 64, 1), "recv-1");
  f.engine.spawn(f.fabric.worker(1).recv(0, rb, 0, 64, 2), "recv-2");
  f.engine.run();
  EXPECT_TRUE(ra.same_content(a));
  EXPECT_TRUE(rb.same_content(b));
}

TEST(Fabric, SameTagMatchesInFifoOrder) {
  Fixture f;
  mg::DeviceBuffer a(f.gpus[0], 64), b(f.gpus[0], 64);
  mg::DeviceBuffer r1(f.gpus[1], 64), r2(f.gpus[1], 64);
  a.fill_pattern(3);
  b.fill_pattern(4);
  f.engine.spawn(f.fabric.worker(0).send(1, a, 0, 64, 5), "send-a");
  f.engine.spawn(f.fabric.worker(0).send(1, b, 0, 64, 5), "send-b");
  f.engine.spawn(f.fabric.worker(1).recv(0, r1, 0, 64, 5), "recv-1");
  f.engine.spawn(f.fabric.worker(1).recv(0, r2, 0, 64, 5), "recv-2");
  f.engine.run();
  EXPECT_TRUE(r1.same_content(a));
  EXPECT_TRUE(r2.same_content(b));
}

TEST(Fabric, WildcardsMatchAnything) {
  Fixture f;
  mg::DeviceBuffer src(f.gpus[0], 64), dst(f.gpus[1], 64);
  src.fill_pattern(23);
  f.engine.spawn(f.fabric.worker(0).send(1, src, 0, 64, 42), "send");
  f.engine.spawn(
      f.fabric.worker(1).recv(mx::kAnySource, dst, 0, 64, mx::kAnyTag),
      "recv");
  f.engine.run();
  EXPECT_TRUE(dst.same_content(src));
}

TEST(Fabric, EagerVsRendezvousCounting) {
  Fixture f;
  mg::DeviceBuffer small_s(f.gpus[0], 1_KiB), small_d(f.gpus[1], 1_KiB);
  mg::DeviceBuffer big_s(f.gpus[0], 1_MiB), big_d(f.gpus[1], 1_MiB);
  f.engine.spawn(f.fabric.worker(0).send(1, small_s, 0, 1_KiB, 1), "s1");
  f.engine.spawn(f.fabric.worker(1).recv(0, small_d, 0, 1_KiB, 1), "r1");
  f.engine.spawn(f.fabric.worker(0).send(1, big_s, 0, 1_MiB, 2), "s2");
  f.engine.spawn(f.fabric.worker(1).recv(0, big_d, 0, 1_MiB, 2), "r2");
  f.engine.run();
  EXPECT_EQ(f.fabric.eager_count(), 1u);
  EXPECT_EQ(f.fabric.rendezvous_count(), 1u);
  // Rendezvous opened an IPC handle for the sender to the recv buffer.
  EXPECT_TRUE(f.rt.ipc_cached(f.gpus[0], big_d));
  EXPECT_FALSE(f.rt.ipc_cached(f.gpus[0], small_d));
}

TEST(Fabric, SecondLargeSendReusesIpcHandle) {
  Fixture f;
  mg::DeviceBuffer src(f.gpus[0], 1_MiB), dst(f.gpus[1], 1_MiB);
  double t1 = -1, t2 = -1;
  f.engine.spawn([](Fixture& fx, mg::DeviceBuffer& s, mg::DeviceBuffer& d,
                    double& first, double& second) -> ms::Task<void> {
    double start = fx.engine.now();
    co_await fx.fabric.worker(0).send(1, s, 0, 1_MiB, 1);
    first = fx.engine.now() - start;
    start = fx.engine.now();
    co_await fx.fabric.worker(0).send(1, s, 0, 1_MiB, 2);
    second = fx.engine.now() - start;
    (void)d;
  }(f, src, dst, t1, t2), "sender");
  f.engine.spawn([](Fixture& fx, mg::DeviceBuffer& d) -> ms::Task<void> {
    co_await fx.fabric.worker(1).recv(0, d, 0, 1_MiB, 1);
    co_await fx.fabric.worker(1).recv(0, d, 0, 1_MiB, 2);
  }(f, dst), "receiver");
  f.engine.run();
  // First transfer pays the IPC open (~140us on Beluga).
  EXPECT_GT(t1, t2 + 100e-6);
}

// A same-instant burst of eager sends shares delivery wake-gates: the
// fabric schedules one engine callback per distinct deadline instead of one
// per message. The shared wake must not skew timing: every payload copy
// starts at the same instant, so with max-min fair bandwidth sharing the
// whole burst completes simultaneously — and no earlier than a lone send,
// which pays the same eager overhead but keeps the channel to itself.
TEST(Fabric, EagerBurstCoalescesWakeupsWithoutTimingDrift) {
  auto lone = [] {
    Fixture f;
    mg::DeviceBuffer src(f.gpus[0], 1_KiB), dst(f.gpus[1], 1_KiB);
    src.fill_pattern(40);
    double done = -1.0;
    f.engine.spawn(f.fabric.worker(0).send(1, src, 0, 1_KiB, 0), "s");
    f.engine.spawn([](Fixture& fx, mg::DeviceBuffer& d,
                      double& out) -> ms::Task<void> {
      co_await fx.fabric.worker(1).recv(0, d, 0, 1_KiB, 0);
      out = fx.engine.now();
    }(f, dst, done), "r");
    f.engine.run();
    return done;
  }();
  ASSERT_GT(lone, 0.0);

  const int n = 8;
  Fixture f;
  std::vector<std::unique_ptr<mg::DeviceBuffer>> srcs, dsts;
  std::vector<double> done(static_cast<std::size_t>(n), -1.0);
  for (int i = 0; i < n; ++i) {
    srcs.push_back(std::make_unique<mg::DeviceBuffer>(f.gpus[0], 1_KiB));
    dsts.push_back(std::make_unique<mg::DeviceBuffer>(f.gpus[1], 1_KiB));
    srcs.back()->fill_pattern(static_cast<std::uint64_t>(41 + i));
  }
  for (int i = 0; i < n; ++i) {
    f.engine.spawn(f.fabric.worker(0).send(1, *srcs[static_cast<std::size_t>(
                                               i)],
                                           0, 1_KiB, i),
                   "s");
    f.engine.spawn([](Fixture& fx, mg::DeviceBuffer& d, int tag,
                      double& out) -> ms::Task<void> {
      co_await fx.fabric.worker(1).recv(0, d, 0, 1_KiB, tag);
      out = fx.engine.now();
    }(f, *dsts[static_cast<std::size_t>(i)], i, done[static_cast<std::size_t>(
                                                    i)]),
                   "r");
  }
  f.engine.run();
  for (int i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(done[static_cast<std::size_t>(i)], done[0])
        << "recv " << i;
    EXPECT_GE(done[static_cast<std::size_t>(i)], lone) << "recv " << i;
    EXPECT_TRUE(dsts[static_cast<std::size_t>(i)]->same_content(
        *srcs[static_cast<std::size_t>(i)]));
  }
  EXPECT_GE(f.fabric.wakeups_coalesced(),
            static_cast<std::uint64_t>(n) - 1);
  EXPECT_LE(f.fabric.wakeups_scheduled(), 3u);
}

TEST(Fabric, TruncationIsAnError) {
  Fixture f;
  mg::DeviceBuffer src(f.gpus[0], 128), dst(f.gpus[1], 128);
  bool send_threw = false;
  // Post the recv first so the (oversized) send arrives second, detects
  // the truncation and throws; the recv then stays pending forever, which
  // the engine reports as a deadlock.
  f.engine.spawn(f.fabric.worker(1).recv(0, dst, 0, 64, 1), "recv");
  f.engine.spawn([](Fixture& fx, mg::DeviceBuffer& s,
                    bool& threw) -> ms::Task<void> {
    co_await fx.engine.delay(1e-3);
    try {
      co_await fx.fabric.worker(0).send(1, s, 0, 128, 1);
    } catch (const std::runtime_error&) {
      threw = true;
    }
  }(f, src, send_threw), "send");
  EXPECT_THROW(f.engine.run(), ms::SimError);
  EXPECT_TRUE(send_threw);
}

TEST(Fabric, WindowedMessagesAllComplete) {
  Fixture f;
  constexpr int kWindow = 16;
  mg::DeviceBuffer src(f.gpus[0], 1_MiB), dst(f.gpus[1], 1_MiB);
  src.fill_pattern(29);
  int sends_done = 0, recvs_done = 0;
  for (int w = 0; w < kWindow; ++w) {
    f.engine.spawn([](Fixture& fx, mg::DeviceBuffer& s, int tag,
                      int& done) -> ms::Task<void> {
      co_await fx.fabric.worker(0).send(1, s, 0, 1_MiB, tag);
      ++done;
    }(f, src, w, sends_done), "send");
    f.engine.spawn([](Fixture& fx, mg::DeviceBuffer& d, int tag,
                      int& done) -> ms::Task<void> {
      co_await fx.fabric.worker(1).recv(0, d, 0, 1_MiB, tag);
      ++done;
    }(f, dst, w, recvs_done), "recv");
  }
  f.engine.run();
  EXPECT_EQ(sends_done, kWindow);
  EXPECT_EQ(recvs_done, kWindow);
  EXPECT_TRUE(dst.same_content(src));
}

TEST(Fabric, NegativeSendTagRejected) {
  Fixture f;
  mg::DeviceBuffer src(f.gpus[0], 64);
  bool threw = false;
  f.engine.spawn([](Fixture& fx, mg::DeviceBuffer& s,
                    bool& out) -> ms::Task<void> {
    try {
      co_await fx.fabric.worker(0).send(1, s, 0, 64, -3);
    } catch (const std::invalid_argument&) {
      out = true;
    }
  }(f, src, threw), "send");
  f.engine.run();
  EXPECT_TRUE(threw);
}

TEST(Fabric, BadRecvArgumentsRejected) {
  Fixture f;
  mg::DeviceBuffer dst(f.gpus[1], 64);
  int bad_ranks = 0, bad_tags = 0;
  f.engine.spawn([](Fixture& fx, mg::DeviceBuffer& d, int& ranks,
                    int& tags) -> ms::Task<void> {
    for (const int src : {2, -2}) {
      try {
        co_await fx.fabric.worker(1).recv(src, d, 0, 64, 1);
      } catch (const std::out_of_range&) {
        ++ranks;
      }
    }
    try {
      co_await fx.fabric.worker(1).recv(0, d, 0, 64, -2);
    } catch (const std::invalid_argument&) {
      ++tags;
    }
  }(f, dst, bad_ranks, bad_tags), "recv");
  f.engine.run();
  EXPECT_EQ(bad_ranks, 2);
  EXPECT_EQ(bad_tags, 1);
  EXPECT_EQ(f.fabric.worker(1).posted_count(), 0u);
}

namespace {

// A send whose peer never posts the matching recv parks, rendezvous and
// eager sizes alike; Engine::run then reports the blocked process as a
// deadlock, and the sender itself never sees a TransferError.
void expect_unmatched_send_deadlock(std::size_t bytes) {
  SCOPED_TRACE(testing::Message() << bytes << " B");
  Fixture f;
  mg::DeviceBuffer src(f.gpus[0], bytes);
  bool transfer_error = false;
  f.engine.spawn([](Fixture& fx, mg::DeviceBuffer& s, std::size_t n,
                    bool& err) -> ms::Task<void> {
    try {
      co_await fx.fabric.worker(0).send(1, s, 0, n, 3);
    } catch (const mg::TransferError&) {
      err = true;
    }
  }(f, src, bytes, transfer_error), "unmatched-send");
  try {
    f.engine.run();
    ADD_FAILURE() << "no deadlock reported";
  } catch (const ms::SimError& e) {
    EXPECT_NE(std::string(e.what()).find("unmatched-send"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(transfer_error);
  EXPECT_EQ(f.fabric.worker(1).unexpected_count(), 1u);
}

}  // namespace

TEST(Fabric, UnmatchedSendIsReportedAsDeadlock) {
  for (const std::size_t bytes : {4_MiB, 1_KiB}) {
    expect_unmatched_send_deadlock(bytes);
  }
}

// The same two cases under the names they had while the fabric had a
// rendezvous timeout: eager sends were exempt from it, and a timeout of 0
// (now the only behaviour) left an unmatched send to the deadlock report.
TEST(Timeouts, EagerMessagesAreExempt) {
  expect_unmatched_send_deadlock(1_KiB);
}

TEST(Timeouts, ZeroTimeoutKeepsLegacyBehaviour) {
  expect_unmatched_send_deadlock(4_MiB);
}
