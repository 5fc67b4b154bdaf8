// Rendezvous watchdog: a large send or recv whose peer never shows up must
// abort with gpusim::TransferError instead of parking its coroutine forever
// (which would deadlock the simulation), while matched operations must never
// be disturbed by their stale timers.
#include <gtest/gtest.h>

#include <optional>

#include "mpath/pipeline/channels.hpp"
#include "mpath/topo/system.hpp"
#include "mpath/transport/fabric.hpp"
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
  mx::Fabric fabric;
  std::vector<mt::DeviceId> gpus = sys.topology.gpus();

  explicit Fixture(double timeout_s)
      : fabric(rt, channel, [timeout_s] {
          mx::TransportOptions o;
          o.rendezvous_timeout_s = timeout_s;
          return o;
        }()) {
    fabric.add_worker(0, gpus[0]);
    fabric.add_worker(1, gpus[1]);
  }
};

/// Run `op`, capturing a TransferError if it throws one.
ms::Task<void> capture(ms::Task<void> op,
                       std::optional<mg::TransferError::Info>& out) {
  try {
    co_await std::move(op);
  } catch (const mg::TransferError& e) {
    out = e.info();
  }
}

}  // namespace

TEST(Timeouts, UnmatchedRendezvousSendAborts) {
  Fixture f(/*timeout_s=*/0.01);
  mg::DeviceBuffer src(f.gpus[0], 4_MiB);
  std::optional<mg::TransferError::Info> err;
  f.engine.spawn(capture(f.fabric.worker(0).send(1, src, 0, 4_MiB, 3), err),
                 "send");
  f.engine.run();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->bytes_requested, 4_MiB);
  EXPECT_EQ(err->bytes_delivered, 0u);
  EXPECT_NEAR(err->elapsed_s, 0.01, 1e-9);
  EXPECT_EQ(f.fabric.rendezvous_timeouts(), 1u);
  // The parked entry is gone: a recv posted afterwards must not match it.
  EXPECT_EQ(f.fabric.worker(1).unexpected_count(), 0u);
  // The abort NACKs the peer: the clock runs until the control message
  // lands at the receiver (one eager overhead past the deadline), where it
  // is recorded for any future matching recv.
  EXPECT_NEAR(f.engine.now(), 0.01 + mx::kEagerOverheadS, 1e-9);
  EXPECT_EQ(f.fabric.nacks_sent(), 1u);
  EXPECT_EQ(f.fabric.worker(1).pending_nack_count(), 1u);
}

TEST(Timeouts, UnmatchedRendezvousRecvAborts) {
  Fixture f(/*timeout_s=*/0.02);
  mg::DeviceBuffer dst(f.gpus[1], 4_MiB);
  std::optional<mg::TransferError::Info> err;
  f.engine.spawn(capture(f.fabric.worker(1).recv(0, dst, 0, 4_MiB, 3), err),
                 "recv");
  f.engine.run();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->bytes_requested, 4_MiB);
  EXPECT_EQ(err->bytes_delivered, 0u);
  EXPECT_EQ(f.fabric.rendezvous_timeouts(), 1u);
  EXPECT_EQ(f.fabric.worker(1).posted_count(), 0u);
}

// A match that lands before the deadline completes normally; the stale
// timer later finds nothing to cancel and must not disturb anything.
TEST(Timeouts, MatchedBeforeDeadlineIsUndisturbed) {
  Fixture f(/*timeout_s=*/0.5);
  mg::DeviceBuffer src(f.gpus[0], 4_MiB), dst(f.gpus[1], 4_MiB);
  src.fill_pattern(33);
  std::optional<mg::TransferError::Info> send_err, recv_err;
  f.engine.spawn(capture(f.fabric.worker(0).send(1, src, 0, 4_MiB, 9),
                         send_err),
                 "send");
  f.engine.spawn([](Fixture& fx, mg::DeviceBuffer& d,
                    std::optional<mg::TransferError::Info>& e)
                     -> ms::Task<void> {
    co_await fx.engine.delay(0.01);  // recv arrives well inside the window
    co_await capture(fx.fabric.worker(1).recv(0, d, 0, 4_MiB, 9), e);
  }(f, dst, recv_err), "recv");
  f.engine.run();
  EXPECT_FALSE(send_err.has_value());
  EXPECT_FALSE(recv_err.has_value());
  EXPECT_TRUE(dst.same_content(src));
  EXPECT_EQ(f.fabric.rendezvous_timeouts(), 0u);
  // The stale timer still had to fire before the engine went quiet.
  EXPECT_GE(f.engine.now(), 0.5 - 1e-9);
}

// Eager-sized messages are exempt: the timeout applies only to rendezvous
// traffic, so a small unmatched send still parks (legacy deadlock
// detection reports it rather than a spurious timeout abort).
TEST(Timeouts, EagerMessagesAreExempt) {
  Fixture f(/*timeout_s=*/0.01);
  mg::DeviceBuffer src(f.gpus[0], 1_KiB);
  std::optional<mg::TransferError::Info> err;
  f.engine.spawn(capture(f.fabric.worker(0).send(1, src, 0, 1_KiB, 3), err),
                 "send");
  EXPECT_THROW(f.engine.run(), ms::SimError);
  EXPECT_FALSE(err.has_value());
  EXPECT_EQ(f.fabric.rendezvous_timeouts(), 0u);
}

// Symmetric failure, send side dies first: the send times out, the NACK is
// recorded at the receiver, and a recv posted later on the same channel
// fails immediately instead of parking through a full timeout of its own —
// both ranks observe a TransferError for the one failed exchange.
TEST(Timeouts, SendTimeoutNacksLateRecv) {
  Fixture f(/*timeout_s=*/0.01);
  mg::DeviceBuffer src(f.gpus[0], 4_MiB), dst(f.gpus[1], 4_MiB);
  std::optional<mg::TransferError::Info> send_err, recv_err;
  double recv_failed_at = -1;
  f.engine.spawn(capture(f.fabric.worker(0).send(1, src, 0, 4_MiB, 3),
                         send_err),
                 "send");
  f.engine.spawn([](Fixture& fx, mg::DeviceBuffer& d,
                    std::optional<mg::TransferError::Info>& e,
                    double& at) -> ms::Task<void> {
    co_await fx.engine.delay(0.02);  // well after the NACK landed
    co_await capture(fx.fabric.worker(1).recv(0, d, 0, 4_MiB, 3), e);
    at = fx.engine.now();
  }(f, dst, recv_err, recv_failed_at), "recv");
  f.engine.run();
  ASSERT_TRUE(send_err.has_value());
  ASSERT_TRUE(recv_err.has_value());
  EXPECT_EQ(recv_err->bytes_requested, 4_MiB);
  EXPECT_EQ(recv_err->bytes_delivered, 0u);
  EXPECT_NEAR(recv_failed_at, 0.02, 1e-9);  // failed fast, no second wait
  EXPECT_EQ(f.fabric.nacks_sent(), 1u);
  EXPECT_EQ(f.fabric.nacks_stale(), 0u);
  EXPECT_EQ(f.fabric.worker(1).pending_nack_count(), 0u);  // consumed
}

// A recv that parks inside the NACK's delivery window (after the timeout
// fired, before the control message landed) is killed by the delivery
// itself rather than by a fail-fast record.
TEST(Timeouts, SendTimeoutNacksParkedRecv) {
  Fixture f(/*timeout_s=*/0.01);
  mg::DeviceBuffer src(f.gpus[0], 4_MiB), dst(f.gpus[1], 4_MiB);
  std::optional<mg::TransferError::Info> send_err, recv_err;
  f.engine.spawn(capture(f.fabric.worker(0).send(1, src, 0, 4_MiB, 3),
                         send_err),
                 "send");
  f.engine.spawn([](Fixture& fx, mg::DeviceBuffer& d,
                    std::optional<mg::TransferError::Info>& e)
                     -> ms::Task<void> {
    // Past the 0.01 deadline but before the NACK lands at 0.01 + 1e-6.
    co_await fx.engine.delay(0.0100005);
    co_await capture(fx.fabric.worker(1).recv(0, d, 0, 4_MiB, 3), e);
  }(f, dst, recv_err), "recv");
  f.engine.run();
  ASSERT_TRUE(send_err.has_value());
  ASSERT_TRUE(recv_err.has_value());
  EXPECT_NEAR(recv_err->elapsed_s, 0.0000005, 1e-9);  // killed at delivery
  EXPECT_EQ(f.fabric.worker(1).posted_count(), 0u);
  EXPECT_EQ(f.fabric.worker(1).pending_nack_count(), 0u);
}

// Symmetric failure, recv side dies first: the sender's later matching send
// fails fast off the recorded NACK.
TEST(Timeouts, RecvTimeoutNacksLateSend) {
  Fixture f(/*timeout_s=*/0.01);
  mg::DeviceBuffer src(f.gpus[0], 4_MiB), dst(f.gpus[1], 4_MiB);
  std::optional<mg::TransferError::Info> send_err, recv_err;
  f.engine.spawn(capture(f.fabric.worker(1).recv(0, dst, 0, 4_MiB, 7),
                         recv_err),
                 "recv");
  f.engine.spawn([](Fixture& fx, mg::DeviceBuffer& s,
                    std::optional<mg::TransferError::Info>& e)
                     -> ms::Task<void> {
    co_await fx.engine.delay(0.05);
    co_await capture(fx.fabric.worker(0).send(1, s, 0, 4_MiB, 7), e);
  }(f, src, send_err), "send");
  f.engine.run();
  ASSERT_TRUE(recv_err.has_value());
  ASSERT_TRUE(send_err.has_value());
  EXPECT_EQ(send_err->bytes_requested, 4_MiB);
  EXPECT_EQ(f.fabric.nacks_sent(), 1u);
  EXPECT_EQ(f.fabric.worker(1).pending_nack_count(), 0u);
}

// Stale NACK: the channel re-matched (a newer send completed the exchange)
// between the timeout firing and the control message landing. The NACK
// must be dropped, not kill the healthy operation.
TEST(Timeouts, StaleNackIsIgnored) {
  Fixture f(/*timeout_s=*/0.01);
  mg::DeviceBuffer src1(f.gpus[0], 4_MiB), src2(f.gpus[0], 4_MiB);
  mg::DeviceBuffer dst(f.gpus[1], 4_MiB);
  src2.fill_pattern(77);
  std::optional<mg::TransferError::Info> err1, err2, recv_err;
  f.engine.spawn(capture(f.fabric.worker(0).send(1, src1, 0, 4_MiB, 3),
                         err1),
                 "send1");
  f.engine.spawn([](Fixture& fx, mg::DeviceBuffer& s,
                    std::optional<mg::TransferError::Info>& e)
                     -> ms::Task<void> {
    co_await fx.engine.delay(0.005);  // parks behind send1 (same channel)
    co_await capture(fx.fabric.worker(0).send(1, s, 0, 4_MiB, 3), e);
  }(f, src2, err2), "send2");
  f.engine.spawn([](Fixture& fx, mg::DeviceBuffer& d,
                    std::optional<mg::TransferError::Info>& e)
                     -> ms::Task<void> {
    // Arrives after send1's timeout (0.01) but before its NACK lands
    // (0.01 + 1e-6); matches send2, advancing the channel's high-water
    // mark past the NACK's seq.
    co_await fx.engine.delay(0.0100005);
    co_await capture(fx.fabric.worker(1).recv(0, d, 0, 4_MiB, 3), e);
  }(f, dst, recv_err), "recv");
  f.engine.run();
  ASSERT_TRUE(err1.has_value());  // send1 timed out
  EXPECT_FALSE(err2.has_value());  // send2 completed
  EXPECT_FALSE(recv_err.has_value());
  EXPECT_TRUE(dst.same_content(src2));
  EXPECT_EQ(f.fabric.nacks_sent(), 1u);
  EXPECT_EQ(f.fabric.nacks_stale(), 1u);
  EXPECT_EQ(f.fabric.worker(1).pending_nack_count(), 0u);
}

TEST(Timeouts, ZeroTimeoutKeepsLegacyBehaviour) {
  Fixture f(/*timeout_s=*/0.0);
  mg::DeviceBuffer src(f.gpus[0], 4_MiB);
  std::optional<mg::TransferError::Info> err;
  f.engine.spawn(capture(f.fabric.worker(0).send(1, src, 0, 4_MiB, 3), err),
                 "send");
  EXPECT_THROW(f.engine.run(), ms::SimError);  // deadlock, not TransferError
  EXPECT_FALSE(err.has_value());
  EXPECT_EQ(f.fabric.rendezvous_timeouts(), 0u);
}

// TEMP REVIEW TEST: a wildcard recv posted after an unrelated sender's
// timeout NACK was recorded -- does it get killed?
TEST(Timeouts, ReviewWildcardRecvVsNack) {
  Fixture f(/*timeout_s=*/0.01);
  f.fabric.add_worker(2, f.gpus[2]);
  mg::DeviceBuffer src(f.gpus[0], 4_MiB), src2(f.gpus[2], 4_MiB);
  mg::DeviceBuffer dst(f.gpus[1], 4_MiB);
  src2.fill_pattern(55);
  std::optional<mg::TransferError::Info> send_err, send2_err, recv_err;
  f.engine.spawn(capture(f.fabric.worker(0).send(1, src, 0, 4_MiB, 3),
                         send_err), "send-dies");
  f.engine.spawn([](Fixture& fx, mg::DeviceBuffer& d,
                    std::optional<mg::TransferError::Info>& e)
                     -> ms::Task<void> {
    co_await fx.engine.delay(0.02);  // after the NACK landed
    co_await capture(fx.fabric.worker(1).recv(mx::kAnySource, d, 0, 4_MiB, 3),
                     e);
  }(f, dst, recv_err), "wild-recv");
  f.engine.spawn([](Fixture& fx, mg::DeviceBuffer& s,
                    std::optional<mg::TransferError::Info>& e)
                     -> ms::Task<void> {
    co_await fx.engine.delay(0.021);  // rank 2 would satisfy the wildcard
    co_await capture(fx.fabric.worker(2).send(1, s, 0, 4_MiB, 3), e);
  }(f, src2, send2_err), "send-healthy");
  f.engine.run();
  printf("REVIEW: recv_err=%d send2_err=%d dst_ok=%d\n",
         recv_err.has_value(), send2_err.has_value(),
         dst.same_content(src2));
}
