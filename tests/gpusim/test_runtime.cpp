#include "mpath/gpusim/runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "mpath/topo/system.hpp"
#include "mpath/util/units.hpp"

namespace mg = mpath::gpusim;
namespace ms = mpath::sim;
namespace mt = mpath::topo;
using namespace mpath::util::literals;
using mpath::util::gbps;

namespace {

// Beluga with all software overheads zeroed for exact-time assertions.
struct CleanFixture {
  mt::System sys = [] {
    auto s = mt::make_beluga();
    s.costs = mt::SoftwareCosts{};
    s.costs.op_launch_s = 0;
    s.costs.event_record_s = 0;
    s.costs.event_wait_s = 0;
    s.costs.jitter_rel = 0;
    return s;
  }();
  ms::Engine engine;
  ms::FluidNetwork net{engine};
  mg::GpuRuntime rt{sys, engine, net};
  std::vector<mt::DeviceId> gpus = sys.topology.gpus();
};

/// Synchronize each of `streams` in turn and record the instant after.
ms::Task<void> sync_streams(mg::GpuRuntime& rt,
                            std::vector<mg::StreamId> streams,
                            double* done = nullptr) {
  for (const mg::StreamId s : streams) co_await rt.synchronize(s);
  if (done != nullptr) *done = rt.engine().now();
}

}  // namespace

TEST(GpuRuntime, CopyMovesPayloadAndTakesWireTime) {
  CleanFixture f;
  mg::DeviceBuffer src(f.gpus[0], 1_MiB), dst(f.gpus[1], 1_MiB);
  src.fill_pattern(7);
  const auto s = f.rt.create_stream(f.gpus[0]);
  double finish = -1;
  f.rt.memcpy_async(dst, 0, src, 0, 1_MiB, s);
  f.engine.spawn([](mg::GpuRuntime& rt, mg::StreamId st,
                    double& out) -> ms::Task<void> {
    co_await rt.synchronize(st);
    out = rt.engine().now();
  }(f.rt, s, finish));
  f.engine.run();
  EXPECT_TRUE(dst.same_content(src));
  const double expected = 1e-6 + static_cast<double>(1_MiB) / gbps(46);
  EXPECT_NEAR(finish, expected, 1e-9);
  EXPECT_EQ(f.rt.bytes_copied(), 1_MiB);
}

TEST(GpuRuntime, StreamOpsExecuteInOrder) {
  CleanFixture f;
  mg::DeviceBuffer a(f.gpus[0], 64), b(f.gpus[1], 64), c(f.gpus[2], 64);
  a.fill_pattern(1);
  const auto s = f.rt.create_stream(f.gpus[0]);
  // b <- a, then c <- b: only correct if strictly ordered.
  f.rt.memcpy_async(b, 0, a, 0, 64, s);
  f.rt.memcpy_async(c, 0, b, 0, 64, s);
  f.engine.spawn([](mg::GpuRuntime& rt, mg::StreamId st) -> ms::Task<void> {
    co_await rt.synchronize(st);
  }(f.rt, s));
  f.engine.run();
  EXPECT_TRUE(c.same_content(a));
}

// An op enqueued onto a busy stream queues no start event. If its
// predecessor finishes later in the same instant, but before the place an
// event queued at enqueue would have held, the op still starts in that
// place: ahead of an op enqueued after it on an idle stream, exactly as if
// it had been given a start event. At jitter 0 both launches end at one
// instant, so the order of their hooks shows the order they started in.
TEST(GpuRuntime, BusyStreamOpKeepsItsSameInstantStartPlace) {
  auto sys = mt::make_beluga();
  sys.costs.op_launch_s = 1e-6;
  sys.costs.jitter_rel = 0.0;
  ms::Engine engine;
  ms::FluidNetwork net{engine};
  mg::GpuRuntime rt{sys, engine, net};
  const auto gpus = sys.topology.gpus();
  mg::DeviceBuffer a(gpus[0], 64), b(gpus[1], 64);
  const auto busy = rt.create_stream(gpus[0]);
  const auto idle = rt.create_stream(gpus[1]);
  constexpr double kDelay = 1e-5;
  rt.stream_delay(busy, kDelay);  // ends at kDelay
  std::vector<mg::StreamId> order;
  // Queued before the delay's end event exists, so it runs first at kDelay.
  engine.schedule_callback(kDelay, [&] {
    rt.memcpy_async(b, 0, a, 0, 0, busy, nullptr,
                    [&](bool) { order.push_back(busy); });
    rt.memcpy_async(b, 0, a, 0, 0, idle, nullptr,
                    [&](bool) { order.push_back(idle); });
  });
  engine.run();
  EXPECT_EQ(order, (std::vector<mg::StreamId>{busy, idle}));
  EXPECT_EQ(engine.now(), kDelay + sys.costs.op_launch_s);
}

// A draw is keyed by the op it scales, not taken in dispatch order: two
// runtimes of one seed that enqueue the same independent ops on two
// streams, in opposite orders, complete every op at the same instant.
TEST(GpuRuntime, JitterDoesNotDependOnDispatchOrder) {
  auto sys = mt::make_beluga();
  sys.costs.op_launch_s = 1e-6;
  sys.costs.event_record_s = 2e-6;
  sys.costs.jitter_rel = 0.05;
  constexpr std::size_t kOps = 6;
  using Instants = std::vector<std::vector<double>>;
  const auto run = [&](bool reversed) {
    ms::Engine engine;
    ms::FluidNetwork net{engine};
    mg::GpuRuntime rt{sys, engine, net, 5};
    const auto gpus = sys.topology.gpus();
    mg::DeviceBuffer a(gpus[0], 64), b(gpus[1], 64);
    const std::vector<mg::StreamId> streams = {rt.create_stream(gpus[0]),
                                               rt.create_stream(gpus[1])};
    Instants done(streams.size());
    for (std::size_t k = 0; k < streams.size(); ++k) {
      const std::size_t s = reversed ? streams.size() - 1 - k : k;
      for (std::size_t i = 0; i < kOps; ++i) {
        // A record between copies: its own jittered cost, and no hook.
        if (i == kOps / 2) rt.record_event(rt.create_event(), streams[s]);
        rt.memcpy_async(b, 0, a, 0, 0, streams[s], nullptr,
                        [&done, &engine, s](bool) {
                          done[s].push_back(engine.now());
                        });
      }
    }
    engine.run();
    return done;
  };
  const Instants forward = run(false);
  const Instants reversed = run(true);
  for (const auto& stream : forward) ASSERT_EQ(stream.size(), kOps);
  EXPECT_EQ(forward, reversed);
  EXPECT_NE(forward[0], forward[1]);  // the two streams draw apart
}

// synchronize() waiters on an op that later gets a successor wake in a
// fixed order and number of events. A successor that keeps its reserved
// same-instant place starts there, before the waiters' wakeup event; one
// that misses it starts in one event with the waiters, after them. The
// successor drains at its start event (its token is cancelled), so its
// hook marks the start.
TEST(GpuRuntime, SyncWaitersAndSuccessorWakeInQueueOrder) {
  for (bool keeps_place : {true, false}) {
    for (int waiters : {1, 2}) {
      CleanFixture f;
      mg::DeviceBuffer a(f.gpus[0], 64), b(f.gpus[1], 64);
      const auto s = f.rt.create_stream(f.gpus[0]);
      mg::CancelToken token(f.net);
      token.cancel();
      constexpr double kDelay = 1e-5;
      std::vector<int> order;
      f.rt.stream_delay(s, kDelay);
      for (int w = 1; w <= waiters; ++w) {
        f.engine.spawn([](mg::GpuRuntime& rt, mg::StreamId st,
                          std::vector<int>& log, int id) -> ms::Task<void> {
          co_await rt.synchronize(st);
          log.push_back(id);
        }(f.rt, s, order, w));
      }
      // At kDelay this runs before the delay's end event, which is queued
      // later (when the delay starts), so the successor's place is ahead.
      // At 0 the successor enqueues an instant before the delay ends.
      f.engine.schedule_callback(keeps_place ? kDelay : 0.0, [&] {
        f.rt.memcpy_async(b, 0, a, 0, 64, s, &token, [&](bool delivered) {
          EXPECT_FALSE(delivered);
          EXPECT_EQ(f.engine.now(), kDelay);
          order.push_back(0);
        });
      });
      const std::uint64_t events = f.engine.run();
      std::vector<int> want;
      if (keeps_place) want.push_back(0);
      for (int w = 1; w <= waiters; ++w) want.push_back(w);
      if (!keeps_place) want.push_back(0);
      EXPECT_EQ(order, want) << "keeps_place " << keeps_place << " waiters "
                             << waiters;
      // The delay's start and end, one start per waiter, the enqueueing
      // callback, then two wakeup events or one.
      const auto base = static_cast<std::uint64_t>(3 + waiters);
      EXPECT_EQ(events, base + (keeps_place ? 2u : 1u))
          << "keeps_place " << keeps_place << " waiters " << waiters;
    }
  }
}

// 4,096 ops queued on one stream while its front copy streams finish in
// FIFO order, at pinned jitter-free instants: every copy's hook reports its
// own index, in order, and the completion instants below are the ones a
// queue of one pooled record per op produced. The queue outgrows any
// initial ring while the front op runs.
TEST(GpuRuntime, DeepQueueBehindRunningCopyFinishesInOrder) {
  CleanFixture f;
  mg::DeviceBuffer a(f.gpus[0], 1_MiB, mg::Payload::Simulated);
  mg::DeviceBuffer b(f.gpus[1], 1_MiB, mg::Payload::Simulated);
  const auto s = f.rt.create_stream(f.gpus[0]);
  const auto ev = f.rt.create_event();
  std::vector<int> ids;
  std::vector<double> at;
  const auto hook = [&](int id) {
    return [&ids, &at, &engine = f.engine, id](bool delivered) {
      EXPECT_TRUE(delivered);
      ids.push_back(id);
      at.push_back(engine.now());
    };
  };
  f.rt.memcpy_async(b, 0, a, 0, 1_MiB, s, nullptr, hook(-1));
  constexpr int kOps = 4096;
  // 1 MiB at 46 GB/s streams from 1 us to ~23.8 us.
  f.engine.schedule_callback(10e-6, [&] {
    for (int i = 0; i < kOps; ++i) {
      switch (i % 4) {
        case 0: {
          const auto len = static_cast<std::size_t>(1 + i % 7) * 1_KiB;
          f.rt.memcpy_async(b, 0, a, 0, len, s, nullptr, hook(i));
          break;
        }
        case 1:
          f.rt.stream_delay(s, 1e-7 * (i % 5));
          break;
        case 2:
          f.rt.record_event(ev, s);
          break;
        default:
          f.rt.wait_event(s, ev);
          break;
      }
    }
  });
  f.engine.run();
  ASSERT_EQ(ids.size(), static_cast<std::size_t>(1 + kOps / 4));
  for (std::size_t k = 0; k < ids.size(); ++k) {
    ASSERT_EQ(ids[k], k == 0 ? -1 : 4 * (static_cast<int>(k) - 1))
        << "copy " << k;
  }
  ASSERT_TRUE(std::is_sorted(at.begin(), at.end()));
  double sum = 0.0;
  for (double t : at) sum += t;
  EXPECT_EQ(at[0], 0x1.8f374e98f51bep-16);
  EXPECT_EQ(at[512], 0x1.664ee49731ebp-11);
  EXPECT_EQ(at.back(), 0x1.602c23141dfeap-10);
  EXPECT_EQ(sum, 0x1.66ab7d6572a39p-1);
  EXPECT_EQ(f.rt.ops_issued(), static_cast<std::uint64_t>(1 + kOps));
}

// A cancelled token drains a deep queue of governed copies: the copy in
// flight is aborted, every queued one drains at its start without moving
// data or paying dispatch latency, and the stream ends idle (a later
// synchronize() returns without waiting).
TEST(GpuRuntime, CancelledTokenDrainsDeepQueueWithoutMovingData) {
  CleanFixture f;
  mg::DeviceBuffer src(f.gpus[0], 256_KiB), dst(f.gpus[1], 256_KiB);
  src.fill_pattern(3);
  dst.fill_pattern(4);
  mg::DeviceBuffer ref(f.gpus[1], 256_KiB);
  ref.fill_pattern(4);
  const auto s = f.rt.create_stream(f.gpus[0]);
  mg::CancelToken token(f.net);
  constexpr int kOps = 2048;
  constexpr double kCancelAt = 2e-6;  // the first copy streams 1-2.4 us
  int drained = 0;
  for (int i = 0; i < kOps; ++i) {
    const std::size_t off = static_cast<std::size_t>(i % 4) * 64_KiB;
    f.rt.memcpy_async(dst, off, src, off, 64_KiB, s, &token,
                      [&](bool delivered) {
                        EXPECT_FALSE(delivered);
                        EXPECT_EQ(f.engine.now(), kCancelAt);
                        ++drained;
                      });
  }
  f.engine.schedule_callback(kCancelAt, [&] { token.cancel(); });
  const std::uint64_t events = f.engine.run();
  EXPECT_EQ(drained, kOps);
  EXPECT_EQ(token.flows_cancelled(), 1u);
  EXPECT_EQ(f.rt.bytes_copied(), 0u);
  EXPECT_TRUE(dst.same_content(ref));
  EXPECT_EQ(events, 2052u);
  bool synced = false;
  f.engine.spawn([](mg::GpuRuntime& rt, mg::StreamId st,
                    bool& out) -> ms::Task<void> {
    co_await rt.synchronize(st);
    out = true;
  }(f.rt, s, synced));
  EXPECT_EQ(f.engine.run(), 1u);  // the spawn's own start, no wait
  EXPECT_TRUE(synced);
  EXPECT_EQ(f.engine.now(), kCancelAt);
}

// Modeled ops take their jitter from keyed draws. The completion instants
// of zero-length copies in sequence on one stream are the running sums of
// the launch cost scaled by the stream's draws for ordinals 0, 1, 2, ...
TEST(GpuRuntime, ModeledOpJitterMatchesScalarDrawsAcrossBatches) {
  auto sys = mt::make_beluga();
  sys.costs.op_launch_s = 1e-6;
  sys.costs.jitter_rel = 0.05;
  constexpr std::uint64_t kSeed = 11;
  constexpr std::size_t kCopies = 800;
  ms::Engine engine;
  ms::FluidNetwork net{engine};
  mg::GpuRuntime rt{sys, engine, net, kSeed};
  const auto gpus = sys.topology.gpus();
  mg::DeviceBuffer a(gpus[0], 64), b(gpus[1], 64);
  const auto s = rt.create_stream(gpus[0]);
  std::vector<double> done;
  done.reserve(kCopies);
  for (std::size_t i = 0; i < kCopies; ++i) {
    rt.memcpy_async(b, 0, a, 0, 0, s, nullptr,
                    [&](bool) { done.push_back(engine.now()); });
  }
  engine.run();
  ASSERT_EQ(done.size(), kCopies);
  double t = 0.0;
  for (std::size_t i = 0; i < kCopies; ++i) {
    t += sys.costs.op_launch_s * rt.op_jitter(s, i);
    ASSERT_EQ(done[i], t) << "copy " << i;
  }
  EXPECT_NE(rt.op_jitter(s, 0), rt.op_jitter(s, 1));
}

TEST(GpuRuntime, StreamDelayRejectsNegativeAndNaN) {
  CleanFixture f;
  const auto s = f.rt.create_stream(f.gpus[0]);
  EXPECT_THROW(f.rt.stream_delay(s, -1e-6), std::invalid_argument);
  EXPECT_THROW(f.rt.stream_delay(s, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_EQ(f.rt.ops_issued(), 0u);
}

TEST(GpuRuntime, IndependentStreamsOverlap) {
  CleanFixture f;
  // Two disjoint GPU pairs: copies run concurrently, so both finish in the
  // time of one (plus latency), not 2x.
  mg::DeviceBuffer s0(f.gpus[0], 46_MiB), d0(f.gpus[1], 46_MiB);
  mg::DeviceBuffer s1(f.gpus[2], 46_MiB), d1(f.gpus[3], 46_MiB);
  const auto st0 = f.rt.create_stream(f.gpus[0]);
  const auto st1 = f.rt.create_stream(f.gpus[2]);
  f.rt.memcpy_async(d0, 0, s0, 0, 46_MiB, st0);
  f.rt.memcpy_async(d1, 0, s1, 0, 46_MiB, st1);
  double finish = -1;
  f.engine.spawn(sync_streams(f.rt, {st0, st1}, &finish));
  f.engine.run();
  const double one_copy = 1e-6 + static_cast<double>(46_MiB) / gbps(46);
  EXPECT_NEAR(finish, one_copy, 1e-6);
}

TEST(GpuRuntime, SameLinkCopiesContend) {
  CleanFixture f;
  // Two concurrent copies over the same NVLink share it: each takes ~2x.
  mg::DeviceBuffer sa(f.gpus[0], 46_MiB), da(f.gpus[1], 46_MiB);
  mg::DeviceBuffer sb(f.gpus[0], 46_MiB), db(f.gpus[1], 46_MiB);
  const auto st0 = f.rt.create_stream(f.gpus[0]);
  const auto st1 = f.rt.create_stream(f.gpus[0]);
  f.rt.memcpy_async(da, 0, sa, 0, 46_MiB, st0);
  f.rt.memcpy_async(db, 0, sb, 0, 46_MiB, st1);
  double finish = -1;
  f.engine.spawn(sync_streams(f.rt, {st0, st1}, &finish));
  f.engine.run();
  const double shared = 1e-6 + 2.0 * static_cast<double>(46_MiB) / gbps(46);
  EXPECT_NEAR(finish, shared, 1e-6);
}

TEST(GpuRuntime, EventsOrderAcrossStreams) {
  CleanFixture f;
  mg::DeviceBuffer a(f.gpus[0], 64), b(f.gpus[2], 64), c(f.gpus[1], 64);
  a.fill_pattern(9);
  // Staged: a -> b on stream0; stream1 waits for the event then b -> c.
  const auto s0 = f.rt.create_stream(f.gpus[0]);
  const auto s1 = f.rt.create_stream(f.gpus[2]);
  const auto ev = f.rt.create_event();
  f.rt.memcpy_async(b, 0, a, 0, 64, s0);
  f.rt.record_event(ev, s0);
  f.rt.wait_event(s1, ev);
  f.rt.memcpy_async(c, 0, b, 0, 64, s1);
  f.engine.spawn(sync_streams(f.rt, {s0, s1}));
  f.engine.run();
  EXPECT_TRUE(c.same_content(a));
}

TEST(GpuRuntime, WaitOnUnrecordedEventIsNoop) {
  CleanFixture f;
  const auto s = f.rt.create_stream(f.gpus[0]);
  const auto ev = f.rt.create_event();
  f.rt.wait_event(s, ev);
  double finish = -1;
  f.engine.spawn([](mg::GpuRuntime& rt, mg::StreamId st,
                    double& out) -> ms::Task<void> {
    co_await rt.synchronize(st);
    out = rt.engine().now();
  }(f.rt, s, finish));
  f.engine.run();
  EXPECT_NEAR(finish, 0.0, 1e-12);
}

TEST(GpuRuntime, SameDeviceCopyUsesLocalBandwidth) {
  CleanFixture f;
  mg::DeviceBuffer src(f.gpus[0], 1_MiB), dst(f.gpus[0], 1_MiB);
  src.fill_pattern(3);
  const auto s = f.rt.create_stream(f.gpus[0]);
  f.rt.memcpy_async(dst, 0, src, 0, 1_MiB, s);
  double finish = -1;
  f.engine.spawn([](mg::GpuRuntime& rt, mg::StreamId st,
                    double& out) -> ms::Task<void> {
    co_await rt.synchronize(st);
    out = rt.engine().now();
  }(f.rt, s, finish));
  f.engine.run();
  EXPECT_TRUE(dst.same_content(src));
  EXPECT_NEAR(finish, static_cast<double>(1_MiB) / 600e9, 1e-9);
}

TEST(GpuRuntime, RegionOffsetsRespected) {
  CleanFixture f;
  mg::DeviceBuffer src(f.gpus[0], 256), dst(f.gpus[1], 256);
  src.fill_pattern(5);
  dst.fill_pattern(6);
  const auto s = f.rt.create_stream(f.gpus[0]);
  f.rt.memcpy_async(dst, 128, src, 0, 64, s);
  f.engine.spawn(sync_streams(f.rt, {s}));
  f.engine.run();
  // dst[128..192) == src[0..64); the rest of dst is untouched.
  EXPECT_TRUE(std::equal(dst.bytes().begin() + 128, dst.bytes().begin() + 192,
                         src.bytes().begin()));
  mg::DeviceBuffer ref(f.gpus[1], 256);
  ref.fill_pattern(6);
  EXPECT_TRUE(std::equal(dst.bytes().begin(), dst.bytes().begin() + 128,
                         ref.bytes().begin()));
}

TEST(GpuRuntime, BadRegionThrowsAtEnqueue) {
  CleanFixture f;
  mg::DeviceBuffer src(f.gpus[0], 64), dst(f.gpus[1], 64);
  const auto s = f.rt.create_stream(f.gpus[0]);
  EXPECT_THROW(f.rt.memcpy_async(dst, 32, src, 0, 64, s), std::out_of_range);
}

TEST(GpuRuntime, IpcOpenPaysOnceThenCached) {
  CleanFixture f;
  // Re-enable the IPC cost for this test.
  auto sys = mt::make_beluga();
  sys.costs.jitter_rel = 0;
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  mg::GpuRuntime rt(sys, engine, net);
  const auto gpus = sys.topology.gpus();
  mg::DeviceBuffer buf(gpus[1], 64);
  double first = -1, second = -1;
  engine.spawn([](mg::GpuRuntime& r, mt::DeviceId opener,
                  mg::DeviceBuffer& b, double& t1,
                  double& t2) -> ms::Task<void> {
    co_await r.ipc_open(opener, b);
    t1 = r.engine().now();
    co_await r.ipc_open(opener, b);
    t2 = r.engine().now();
  }(rt, gpus[0], buf, first, second));
  engine.run();
  EXPECT_NEAR(first, sys.costs.ipc_open_s, 1e-9);
  EXPECT_DOUBLE_EQ(second, first);  // cached: no extra time
  EXPECT_TRUE(rt.ipc_cached(gpus[0], buf));
  EXPECT_FALSE(rt.ipc_cached(gpus[2], buf));
  // Handles are per runtime: another runtime's first open pays again.
  ms::Engine engine2;
  ms::FluidNetwork net2(engine2);
  mg::GpuRuntime rt2(sys, engine2, net2);
  EXPECT_FALSE(rt2.ipc_cached(gpus[0], buf));
}

TEST(GpuRuntime, OpCountsTracked) {
  CleanFixture f;
  mg::DeviceBuffer src(f.gpus[0], 64), dst(f.gpus[1], 64);
  const auto s = f.rt.create_stream(f.gpus[0]);
  const auto ev = f.rt.create_event();
  f.rt.memcpy_async(dst, 0, src, 0, 64, s);
  f.rt.record_event(ev, s);
  f.rt.wait_event(s, ev);
  EXPECT_EQ(f.rt.ops_issued(), 3u);
  f.engine.spawn(sync_streams(f.rt, {s}));
  f.engine.run();
}

TEST(GpuRuntime, EventFreeListRecyclesReservations) {
  CleanFixture f;
  EXPECT_EQ(f.rt.events_pooled(), 0u);
  const auto e0 = f.rt.acquire_event();  // free list empty: freshly minted
  const auto e1 = f.rt.acquire_event();
  EXPECT_NE(e0, e1);
  EXPECT_EQ(f.rt.events_pooled(), 0u);
  f.rt.release_event(e0);
  f.rt.release_event(e1);
  EXPECT_EQ(f.rt.events_pooled(), 2u);
  // LIFO reuse: the pool hands back released ids instead of minting more.
  const auto r0 = f.rt.acquire_event();
  const auto r1 = f.rt.acquire_event();
  EXPECT_EQ(f.rt.events_pooled(), 0u);
  EXPECT_TRUE((r0 == e0 && r1 == e1) || (r0 == e1 && r1 == e0));
  f.rt.release_event(r0);
  f.rt.release_event(r1);
}

TEST(GpuRuntime, ReacquiredEventRearmsAtRecord) {
  // An event that already fired, was released, and is then reacquired must
  // behave like a fresh event: record re-arms the latch at enqueue, so a
  // cross-stream wait on the recycled id observes the NEW recording, not
  // the stale completed state.
  CleanFixture f;
  mg::DeviceBuffer a(f.gpus[0], 1_MiB), b(f.gpus[2], 1_MiB), c(f.gpus[1], 1_MiB);
  a.fill_pattern(5);
  const auto s0 = f.rt.create_stream(f.gpus[0]);
  const auto ev = f.rt.acquire_event();
  f.rt.memcpy_async(b, 0, a, 0, 1_MiB, s0);
  f.rt.record_event(ev, s0);
  f.engine.spawn(sync_streams(f.rt, {s0}));
  f.engine.run();
  f.rt.release_event(ev);

  const auto ev2 = f.rt.acquire_event();
  EXPECT_EQ(ev2, ev);  // recycled id
  const auto s2 = f.rt.create_stream(f.gpus[2]);
  const auto s3 = f.rt.create_stream(f.gpus[2]);
  // s3 waits on the recycled event recorded behind a fresh copy on s2: the
  // dependent copy must see the new payload, proving the latch re-armed.
  b.fill_pattern(7);
  mg::DeviceBuffer d(f.gpus[2], 1_MiB);
  d.fill_pattern(7);
  f.rt.memcpy_async(b, 0, d, 0, 1_MiB, s2);
  f.rt.record_event(ev2, s2);
  f.rt.wait_event(s3, ev2);
  f.rt.memcpy_async(c, 0, b, 0, 1_MiB, s3);
  f.engine.spawn(sync_streams(f.rt, {s2, s3}));
  f.engine.run();
  EXPECT_TRUE(c.same_content(d));
  f.rt.release_event(ev2);
}
