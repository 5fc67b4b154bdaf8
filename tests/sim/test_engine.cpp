#include "mpath/sim/engine.hpp"

#include <gtest/gtest.h>

#include <coroutine>
#include <limits>
#include <stdexcept>
#include <vector>

namespace ms = mpath::sim;

namespace {

ms::Task<void> record_at(ms::Engine& e, double dt, std::vector<double>& log) {
  co_await e.delay(dt);
  log.push_back(e.now());
}

ms::Task<int> answer(ms::Engine& e) {
  co_await e.delay(1.0);
  co_return 42;
}

ms::Task<void> chain(ms::Engine& e, std::vector<double>& log) {
  const int v = co_await answer(e);
  EXPECT_EQ(v, 42);
  log.push_back(e.now());
  co_await e.delay(0.5);
  log.push_back(e.now());
}

}  // namespace

TEST(Engine, TimeStartsAtZero) {
  ms::Engine e;
  EXPECT_DOUBLE_EQ(e.now(), 0.0);
}

TEST(Engine, DelayAdvancesVirtualClock) {
  ms::Engine e;
  std::vector<double> log;
  e.spawn(record_at(e, 2.5, log));
  e.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_DOUBLE_EQ(log[0], 2.5);
  EXPECT_DOUBLE_EQ(e.now(), 2.5);
}

TEST(Engine, EventsFireInTimeOrder) {
  ms::Engine e;
  std::vector<double> log;
  e.spawn(record_at(e, 3.0, log));
  e.spawn(record_at(e, 1.0, log));
  e.spawn(record_at(e, 2.0, log));
  e.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_DOUBLE_EQ(log[0], 1.0);
  EXPECT_DOUBLE_EQ(log[1], 2.0);
  EXPECT_DOUBLE_EQ(log[2], 3.0);
}

TEST(Engine, TiesBreakInSpawnOrder) {
  ms::Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    e.spawn([](ms::Engine& eng, std::vector<int>& ord,
               int id) -> ms::Task<void> {
      co_await eng.delay(1.0);
      ord.push_back(id);
    }(e, order, i));
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, NestedTasksReturnValues) {
  ms::Engine e;
  std::vector<double> log;
  e.spawn(chain(e, log));
  e.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_DOUBLE_EQ(log[0], 1.0);
  EXPECT_DOUBLE_EQ(log[1], 1.5);
}

TEST(Engine, JoinDeliversCompletion) {
  ms::Engine e;
  bool joined = false;
  static std::vector<double> sink;
  auto p = e.spawn(record_at(e, 1.0, sink));
  e.spawn([](ms::Engine&, ms::Process proc,
             bool& flag) -> ms::Task<void> {
    co_await proc.join();
    flag = true;
  }(e, p, joined));
  e.run();
  EXPECT_TRUE(joined);
  EXPECT_TRUE(p.done());
}

TEST(Engine, JoinRethrowsProcessException) {
  ms::Engine e;
  auto failing = e.spawn([](ms::Engine& eng) -> ms::Task<void> {
    co_await eng.delay(1.0);
    throw std::runtime_error("boom");
  }(e), "failing");
  bool caught = false;
  e.spawn([](ms::Process p, bool& flag) -> ms::Task<void> {
    try {
      co_await p.join();
    } catch (const std::runtime_error& err) {
      flag = std::string(err.what()) == "boom";
    }
  }(failing, caught));
  e.run();
  EXPECT_TRUE(caught);
}

TEST(Engine, UnjoinedFailureSurfacesAtRun) {
  ms::Engine e;
  e.spawn([](ms::Engine& eng) -> ms::Task<void> {
    co_await eng.delay(1.0);
    throw std::runtime_error("unseen failure");
  }(e), "fails-silently");
  EXPECT_THROW(e.run(), ms::SimError);
}

// Firing a latch with many waiters resumes them all from ONE engine event
// (batched callback), not one event per waiter — and the batching must not
// change what the waiters observe: same wake time, same FIFO order.
TEST(Engine, LatchFireBatchesWaitersIntoOneEvent) {
  ms::Engine e;
  ms::Latch latch(e);
  const int n = 16;
  std::vector<double> woke_at;
  std::vector<int> order;
  for (int i = 0; i < n; ++i) {
    e.spawn([](ms::Engine& eng, ms::Latch& l, std::vector<double>& at,
               std::vector<int>& ord, int id) -> ms::Task<void> {
      co_await l.wait();
      at.push_back(eng.now());
      ord.push_back(id);
    }(e, latch, woke_at, order, i), "waiter");
  }
  e.spawn([](ms::Engine& eng, ms::Latch& l) -> ms::Task<void> {
    co_await eng.delay(1.0);
    l.fire();
  }(e, latch), "firer");
  const std::uint64_t events = e.run();
  ASSERT_EQ(woke_at.size(), static_cast<std::size_t>(n));
  for (double t : woke_at) EXPECT_DOUBLE_EQ(t, 1.0);
  std::vector<int> expected(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) expected[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(order, expected);
  // n+1 spawn events, one delay, ONE batched resume. Unbatched wakeups
  // would cost an event per waiter (~2n+2 total).
  EXPECT_LE(events, static_cast<std::uint64_t>(n) + 4);
}

// A callback waiter (no coroutine) sits in the same FIFO chain as coroutine
// waiters and is woken in chain order from the one batched event.
TEST(Engine, LatchWakesCallbackWaitersInChainOrder) {
  ms::Engine e;
  ms::Latch latch(e);
  std::vector<int> order;
  struct Node {
    ms::Latch::Awaiter aw;
    std::vector<int>* order;
    int id;
  };
  const auto wake = [](void* ctx) {
    auto* n = static_cast<Node*>(ctx);
    n->order->push_back(n->id);
  };
  Node first{{}, &order, 0};
  first.aw.fn = wake;
  first.aw.ctx = &first;
  latch.add_waiter(first.aw);
  e.spawn([](ms::Latch& l, std::vector<int>& ord) -> ms::Task<void> {
    co_await l.wait();
    ord.push_back(1);
  }(latch, order));
  Node last{{}, &order, 2};
  last.aw.fn = wake;
  last.aw.ctx = &last;
  e.schedule_callback(1.0, [&] {  // the coroutine is parked by now
    latch.add_waiter(last.aw);
    latch.fire();
    EXPECT_TRUE(order.empty()) << "fire() wakes through the queue";
  });
  // Spawn, callback, and ONE batched wakeup.
  EXPECT_EQ(e.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Engine, DeadlockDetected) {
  ms::Engine e;
  auto latch = std::make_unique<ms::Latch>(e);
  e.spawn([](ms::Latch& l) -> ms::Task<void> {
    co_await l.wait();  // never fired
  }(*latch), "stuck");
  EXPECT_THROW(e.run(), ms::SimError);
}

TEST(Engine, CallbacksInterleaveWithCoroutines) {
  ms::Engine e;
  std::vector<int> order;
  e.schedule_callback(1.0, [&] { order.push_back(1); });
  e.spawn([](ms::Engine& eng, std::vector<int>& ord) -> ms::Task<void> {
    co_await eng.delay(0.5);
    ord.push_back(0);
    co_await eng.delay(1.0);
    ord.push_back(2);
  }(e, order));
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Engine, CallbackAtNowRunsAfterQueuedSameTimeEventsAndBeforeLaterOnes) {
  ms::Engine e;
  std::vector<int> order;
  e.schedule_callback(1.0, [&] { order.push_back(1); });
  e.schedule_callback(1.0, [&] {
    // Work queued at now() runs after the same-time event queued below
    // (seq order), but before anything queued after it.
    e.schedule_callback(e.now(), [&] {
      order.push_back(4);
      e.schedule_callback(e.now(), [&] { order.push_back(5); });
    });
    order.push_back(2);
  });
  e.schedule_callback(1.0, [&] { order.push_back(3); });
  e.schedule_callback(2.0, [&] { order.push_back(6); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
}

TEST(Engine, ManySpawnsSweepCleanly) {
  ms::Engine e;
  // More processes than the sweep threshold to exercise root reclamation.
  std::vector<double> log;
  for (int i = 0; i < 10000; ++i) {
    e.spawn([](ms::Engine& eng) -> ms::Task<void> {
      co_await eng.delay(0.001);
    }(e));
  }
  EXPECT_NO_THROW(e.run());
  EXPECT_EQ(e.live_process_count(), 0u);
}

TEST(Engine, DelayRejectsNegativeAndNaN) {
  ms::Engine e;
  EXPECT_THROW((void)e.delay(-1e-9), ms::SimError);
  EXPECT_THROW((void)e.delay(std::numeric_limits<double>::quiet_NaN()),
               ms::SimError);
  // Zero and positive delays are fine.
  EXPECT_NO_THROW((void)e.delay(0.0));
  EXPECT_NO_THROW((void)e.delay(1.0));
}

// A NaN time would be dispatched first and turn now() into NaN, breaking
// the (t, seq) order for everything after it; the schedule calls refuse it
// the way delay() does.
TEST(Engine, ScheduleHandleRejectsNaNTime) {
  ms::Engine e;
  EXPECT_THROW(e.schedule_handle(std::numeric_limits<double>::quiet_NaN(),
                                 std::noop_coroutine()),
               ms::SimError);
  EXPECT_EQ(e.queued_event_count(), 0u);
}

TEST(Engine, ScheduleCallbackRejectsNaNTime) {
  ms::Engine e;
  bool threw = false;
  e.schedule_callback(1.0, [&] {
    try {
      e.schedule_callback(std::numeric_limits<double>::quiet_NaN(), [] {});
    } catch (const ms::SimError&) {
      threw = true;
    }
  });
  EXPECT_EQ(e.run(), 1u);
  EXPECT_TRUE(threw);
  EXPECT_EQ(e.now(), 1.0);
}
