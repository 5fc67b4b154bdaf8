#include "mpath/sim/sync.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace ms = mpath::sim;

namespace {

ms::Task<void> hold_permit(ms::Engine& e, ms::Semaphore& sem, double dur,
                           std::vector<std::pair<int, double>>& log, int id) {
  co_await sem.acquire();
  log.emplace_back(id, e.now());
  co_await e.delay(dur);
  sem.release();
}

}  // namespace

TEST(Semaphore, LimitsConcurrency) {
  ms::Engine e;
  ms::Semaphore sem(e, 2);
  std::vector<std::pair<int, double>> starts;
  for (int i = 0; i < 4; ++i) {
    e.spawn(hold_permit(e, sem, 1.0, starts, i));
  }
  e.run();
  ASSERT_EQ(starts.size(), 4u);
  // Two start immediately, two wait for releases at t=1.
  EXPECT_DOUBLE_EQ(starts[0].second, 0.0);
  EXPECT_DOUBLE_EQ(starts[1].second, 0.0);
  EXPECT_DOUBLE_EQ(starts[2].second, 1.0);
  EXPECT_DOUBLE_EQ(starts[3].second, 1.0);
}

TEST(Semaphore, FifoWakeupOrder) {
  ms::Engine e;
  ms::Semaphore sem(e, 1);
  std::vector<std::pair<int, double>> starts;
  for (int i = 0; i < 3; ++i) {
    e.spawn(hold_permit(e, sem, 1.0, starts, i));
  }
  e.run();
  ASSERT_EQ(starts.size(), 3u);
  EXPECT_EQ(starts[0].first, 0);
  EXPECT_EQ(starts[1].first, 1);
  EXPECT_EQ(starts[2].first, 2);
}

TEST(Semaphore, AvailableAndWaitingCounts) {
  ms::Engine e;
  ms::Semaphore sem(e, 3);
  EXPECT_EQ(sem.available(), 3u);
  e.spawn([](ms::Semaphore& s) -> ms::Task<void> {
    co_await s.acquire();
  }(sem));
  e.run();
  EXPECT_EQ(sem.available(), 2u);
  EXPECT_EQ(sem.waiting(), 0u);
}

TEST(Barrier, ReleasesAllAtLastArrival) {
  ms::Engine e;
  ms::Barrier barrier(e, 3);
  std::vector<double> release_times;
  for (int i = 0; i < 3; ++i) {
    e.spawn([](ms::Engine& eng, ms::Barrier& b, std::vector<double>& out,
               double arrive_at) -> ms::Task<void> {
      co_await eng.delay(arrive_at);
      co_await b.arrive();
      out.push_back(eng.now());
    }(e, barrier, release_times, static_cast<double>(i)));
  }
  e.run();
  ASSERT_EQ(release_times.size(), 3u);
  for (double t : release_times) EXPECT_DOUBLE_EQ(t, 2.0);
}

TEST(Barrier, IsReusable) {
  ms::Engine e;
  ms::Barrier barrier(e, 2);
  std::vector<double> times;
  for (int i = 0; i < 2; ++i) {
    e.spawn([](ms::Engine& eng, ms::Barrier& b, std::vector<double>& out,
               int id) -> ms::Task<void> {
      for (int round = 0; round < 3; ++round) {
        co_await eng.delay(id == 0 ? 1.0 : 2.0);
        co_await b.arrive();
        if (id == 0) out.push_back(eng.now());
      }
    }(e, barrier, times, i));
  }
  e.run();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 2.0);
  EXPECT_DOUBLE_EQ(times[1], 4.0);
  EXPECT_DOUBLE_EQ(times[2], 6.0);
}

TEST(Latch, WaitAfterFireDoesNotBlock) {
  ms::Engine e;
  ms::Latch latch(e);
  latch.fire();
  bool reached = false;
  e.spawn([](ms::Latch& l, bool& flag) -> ms::Task<void> {
    co_await l.wait();
    flag = true;
  }(latch, reached));
  e.run();
  EXPECT_TRUE(reached);
}

TEST(Latch, DoubleFireIsIdempotent) {
  ms::Engine e;
  ms::Latch latch(e);
  int wakeups = 0;
  e.spawn([](ms::Latch& l, int& n) -> ms::Task<void> {
    co_await l.wait();
    ++n;
  }(latch, wakeups));
  e.schedule_callback(1.0, [&] {
    latch.fire();
    latch.fire();
  });
  e.run();
  EXPECT_EQ(wakeups, 1);
}
