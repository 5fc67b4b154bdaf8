// Dispatch order of sim::Engine across its three sources of work: the
// same-instant lane, the heap and re-armable timers.
//
// The differential test runs a seeded random program that queues work every
// way the engine offers: schedule_handle, schedule_callback and defer (at
// now() and later), reserve_seq + schedule_reserved, Latch::fire over
// callback waiters, and Timer arm / re-arm / disarm. Times sit on a 1/4
// grid, so exact ties between lane, heap and timer entries are common.
// Every queued firing is recorded with the (t, seq) place it was given, and
// the dispatch log of (now(), current_seq()) must equal those places sorted
// by (t, seq), with no superseded or disarmed timer firing in it.
#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
#include <ostream>
#include <vector>

#include "mpath/sim/engine.hpp"
#include "mpath/util/rng.hpp"

namespace ms = mpath::sim;

namespace {

/// One firing: when and in which place it runs, and which queued item.
struct Firing {
  double t;
  std::uint64_t seq;
  int id;
  bool operator==(const Firing&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Firing& f) {
  return os << "{t=" << f.t << " seq=" << f.seq << " id=" << f.id << "}";
}

/// Bare coroutine resumed through schedule_handle: each resume runs one
/// step of the program, then parks again.
struct Actor {
  struct promise_type {
    Actor get_return_object() {
      return {std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };
  std::coroutine_handle<promise_type> handle;
};

class Program {
 public:
  static constexpr int kActors = 4;
  static constexpr int kTimers = 3;
  static constexpr int kItems = 3000;  ///< queued items before it winds down

  explicit Program(std::uint64_t seed) : rng_(seed) {
    for (int i = 0; i < kActors; ++i) {
      actors_.push_back(actor(i));
      actor_item_.push_back(-1);
    }
    for (int k = 0; k < kTimers; ++k) {
      timers_.emplace_back(engine_, [this, k] { on_timer(k); });
      timer_place_.push_back(-1);
    }
    latches_.emplace_back(engine_);
  }
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;
  ~Program() {
    for (Actor& a : actors_) a.handle.destroy();
  }

  void run() {
    for (int i = 0; i < 8; ++i) act(rng_.uniform_int(0, 8));
    engine_.run();
  }

  /// Recorded places of every firing still due, in (t, seq) order; items
  /// sharing one place (a batched latch wakeup) keep their chain order.
  [[nodiscard]] std::vector<Firing> reference() const {
    std::vector<Firing> want;
    for (const Place& p : places_) {
      if (p.live) want.push_back(p.firing);
    }
    std::stable_sort(want.begin(), want.end(),
                     [](const Firing& a, const Firing& b) {
                       if (a.t != b.t) return a.t < b.t;
                       return a.seq < b.seq;
                     });
    return want;
  }

  ms::Engine& engine() { return engine_; }
  std::vector<Firing> log;
  /// How often each interesting path ran, so the test can insist on it.
  struct Counts {
    int now_events = 0, later_events = 0, reserved = 0, waiters_batched = 0;
    int rearms = 0, disarms = 0, timer_firings = 0;
  } counts;

 private:
  struct Place {
    Firing firing;
    bool live = true;
  };
  struct Waiter {
    ms::Latch::Awaiter node;
    Program* program;
    int id;
  };
  struct Reservation {
    double at;
    std::uint64_t seq;
  };

  Actor actor(int index) {
    for (;;) {
      const int id = actor_item_[static_cast<std::size_t>(index)];
      actor_item_[static_cast<std::size_t>(index)] = -1;
      step(id);
      co_await std::suspend_always{};
    }
  }

  /// The seq the next queued event takes.
  std::uint64_t next_seq() { return engine_.reserve_seq() + 1; }

  int record(double t, std::uint64_t seq) {
    const int id = static_cast<int>(places_.size());
    places_.push_back(Place{Firing{t, seq, id}});
    return id;
  }

  /// Log the firing, queue its successor (a callback, deferral or actor
  /// resume, so the program lives until kItems) and do up to two more
  /// actions of any kind.
  void step(int id) {
    log.push_back(Firing{engine_.now(), engine_.current_seq(), id});
    act(rng_.uniform_int(0, 2));
    const auto actions = rng_.uniform_int(0, 2);
    for (std::int64_t i = 0; i < actions; ++i) act(rng_.uniform_int(0, 8));
  }

  void on_timer(int k) {
    int& place = timer_place_[static_cast<std::size_t>(k)];
    ASSERT_GE(place, 0) << "timer " << k << " fired while disarmed";
    const Firing& want = places_[static_cast<std::size_t>(place)].firing;
    EXPECT_EQ(engine_.current_seq(), want.seq) << "superseded firing";
    const int id = want.id;
    place = -1;
    ++counts.timer_firings;
    step(id);
  }

  void act(std::int64_t kind) {
    if (static_cast<int>(places_.size()) >= kItems) return;
    const double now = engine_.now();
    const bool at_now = rng_.uniform_int(0, 1) == 0;
    const double later =
        now + 0.25 * static_cast<double>(rng_.uniform_int(1, 4));
    const double when = at_now ? now : later;
    switch (kind) {
      case 0: {
        const int id = record(when, next_seq());
        engine_.schedule_callback(when, [this, id] { step(id); });
        ++(at_now ? counts.now_events : counts.later_events);
        break;
      }
      case 1: {
        const int id = record(now, next_seq());
        engine_.defer([this, id] { step(id); });
        ++counts.now_events;
        break;
      }
      case 2: {
        for (std::size_t i = 0; i < actors_.size(); ++i) {
          if (actor_item_[i] >= 0) continue;  // already queued
          actor_item_[i] = record(when, next_seq());
          engine_.schedule_handle(when, actors_[i].handle);
          ++(at_now ? counts.now_events : counts.later_events);
          break;
        }
        break;
      }
      case 3:
        reservations_.push_back(Reservation{now, engine_.reserve_seq()});
        break;
      case 4: {
        // Use a place reserved at this instant that is still ahead.
        for (std::size_t i = 0; i < reservations_.size(); ++i) {
          const Reservation r = reservations_[i];
          if (r.at != now || r.seq <= engine_.current_seq()) continue;
          reservations_.erase(reservations_.begin() +
                              static_cast<std::ptrdiff_t>(i));
          const int id = record(now, r.seq);
          engine_.schedule_reserved(r.seq, [this, id] { step(id); });
          ++counts.reserved;
          break;
        }
        break;
      }
      case 5: {
        Waiter& w = waiters_.emplace_back(Waiter{{}, this, -1});
        w.node.fn = [](void* ctx) {
          auto* self = static_cast<Waiter*>(ctx);
          self->program->step(self->id);
        };
        w.node.ctx = &w;
        latches_.back().add_waiter(w.node);
        waiting_.push_back(&w);
        break;
      }
      case 6: {
        // The waiters share one wakeup, in chain order.
        const std::uint64_t batch = next_seq();
        for (Waiter* w : waiting_) {
          w->id = record(now, batch);
          ++counts.waiters_batched;
        }
        waiting_.clear();
        latches_.back().fire();
        latches_.emplace_back(engine_);
        break;
      }
      case 7: {
        const auto k = static_cast<std::size_t>(rng_.uniform_int(0, 2));
        if (timer_place_[k] >= 0) {
          places_[static_cast<std::size_t>(timer_place_[k])].live = false;
          ++counts.rearms;
        }
        timer_place_[k] = record(when, next_seq());
        timers_[k].arm(when);
        break;
      }
      default: {
        const auto k = static_cast<std::size_t>(rng_.uniform_int(0, 2));
        if (timer_place_[k] >= 0) {
          places_[static_cast<std::size_t>(timer_place_[k])].live = false;
          timer_place_[k] = -1;
          ++counts.disarms;
        }
        timers_[k].disarm();
        break;
      }
    }
  }

  ms::Engine engine_;
  mpath::util::Rng rng_;
  std::vector<Place> places_;
  std::vector<Actor> actors_;
  std::vector<int> actor_item_;  ///< queued item per actor, or -1
  std::deque<ms::Timer> timers_;
  std::vector<int> timer_place_;  ///< pending place per timer, or -1
  std::deque<ms::Latch> latches_;  ///< back() collects new waiters
  std::deque<Waiter> waiters_;
  std::vector<Waiter*> waiting_;  ///< waiters on latches_.back()
  std::vector<Reservation> reservations_;
};

}  // namespace

TEST(EngineOrder, MixedQueueingDispatchesInTimeSeqOrder) {
  Program::Counts total;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Program program(seed);
    program.run();
    const std::vector<Firing> want = program.reference();
    ASSERT_EQ(program.log.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(program.log[i], want[i]) << "seed " << seed << " firing " << i;
    }
    EXPECT_EQ(program.engine().queued_event_count(), 0u);
    const Program::Counts& c = program.counts;
    total.now_events += c.now_events;
    total.later_events += c.later_events;
    total.reserved += c.reserved;
    total.waiters_batched += c.waiters_batched;
    total.rearms += c.rearms;
    total.disarms += c.disarms;
    total.timer_firings += c.timer_firings;
  }
  // Every path the order depends on ran, many times over.
  EXPECT_GT(total.now_events, 1000);
  EXPECT_GT(total.later_events, 1000);
  EXPECT_GT(total.reserved, 100);
  EXPECT_GT(total.waiters_batched, 100);
  EXPECT_GT(total.rearms, 100);
  EXPECT_GT(total.disarms, 100);
  EXPECT_GT(total.timer_firings, 100);
}

// Re-arming replaces the pending firing, earlier or later, and the timer
// fires once, in the place of its last arm() among same-instant events.
TEST(Timer, ReArmReplacesThePendingFiring) {
  ms::Engine e;
  std::vector<int> order;
  ms::Timer timer(e, [&] { order.push_back(0); });
  e.schedule_callback(1.0, [&] {
    order.push_back(1);
    timer.arm(3.0);  // later: supersedes the 1.0 firing still ahead
    e.schedule_callback(3.0, [&] { order.push_back(3); });
  });
  timer.arm(2.0);
  timer.arm(1.0);  // earlier
  e.schedule_callback(3.0, [&] {
    order.push_back(2);
    EXPECT_TRUE(timer.armed());
  });
  EXPECT_EQ(e.queued_event_count(), 3u);
  // Both callbacks, then one firing at 3.0: after the 3.0 callback queued
  // before the re-arm, ahead of the one queued after it.
  EXPECT_EQ(e.run(), 4u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0, 3}));
  EXPECT_FALSE(timer.armed());
  EXPECT_EQ(e.now(), 3.0);
}

TEST(Timer, DisarmDropsThePendingFiring) {
  ms::Engine e;
  int fired = 0;
  ms::Timer timer(e, [&] { ++fired; });
  timer.arm(5.0);
  e.schedule_callback(1.0, [&] { timer.disarm(); });
  EXPECT_EQ(e.run(), 1u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(e.now(), 1.0);  // the drain never reached the dropped deadline
  EXPECT_EQ(e.queued_event_count(), 0u);
}

TEST(Timer, DestroyedWhileArmedLeavesNothingToFire) {
  ms::Engine e;
  auto timer = std::make_unique<ms::Timer>(e, [] { ADD_FAILURE(); });
  timer->arm(2.0);
  e.schedule_callback(1.0, [&] { timer.reset(); });
  EXPECT_EQ(e.run(), 1u);
  EXPECT_EQ(e.queued_event_count(), 0u);
}

TEST(Timer, ArmRejectsNaNTime) {
  ms::Engine e;
  ms::Timer timer(e, [] {});
  EXPECT_THROW(timer.arm(std::numeric_limits<double>::quiet_NaN()),
               ms::SimError);
  EXPECT_FALSE(timer.armed());
}

// queued_event_count() sees every pending firing: lane, heap and timers.
TEST(Engine, QueuedEventCountIncludesLaneHeapAndTimers) {
  ms::Engine e;
  ms::Timer timer(e, [] {});
  e.defer([] {});                     // lane
  e.schedule_callback(1.0, [] {});    // heap
  e.schedule_callback(0.0, [] {});    // lane
  timer.arm(0.5);
  EXPECT_EQ(e.queued_event_count(), 4u);
  timer.disarm();
  EXPECT_EQ(e.queued_event_count(), 3u);
  EXPECT_EQ(e.run(), 3u);
  EXPECT_EQ(e.queued_event_count(), 0u);
}
