// Dispatch order of sim::Engine across its two sources of work, the sorted
// event ring and re-armable timers, and cancellation of queued callbacks.
//
// The first differential test runs a seeded random program that queues work
// every way the engine offers: schedule_handle and schedule_callback (at
// now() and later), reserve_seq + schedule_reserved, Latch::fire over
// callback waiters, and Timer arm / re-arm / disarm. Times sit on a 1/4
// grid, so exact ties between queued events and timers are common. Every
// queued firing is recorded with the (t, seq) place it was given, and the
// dispatch log of (now(), current_seq()) must equal those places sorted by
// (t, seq), with no superseded or disarmed timer firing in it.
//
// The second interleaves 100k queueing and cancel() calls over a queue a
// few hundred entries deep, near-future and far-future times mixed, and
// checks every dispatch against an ordered set of the pending places.
#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
#include <ostream>
#include <set>
#include <stdexcept>
#include <utility>
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

  /// Log the firing, queue its successor (a callback or actor resume, so
  /// the program lives until kItems) and do up to two more actions of any
  /// kind.
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
        engine_.schedule_callback(now, [this, id] { step(id); });
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

// queued_event_count() sees every pending firing: queued events, whether
// due now or later, and armed timers.
TEST(Engine, QueuedEventCountIncludesQueueAndTimers) {
  ms::Engine e;
  ms::Timer timer(e, [] {});
  e.schedule_callback(e.now(), [] {});
  e.schedule_callback(1.0, [] {});
  e.schedule_callback(0.0, [] {});
  timer.arm(0.5);
  EXPECT_EQ(e.queued_event_count(), 4u);
  timer.disarm();
  EXPECT_EQ(e.queued_event_count(), 3u);
  EXPECT_EQ(e.run(), 3u);
  EXPECT_EQ(e.queued_event_count(), 0u);
}

namespace {

/// Seeded random program of 100k queueing and cancel() calls. Every queued
/// place goes into an ordered set, a cancel that hits leaves it, and each
/// dispatch must be the set's least place. Each dispatch makes random calls
/// until it queued two events while the queue is shallower than its target
/// and one when deeper, so the depth holds at a few hundred entries; times
/// are mostly near (front-scan inserts) with a share far ahead
/// (binary-search inserts deep in the ring, and cancels there).
class CancelProgram {
 public:
  static constexpr int kOps = 100000;
  static constexpr std::size_t kTargetDepth = 300;
  static constexpr int kActors = 8;

  explicit CancelProgram(std::uint64_t seed) : rng_(seed) {
    for (int i = 0; i < kActors; ++i) {
      actors_.push_back(actor(i));
      actor_queued_.push_back(false);
    }
  }
  CancelProgram(const CancelProgram&) = delete;
  CancelProgram& operator=(const CancelProgram&) = delete;
  ~CancelProgram() {
    for (Actor& a : actors_) a.handle.destroy();
  }

  void run() {
    while (pending_.size() < kTargetDepth && ops < kOps) act();
    engine_.run();
  }

  [[nodiscard]] bool drained() const { return pending_.empty(); }
  ms::Engine& engine() { return engine_; }

  int ops = 0;
  std::uint64_t dispatched = 0;
  std::size_t max_depth = 0;
  int cancels_hit = 0, cancels_missed = 0, reserved = 0, deep_inserts = 0;

 private:
  using Place = std::pair<double, std::uint64_t>;
  struct Queued {
    ms::EventRef ref;
    Place place;
    int id;
  };

  Actor actor(int index) {
    for (;;) {
      actor_queued_[static_cast<std::size_t>(index)] = false;
      on_dispatch();
      co_await std::suspend_always{};
    }
  }

  std::uint64_t next_seq() { return engine_.reserve_seq() + 1; }

  void on_dispatch() {
    const Place now{engine_.now(), engine_.current_seq()};
    ASSERT_FALSE(pending_.empty()) << "dispatch with nothing pending";
    ASSERT_EQ(*pending_.begin(), now) << "dispatch " << dispatched;
    pending_.erase(pending_.begin());
    ++dispatched;
    max_depth = std::max(max_depth, engine_.queued_event_count());
    const int want = pending_.size() < kTargetDepth ? 2 : 1;
    for (int queued = 0; queued < want && ops < kOps;) {
      if (act()) ++queued;
    }
  }

  void on_callback(int id) {
    ASSERT_FALSE(cancelled_[static_cast<std::size_t>(id)])
        << "cancelled callback " << id << " ran";
    last_ran_ = queued_index_[static_cast<std::size_t>(id)];
    on_dispatch();
  }

  int new_id() {
    cancelled_.push_back(false);
    queued_index_.push_back(-1);
    return static_cast<int>(cancelled_.size()) - 1;
  }

  /// A time on a 1/4 grid: now, a step or two ahead, or far ahead.
  double when() {
    const double now = engine_.now();
    switch (rng_.uniform_int(0, 3)) {
      case 0:
        return now;
      case 1:
      case 2:
        return now + 0.25 * static_cast<double>(rng_.uniform_int(1, 8));
      default:
        ++deep_inserts;
        return now + 0.25 * static_cast<double>(rng_.uniform_int(40, 400));
    }
  }

  /// One random call; true if it queued an event.
  bool act() {
    ++ops;
    const double now = engine_.now();
    switch (rng_.uniform_int(0, 6)) {
      case 0:
      case 1: {
        const double t = when();
        const Place place{t, next_seq()};
        const int id = new_id();
        const ms::EventRef ref =
            engine_.schedule_callback(t, [this, id] { on_callback(id); });
        pending_.insert(place);
        queued_index_.back() = static_cast<std::int64_t>(queued_.size());
        queued_.push_back(Queued{ref, place, id});
        return true;
      }
      case 2: {
        for (std::size_t i = 0; i < actors_.size(); ++i) {
          if (actor_queued_[i]) continue;
          const double t = when();
          pending_.insert({t, next_seq()});
          actor_queued_[i] = true;
          engine_.schedule_handle(t, actors_[i].handle);
          return true;
        }
        return false;
      }
      case 3: {
        const int id = new_id();
        pending_.insert({now, next_seq()});
        engine_.schedule_callback(now, [this, id] { on_callback(id); });
        return true;
      }
      case 4:
        reservations_.push_back({now, engine_.reserve_seq()});
        return false;
      case 5: {
        // Use a place reserved at this instant that is still ahead.
        for (std::size_t i = 0; i < reservations_.size(); ++i) {
          const Place r = reservations_[i];
          if (r.first != now || r.second <= engine_.current_seq()) continue;
          reservations_.erase(reservations_.begin() +
                              static_cast<std::ptrdiff_t>(i));
          const int id = new_id();
          pending_.insert(r);
          engine_.schedule_reserved(r.second,
                                    [this, id] { on_callback(id); });
          ++reserved;
          return true;
        }
        return false;
      }
      default: {
        // Cancel the callback that ran last, often while later events of
        // its instant are queued, or one of the last 512 queued: still
        // pending, already run, or already cancelled (its slot may carry a
        // later event by now).
        if (queued_.empty()) return false;
        const auto n = static_cast<std::int64_t>(queued_.size());
        const std::int64_t k =
            last_ran_ >= 0 && rng_.uniform_int(0, 1) == 0
                ? last_ran_
                : rng_.uniform_int(std::max<std::int64_t>(0, n - 512), n - 1);
        const Queued q = queued_[static_cast<std::size_t>(k)];
        const std::size_t before = engine_.queued_event_count();
        engine_.cancel(q.ref);
        if (pending_.erase(q.place) == 1) {
          cancelled_[static_cast<std::size_t>(q.id)] = true;
          ++cancels_hit;
          EXPECT_EQ(engine_.queued_event_count(), before - 1);
        } else {
          ++cancels_missed;
          EXPECT_EQ(engine_.queued_event_count(), before);
        }
        return false;
      }
    }
  }

  ms::Engine engine_;
  mpath::util::Rng rng_;
  std::set<Place> pending_;  ///< the reference: places still due
  std::vector<Queued> queued_;
  std::vector<bool> cancelled_;  ///< per callback id
  std::vector<std::int64_t> queued_index_;  ///< per id: in queued_, or -1
  std::int64_t last_ran_ = -1;  ///< queued_ index of the last run, or -1
  std::vector<Actor> actors_;
  std::vector<bool> actor_queued_;
  std::vector<Place> reservations_;
};

}  // namespace

TEST(EngineOrder, CancelInterleavedDispatchMatchesOrderedSetReference) {
  CancelProgram program(42);
  program.run();
  EXPECT_EQ(program.ops, CancelProgram::kOps);
  EXPECT_TRUE(program.drained());
  EXPECT_EQ(program.engine().queued_event_count(), 0u);
  // Every path the order depends on ran, many times over, with the ring
  // deep enough that inserts and cancels binary-search and shift both ways.
  EXPECT_GT(program.dispatched, 40000u);
  EXPECT_GE(program.max_depth, 250u);
  EXPECT_GT(program.cancels_hit, 2000);
  EXPECT_GT(program.cancels_missed, 5000);
  EXPECT_GT(program.reserved, 3000);
  EXPECT_GT(program.deep_inserts, 4000);
}

// cancel() drops the event and destroys its captures at once, before the
// engine runs again; nothing of it ever runs.
TEST(Engine, CancelDestroysCapturesAndNeverRuns) {
  ms::Engine e;
  auto token = std::make_shared<int>(0);
  const std::weak_ptr<int> alive = token;
  bool ran = false;
  const ms::EventRef ref = e.schedule_callback(
      2.0, [t = std::move(token), &ran] { ran = true; });
  e.schedule_callback(1.0, [] {});
  EXPECT_EQ(e.queued_event_count(), 2u);
  e.cancel(ref);
  EXPECT_TRUE(alive.expired());
  EXPECT_EQ(e.queued_event_count(), 1u);
  EXPECT_EQ(e.run(), 1u);
  EXPECT_FALSE(ran);
  EXPECT_EQ(e.now(), 1.0);  // the drain never reached the cancelled time
}

// A ref names one event. Cancelling it after it ran, or twice, does
// nothing; nor does a default ref. And once its payload slot is reused by
// a later event at the same instant (the freed slot is the only one, so
// the next event takes it), cancelling the old ref leaves that event alone.
TEST(Engine, CancelAfterRunOrSlotReuseIsNoOp) {
  ms::Engine e;
  int first = 0;
  int second = 0;
  const ms::EventRef ref = e.schedule_callback(1.0, [&] { ++first; });
  EXPECT_EQ(e.run(), 1u);
  e.cancel(ref);
  e.cancel(ms::EventRef{});
  e.schedule_callback(1.0, [&] { ++second; });  // same time, same slot
  e.cancel(ref);
  EXPECT_EQ(e.queued_event_count(), 1u);
  EXPECT_EQ(e.run(), 1u);
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);

  const ms::EventRef twice = e.schedule_callback(3.0, [&] { ++first; });
  e.schedule_callback(2.0, [&] { ++second; });
  e.cancel(twice);
  e.cancel(twice);
  EXPECT_EQ(e.queued_event_count(), 1u);
  EXPECT_EQ(e.run(), 1u);
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 2);
}

// A frame destroyed at engine teardown may cancel its pending events from
// a destructor: teardown empties the queue first, so the cancel finds
// nothing and touches no payload (the ASan job runs this).
TEST(Engine, CancelDuringTeardownIsNoOp) {
  struct CancelOnExit {
    ms::Engine* engine;
    ms::EventRef ref;
    ~CancelOnExit() { engine->cancel(ref); }
  };
  int ran = 0;
  auto e = std::make_unique<ms::Engine>();
  ms::Latch never(*e);
  e->spawn([](ms::Engine& eng, ms::Latch& l, int& r) -> ms::Task<void> {
    const CancelOnExit guard{&eng, eng.schedule_callback(5.0, [&r] { ++r; })};
    co_await l.wait();
  }(*e, never, ran));
  e->schedule_callback(1.0, [] { throw std::runtime_error("stop"); });
  EXPECT_THROW(e->run(), std::runtime_error);
  EXPECT_EQ(e->queued_event_count(), 1u);  // the guarded event
  e.reset();
  EXPECT_EQ(ran, 0);
}
