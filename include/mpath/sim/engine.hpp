// Discrete-event simulation engine with a virtual clock.
//
// All simulated activity runs over one Engine: link transfers and MPI ranks
// as coroutines, GPU stream operations as ring entries that event callbacks
// run through one record per stream. Time only advances between events, so
// a whole OSU-style bandwidth sweep executes deterministically in
// milliseconds of wall time.
//
// Every event has a (time, seq) place and runs in that order. Queued events
// are 16-byte {time, seq|slot} entries in one power-of-two ring kept sorted
// by that place: run() pops the front, an event not earlier than the back
// appends, and an earlier one finds its rank by a short scan from the front
// (then a binary search) and shifts the shorter side of the ring, so a
// near-future insert costs the same however much is queued far ahead. A
// queued callback can be cancelled, which drops its entry and destroys its
// captures at once. Re-armable Timers sit outside the ring, so a superseded
// deadline never becomes an event; run() dispatches the lesser of the ring's
// front and the earliest armed timer.
//
// The hot path is allocation-free in steady state: ring entries address a
// recycled slab of payloads (coroutine handle or inline-storage callback —
// no std::function), and spawned-process state comes from an intrusive
// free-list slab instead of make_shared. See DESIGN.md, "Allocation &
// pooling" and "Sorted event ring, cancel & re-armable timers".
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mpath/sim/inline_fn.hpp"
#include "mpath/sim/owner.hpp"
#include "mpath/sim/pool.hpp"
#include "mpath/sim/task.hpp"
#include "mpath/util/small_vec.hpp"

namespace mpath::sim {

using Time = double;  ///< simulated seconds

class Engine;
class Timer;
class Tracer;

/// Error thrown by Engine::run on deadlock or unobserved process failure,
/// by Engine::delay on invalid (NaN/negative) durations, and by the
/// scheduling calls and Timer::arm on a NaN time.
class SimError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Event callback type: inline storage only, so scheduling can never
/// heap-allocate. Captures larger than the SBO budget fail to compile —
/// bundle state behind a single pointer instead.
using EventFn = InlineFn<void()>;

/// A queued callback's place, returned by Engine::schedule_callback for
/// Engine::cancel. Its key holds the event's unique seq, so a ref never
/// names a later event that reuses the payload slot. A default ref names
/// no event.
struct EventRef {
  Time t = 0.0;
  std::uint64_t key = 0;
};

/// One-shot broadcast event. fire() releases every current and future
/// waiter; waiting on an already-fired latch does not suspend.
class Latch {
 public:
  explicit Latch(Engine& engine) : engine_(&engine) {}
  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  // Latches are created per fluid flow and per recorded GPU event on the
  // hot path; recycle their storage through the simulator pool.
  static void* operator new(std::size_t n) { return detail::pool_alloc(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    detail::pool_free(p, n);
  }

  void fire();
  [[nodiscard]] bool fired() const { return fired_; }

  /// Return to the unfired state with no waiters (slab recycling only;
  /// must not be called while waiters are suspended on the latch).
  void reset() {
    fired_ = false;
    head_ = nullptr;
    tail_ = nullptr;
  }

  /// Waiters form an intrusive FIFO list threaded through the awaiters
  /// themselves. A suspended awaiter lives in its coroutine's frame, which
  /// stays alive until the handle is resumed (a callback waiter lives in
  /// its owner, such as a gpusim stream's running record) — so any number
  /// of waiters park on a latch without the latch allocating node storage.
  /// fire() wakes them all at one fresh place, in chain order.
  struct Awaiter {
    Latch* latch = nullptr;
    std::coroutine_handle<> handle{};
    Awaiter* next = nullptr;
    /// Callback waiter (see add_waiter): woken by fn(ctx) instead of a
    /// coroutine resume.
    void (*fn)(void*) = nullptr;
    void* ctx = nullptr;
    bool await_ready() const noexcept { return latch->fired_; }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      handle = h;
      latch->append(this);
    }
    void await_resume() const noexcept {}
    void wake() const {
      if (fn != nullptr) {
        fn(ctx);
      } else {
        handle.resume();
      }
    }
  };
  Awaiter wait() { return Awaiter{this}; }

  /// Park a callback waiter on an unfired latch: fire() wakes it through
  /// the event queue like a coroutine waiter, by calling node.fn(node.ctx).
  /// Lets a plain record wait without a coroutine frame; `node` must stay
  /// alive and unmoved until it is woken.
  void add_waiter(Awaiter& node) {
    node.latch = this;
    append(&node);
  }

 private:
  void append(Awaiter* node) {
    node->next = nullptr;
    if (tail_ != nullptr) {
      tail_->next = node;
    } else {
      head_ = node;
    }
    tail_ = node;
  }

  Engine* engine_;
  bool fired_ = false;
  Awaiter* head_ = nullptr;
  Awaiter* tail_ = nullptr;
};

namespace detail {

struct ProcSlab;

/// Completion state of a spawned process. Pool-recycled: lives in a
/// ProcSlab and is handed back when the last ProcRef drops.
struct ProcState {
  explicit ProcState(Engine& engine) : done(engine) {}
  Latch done;
  std::exception_ptr exception;
  ProcSlab* slab = nullptr;
  ProcState* next_free = nullptr;
  std::uint32_t refs = 0;
  bool observed = false;  ///< true once join() delivered the exception
};

/// Free-list slab of ProcStates. The Engine owns one; if Process handles
/// outlive the engine, the slab is orphaned and the last reference frees
/// it. std::deque gives stable addresses across growth.
struct ProcSlab {
  std::deque<ProcState> states;
  ProcState* free_head = nullptr;
  std::size_t checked_out = 0;
  bool orphaned = false;

  ProcState* acquire(Engine& engine) {
    ProcState* st;
    if (free_head != nullptr) {
      st = free_head;
      free_head = st->next_free;
      st->next_free = nullptr;
    } else {
      st = &states.emplace_back(engine);
      st->slab = this;
    }
    ++checked_out;
    return st;
  }

  /// Called when a state's refcount hits zero.
  void recycle(ProcState* st) {
    st->exception = nullptr;
    st->observed = false;
    st->done.reset();
    st->next_free = free_head;
    free_head = st;
    --checked_out;
    if (orphaned && checked_out == 0) delete this;
  }
};

/// Intrusive refcounted handle to a pooled ProcState (single-threaded; the
/// engine and everything on it run on one thread).
class ProcRef {
 public:
  ProcRef() = default;
  explicit ProcRef(ProcState* st) : st_(st) {
    if (st_ != nullptr) ++st_->refs;
  }
  ProcRef(const ProcRef& o) : st_(o.st_) {
    if (st_ != nullptr) ++st_->refs;
  }
  ProcRef(ProcRef&& o) noexcept : st_(std::exchange(o.st_, nullptr)) {}
  ProcRef& operator=(ProcRef o) noexcept {
    std::swap(st_, o.st_);
    return *this;
  }
  ~ProcRef() { release(); }

  [[nodiscard]] ProcState* get() const noexcept { return st_; }
  ProcState* operator->() const noexcept { return st_; }
  [[nodiscard]] explicit operator bool() const noexcept {
    return st_ != nullptr;
  }

 private:
  void release() noexcept {
    if (st_ != nullptr && --st_->refs == 0) st_->slab->recycle(st_);
    st_ = nullptr;
  }
  ProcState* st_ = nullptr;
};

}  // namespace detail

/// Handle to a detached coroutine started with Engine::spawn. Join is
/// optional; unjoined failures surface at the end of Engine::run().
class Process {
 public:
  Process() = default;
  explicit Process(detail::ProcRef state) : state_(std::move(state)) {}

  [[nodiscard]] bool valid() const { return bool(state_); }
  [[nodiscard]] bool done() const { return state_ && state_->done.fired(); }

  struct Joiner {
    detail::ProcRef state;
    // The latch chain links the awaiter node itself, so it must live here
    // (in the awaiting coroutine's frame), not in a temporary.
    Latch::Awaiter aw{};
    bool await_ready() const noexcept { return state->done.fired(); }
    void await_suspend(std::coroutine_handle<> h) {
      aw.latch = &state->done;
      aw.await_suspend(h);
    }
    void await_resume() const {
      state->observed = true;
      if (state->exception) std::rethrow_exception(state->exception);
    }
  };
  /// Await completion; rethrows the process's exception, if any.
  [[nodiscard]] Joiner join() const { return Joiner{state_}; }

 private:
  detail::ProcRef state_;
};

/// NOT thread-safe: an Engine and everything running on it belong to ONE
/// thread — the first thread that schedules or runs it (checked in debug
/// builds via MPATH_ASSERT_OWNER). Parallel sweeps give every worker its
/// own Engine and share only immutable snapshots across threads.
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  [[nodiscard]] Time now() const { return now_; }

  /// Resume `h` at absolute simulated time `t` (>= now). Throws SimError on
  /// a NaN `t`.
  void schedule_handle(Time t, std::coroutine_handle<> h);
  /// Invoke `fn` at absolute simulated time `t` (>= now). Throws SimError
  /// on a NaN `t`. Same-time events run in sequence order, so at t == now()
  /// `fn` runs after everything already queued for this instant and before
  /// anything queued later. The returned ref can cancel() the event until
  /// it runs.
  EventRef schedule_callback(Time t, EventFn fn);
  /// Drop a queued callback without running it, destroying its captures
  /// now. A no-op when the event already ran or was cancelled (its slot
  /// may since carry another event, which is left alone) and when engine
  /// teardown has cleared the queue.
  void cancel(EventRef ref);

  /// Take the sequence number the next queued event would get, without
  /// queueing one. Same-time events run in sequence order, so this holds a
  /// place for work that may start at the current instant (a gpusim op on
  /// a busy stream, say); an unused number leaves no trace.
  [[nodiscard]] std::uint64_t reserve_seq() {
    MPATH_ASSERT_OWNER(owner_, "sim::Engine (event scheduling)");
    if (next_seq_ >= (1ull << (64 - kSlotBits))) {
      throw SimError("Engine: event sequence numbers exhausted");
    }
    return next_seq_++;
  }
  /// Sequence number of the event being dispatched, or of the last one
  /// dispatched (0 before the first). A number reserved at the current
  /// instant is still ahead iff it is greater.
  [[nodiscard]] std::uint64_t current_seq() const { return current_seq_; }
  /// Invoke `fn` at the current instant in the place of `seq`, a number
  /// reserved at this instant that is still ahead.
  void schedule_reserved(std::uint64_t seq, EventFn fn);

  struct DelayAwaiter {
    Engine* engine;
    Time wake_at;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      engine->schedule_handle(wake_at, h);
    }
    void await_resume() const noexcept {}
  };
  /// Suspend the calling coroutine for `dt` simulated seconds. Throws
  /// SimError on NaN or negative `dt` — callers must not rely on clamping.
  [[nodiscard]] DelayAwaiter delay(Time dt) {
    if (!(dt >= 0.0)) {  // also catches NaN
      throw SimError("Engine::delay: dt must be >= 0 and not NaN (got " +
                     std::to_string(dt) + ") at t=" + std::to_string(now_));
    }
    return DelayAwaiter{this, now_ + dt};
  }

  /// Start a detached coroutine. The engine owns its frame until it
  /// completes. `name` is used in error reports only.
  Process spawn(Task<void> task, std::string name = {});

  /// Run until the event queue drains and no timer is armed. Returns the
  /// number of events processed, timer firings included. Throws SimError if
  /// live processes remain blocked (deadlock) or if a spawned process failed
  /// and was never joined.
  std::uint64_t run();

  [[nodiscard]] std::size_t live_process_count() const { return live_roots_; }
  /// Pending firings: queued events plus armed timers.
  [[nodiscard]] std::size_t queued_event_count() const {
    return size_ + armed_timers_;
  }

  /// Emit "event_queue_depth" counter samples on tracer track "engine",
  /// one every `sample_stride` processed events, timer firings included
  /// (nullptr detaches).
  void set_tracer(Tracer* tracer, std::uint64_t sample_stride = 256) {
    tracer_ = tracer;
    trace_stride_ = sample_stride > 0 ? sample_stride : 1;
    trace_countdown_ = trace_stride_;
  }

 private:
  friend class Timer;

  // Queued events are compact {t, seq|slot} records over a slab of
  // payloads addressed by slot, so shifting the ring moves 16 bytes per
  // entry and payload storage is recycled. `seq` keeps the upper 40 bits of
  // the key: same-time events compare by it alone (slot bits can never
  // tie-break since seq is unique).
  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  /// Entries an insert compares from the front before it binary-searches.
  static constexpr std::size_t kFrontScan = 8;
  struct Entry {
    Time t;
    std::uint64_t key;  ///< (seq << kSlotBits) | payload slot
  };
  static bool earlier(const Entry& a, Time t, std::uint64_t key) {
    return a.t < t || (a.t == t && a.key < key);
  }
  struct EventSlot {
    std::coroutine_handle<> handle;  // set for handle events
    EventFn callback;                // set for callback events
  };
  struct Root {
    Task<void> task;
    detail::ProcRef state;
    std::string name;
  };

  /// `t` itself, or now_ for a past `t` (asserted in debug builds).
  /// Throws SimError on NaN.
  Time checked_time(Time t) const;
  /// Queue a payload at (t, seq); returns the entry's place in the ring.
  EventRef push_event(Time t, std::uint64_t seq, std::coroutine_handle<> h,
                      EventFn&& fn);
  [[nodiscard]] Entry& at(std::size_t i) {
    return queue_[(head_ + i) & (queue_.size() - 1)];
  }
  /// Index of the first entry in [from, size_) not earlier than (t, key).
  [[nodiscard]] std::size_t lower_bound(Time t, std::uint64_t key,
                                        std::size_t from);
  /// Put `e` at index `i` (< size_) of a ring with room, shifting the
  /// shorter side out of its way.
  void insert_at(std::size_t i, Entry e);
  /// Remove the entry at index `i`, closing the gap from the shorter side.
  void erase_at(std::size_t i);
  void grow_queue();
  void arm_timer(Timer& timer, Time t);
  void disarm_timer(Timer& timer);
  void update_next_timer();
  void sweep_completed_roots();
  void check_quiescence() const;

  [[no_unique_address]] ThreadOwner owner_;
  /// Pending events: a power-of-two ring sorted by (t, seq), `size_`
  /// entries from `head_`.
  std::vector<Entry> queue_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  Timer* timers_ = nullptr;      ///< intrusive list of armed timers
  std::size_t armed_timers_ = 0;
  Timer* next_timer_ = nullptr;  ///< least armed (t, seq), or null
  std::vector<EventSlot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Root> roots_;
  detail::ProcSlab* proc_slab_ = nullptr;
  Time now_ = 0.0;
  std::uint64_t next_seq_ = 1;  ///< 0 means "no event" (current_seq_)
  std::uint64_t current_seq_ = 0;
  std::size_t live_roots_ = 0;
  std::size_t sweep_watermark_ = 1024;
  Tracer* tracer_ = nullptr;
  std::uint64_t trace_stride_ = 256;
  std::uint64_t trace_countdown_ = 256;
};

/// Re-armable one-shot event kept outside the event queue. arm(t) takes a
/// fresh sequence number, as scheduling a callback at `t` would, and
/// replaces any pending firing; disarm() drops it. A firing therefore runs
/// in the (t, seq) place a queued callback would have had, while a
/// superseded deadline never becomes an event at all. Destroying an armed
/// timer disarms it. `fn` may re-arm the timer but must not destroy it.
class Timer {
 public:
  Timer(Engine& engine, EventFn fn) : engine_(&engine), fn_(std::move(fn)) {}
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  ~Timer() { disarm(); }

  /// Fire at absolute simulated time `t` (>= now) instead of any pending
  /// time. Throws SimError on a NaN `t`.
  void arm(Time t) { engine_->arm_timer(*this, t); }
  void disarm() {
    if (armed_) engine_->disarm_timer(*this);
  }
  [[nodiscard]] bool armed() const { return armed_; }

 private:
  friend class Engine;

  Engine* engine_;
  EventFn fn_;
  Time t_ = 0.0;
  std::uint64_t seq_ = 0;
  Timer* prev_ = nullptr;  ///< links in the engine's armed list
  Timer* next_ = nullptr;
  bool armed_ = false;
};

}  // namespace mpath::sim
