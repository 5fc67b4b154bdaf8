#include "mpath/sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "mpath/sim/trace.hpp"
#include "mpath/util/log.hpp"

namespace mpath::sim {

void Latch::fire() {
  if (fired_) return;
  fired_ = true;
  // Resume via the event queue (at the current time) rather than inline, so
  // that firing a latch from deep inside another coroutine cannot reenter
  // arbitrary user state.
  Awaiter* head = head_;
  head_ = nullptr;
  tail_ = nullptr;
  if (head == nullptr) return;
  if (head->next == nullptr && head->fn == nullptr) {
    engine_->schedule_handle(engine_->now(), head->handle);
    return;
  }
  // Batch multi-waiter wakeups into one queue event. Scheduling the
  // waiters individually would hand them consecutive sequence numbers, so
  // nothing could interleave between their wakeups anyway — waking them
  // back-to-back from a single event is observably identical while costing
  // one queue operation instead of k. The chain nodes are the waiters
  // themselves (awaiters in coroutine frames, or callback nodes in their
  // records), so read `next` before waking: a wakeup may destroy its node.
  engine_->schedule_callback(engine_->now(), [head]() {
    Awaiter* p = head;
    while (p != nullptr) {
      Awaiter* n = p->next;
      p->wake();
      p = n;
    }
  });
}

Engine::~Engine() {
  // Destroy any still-suspended root frames. Their Task destructors handle
  // frame destruction; the queue may still hold handles into those frames,
  // but it is destroyed without resuming anything. Armed timers are
  // detached first, so a timer destroyed later (or by a frame below) does
  // not reach back into this engine.
  for (Timer* timer = timers_; timer != nullptr; timer = timer->next_) {
    timer->armed_ = false;
  }
  timers_ = nullptr;
  next_timer_ = nullptr;
  // Empty the queue before any payload or frame dies, so a cancel() from a
  // capture or frame being destroyed below finds nothing to do.
  size_ = 0;
  slots_.clear();
  roots_.clear();
  if (proc_slab_ != nullptr) {
    // Process handles may outlive the engine; the last one frees the slab.
    if (proc_slab_->checked_out == 0) {
      delete proc_slab_;
    } else {
      proc_slab_->orphaned = true;
    }
  }
}

Time Engine::checked_time(Time t) const {
  if (t >= now_) return t;
  if (std::isnan(t)) {
    throw SimError("Engine: event time is NaN at t=" + std::to_string(now_));
  }
  assert(false && "cannot schedule in the past");
  return now_;
}

EventRef Engine::push_event(Time t, std::uint64_t seq,
                            std::coroutine_handle<> h, EventFn&& fn) {
  MPATH_ASSERT_OWNER(owner_, "sim::Engine (event scheduling)");
  if (!(t >= now_)) t = checked_time(t);
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot].handle = h;
    slots_[slot].callback = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    if (slot > kSlotMask) {
      throw SimError("Engine: event payload slots exhausted (2^24 in flight)");
    }
    slots_.push_back(EventSlot{h, std::move(fn)});
  }
  const Entry e{t, (seq << kSlotBits) | slot};
  if (size_ == queue_.size()) grow_queue();
  // Most events sort after everything queued: a fresh seq at the latest
  // queued time, or a time beyond it. The rest are usually due soon, so
  // their rank is among the first few entries; deeper ones binary-search.
  if (size_ == 0 || !earlier(e, at(size_ - 1).t, at(size_ - 1).key)) {
    at(size_) = e;
  } else {
    const std::size_t scan = std::min(size_, kFrontScan);
    std::size_t i = 0;
    while (i < scan && earlier(at(i), e.t, e.key)) ++i;
    insert_at(i < scan ? i : lower_bound(e.t, e.key, scan), e);
  }
  ++size_;
  return EventRef{e.t, e.key};
}

std::size_t Engine::lower_bound(Time t, std::uint64_t key, std::size_t from) {
  std::size_t lo = from;
  std::size_t hi = size_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (earlier(at(mid), t, key)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void Engine::insert_at(std::size_t i, Entry e) {
  const std::size_t mask = queue_.size() - 1;
  if (i < size_ - i) {
    head_ = (head_ + mask) & mask;
    for (std::size_t j = 0; j < i; ++j) at(j) = at(j + 1);
  } else {
    for (std::size_t j = size_; j > i; --j) at(j) = at(j - 1);
  }
  at(i) = e;
}

void Engine::erase_at(std::size_t i) {
  if (i < size_ - 1 - i) {
    for (std::size_t j = i; j > 0; --j) at(j) = at(j - 1);
    head_ = (head_ + 1) & (queue_.size() - 1);
  } else {
    for (std::size_t j = i; j + 1 < size_; ++j) at(j) = at(j + 1);
  }
  --size_;
}

void Engine::grow_queue() {
  // Double the ring, unrolling it so the front entry lands at index 0.
  std::vector<Entry> grown(std::max<std::size_t>(64, 2 * queue_.size()));
  for (std::size_t i = 0; i < size_; ++i) grown[i] = at(i);
  queue_ = std::move(grown);
  head_ = 0;
}

void Engine::cancel(EventRef ref) {
  MPATH_ASSERT_OWNER(owner_, "sim::Engine (cancel)");
  if (size_ == 0) return;
  const std::size_t i = lower_bound(ref.t, ref.key, 0);
  if (i == size_ || at(i).t != ref.t || at(i).key != ref.key) return;
  erase_at(i);
  const auto slot = static_cast<std::uint32_t>(ref.key & kSlotMask);
  // Destroy the captures outside the slab: a capture's destructor may
  // queue work, which can grow the slab or reuse this slot.
  EventFn dropped = std::move(slots_[slot].callback);
  free_slots_.push_back(slot);
}

void Engine::schedule_handle(Time t, std::coroutine_handle<> h) {
  push_event(t, reserve_seq(), h, EventFn{});
}

EventRef Engine::schedule_callback(Time t, EventFn fn) {
  return push_event(t, reserve_seq(), nullptr, std::move(fn));
}

void Engine::schedule_reserved(std::uint64_t seq, EventFn fn) {
  assert(seq > current_seq_ && seq < next_seq_ &&
         "schedule_reserved: place already dispatched or never reserved");
  push_event(now_, seq, nullptr, std::move(fn));
}

void Engine::arm_timer(Timer& timer, Time t) {
  timer.t_ = checked_time(t);
  timer.seq_ = reserve_seq();
  if (!timer.armed_) {
    timer.armed_ = true;
    timer.prev_ = nullptr;
    timer.next_ = timers_;
    if (timers_ != nullptr) timers_->prev_ = &timer;
    timers_ = &timer;
    ++armed_timers_;
  }
  update_next_timer();
}

void Engine::disarm_timer(Timer& timer) {
  MPATH_ASSERT_OWNER(owner_, "sim::Engine (timer)");
  if (timer.prev_ != nullptr) {
    timer.prev_->next_ = timer.next_;
  } else {
    timers_ = timer.next_;
  }
  if (timer.next_ != nullptr) timer.next_->prev_ = timer.prev_;
  timer.armed_ = false;
  --armed_timers_;
  update_next_timer();
}

void Engine::update_next_timer() {
  next_timer_ = nullptr;
  for (Timer* timer = timers_; timer != nullptr; timer = timer->next_) {
    if (next_timer_ == nullptr || timer->t_ < next_timer_->t_ ||
        (timer->t_ == next_timer_->t_ && timer->seq_ < next_timer_->seq_)) {
      next_timer_ = timer;
    }
  }
}

namespace {
Task<void> run_root(Task<void> inner, detail::ProcRef state) {
  try {
    co_await std::move(inner);
  } catch (...) {
    state->exception = std::current_exception();
  }
  state->done.fire();
}
}  // namespace

Process Engine::spawn(Task<void> task, std::string name) {
  MPATH_ASSERT_OWNER(owner_, "sim::Engine (spawn)");
  // Amortized reclamation: sweeping on a doubling watermark keeps spawn
  // O(1) amortized even when millions of short-lived processes are created
  // (isend/irecv spawn one per message, open-loop traffic one per arrival).
  // GPU stream operations are ring entries, not processes.
  if (roots_.size() >= sweep_watermark_) {
    sweep_completed_roots();
    sweep_watermark_ = std::max<std::size_t>(1024, 2 * roots_.size());
  }
  if (proc_slab_ == nullptr) proc_slab_ = new detail::ProcSlab;
  detail::ProcRef state(proc_slab_->acquire(*this));
  Task<void> root = run_root(std::move(task), state);
  const auto handle = root.raw_handle();
  roots_.push_back(Root{std::move(root), state, std::move(name)});
  ++live_roots_;
  schedule_handle(now_, handle);
  return Process(std::move(state));
}

void Engine::sweep_completed_roots() {
  std::erase_if(roots_, [](const Root& r) {
    if (!r.task.done()) return false;
    // Keep unobserved failures so run() can report them.
    return !(r.state->exception && !r.state->observed);
  });
  std::size_t live = 0;
  for (const Root& r : roots_) {
    if (!r.task.done()) ++live;
  }
  live_roots_ = live;
}

void Engine::check_quiescence() const {
  std::size_t blocked = 0;
  std::string first_name;
  for (const Root& r : roots_) {
    if (!r.task.done()) {
      ++blocked;
      if (first_name.empty()) first_name = r.name.empty() ? "<anon>" : r.name;
    }
  }
  if (blocked > 0) {
    throw SimError("simulation deadlock: " + std::to_string(blocked) +
                   " process(es) still blocked at t=" + std::to_string(now_) +
                   " (first: " + first_name + ")");
  }
  for (const Root& r : roots_) {
    if (r.state->exception && !r.state->observed) {
      std::string name = r.name.empty() ? "<anon>" : r.name;
      try {
        std::rethrow_exception(r.state->exception);
      } catch (const std::exception& e) {
        throw SimError("unjoined process '" + name + "' failed: " + e.what());
      } catch (...) {
        throw SimError("unjoined process '" + name +
                       "' failed with a non-std exception");
      }
    }
  }
}

std::uint64_t Engine::run() {
  MPATH_ASSERT_OWNER(owner_, "sim::Engine (run)");
  std::uint64_t processed = 0;
  for (;;) {
    Timer* timer = next_timer_;
    if (size_ == 0 && timer == nullptr) break;
    if (size_ > 0 &&
        (timer == nullptr || earlier(queue_[head_], timer->t_,
                                     timer->seq_ << kSlotBits))) {
      const Entry e = queue_[head_];
      head_ = (head_ + 1) & (queue_.size() - 1);
      --size_;
      now_ = e.t;
      current_seq_ = e.key >> kSlotBits;
      const auto slot = static_cast<std::uint32_t>(e.key & kSlotMask);
      // Move the payload out and recycle the slot *before* invoking: the
      // event may schedule new work, which can then reuse this slot.
      const std::coroutine_handle<> handle = slots_[slot].handle;
      EventFn callback = std::move(slots_[slot].callback);
      slots_[slot].handle = nullptr;
      free_slots_.push_back(slot);
      if (handle) {
        handle.resume();
      } else {
        callback();
      }
    } else {
      // Disarm before firing, so the callback may re-arm.
      now_ = timer->t_;
      current_seq_ = timer->seq_;
      disarm_timer(*timer);
      timer->fn_();
    }
    ++processed;
    if (tracer_ != nullptr && --trace_countdown_ == 0) {
      trace_countdown_ = trace_stride_;
      tracer_->add_counter("engine", "event_queue_depth", now_,
                           static_cast<double>(queued_event_count()));
    }
  }
  sweep_completed_roots();
  check_quiescence();
  roots_.clear();
  return processed;
}

}  // namespace mpath::sim
