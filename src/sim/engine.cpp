#include "mpath/sim/engine.hpp"

#include <algorithm>
#include <cassert>

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
  // A waiter that reserved a place at this instant which the engine has not
  // dispatched yet wakes in that place: where an event queued at its
  // reservation would have run.
  for (Awaiter** link = &head; *link != nullptr;) {
    Awaiter* w = *link;
    if (w->seq != 0 && w->at == engine_->now() &&
        w->seq > engine_->current_seq()) {
      *link = w->next;
      engine_->schedule_reserved(w->seq, [w] { w->wake(); });
    } else {
      link = &w->next;
    }
  }
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
  // but it is destroyed without resuming anything.
  heap_.clear();
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

void Engine::push_event(Time t, std::uint64_t seq, std::coroutine_handle<> h,
                        EventFn fn) {
  MPATH_ASSERT_OWNER(owner_, "sim::Engine (event scheduling)");
  assert(t >= now_ && "cannot schedule in the past");
  if (t < now_) t = now_;
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
  heap_.push_back(HeapEntry{t, (seq << kSlotBits) | slot});
  std::push_heap(heap_.begin(), heap_.end(), EventLater{});
}

std::uint64_t Engine::reserve_seq() {
  MPATH_ASSERT_OWNER(owner_, "sim::Engine (event scheduling)");
  if (next_seq_ >= (1ull << (64 - kSlotBits))) {
    throw SimError("Engine: event sequence numbers exhausted");
  }
  return next_seq_++;
}

void Engine::schedule_handle(Time t, std::coroutine_handle<> h) {
  push_event(t, reserve_seq(), h, EventFn{});
}

void Engine::schedule_callback(Time t, EventFn fn) {
  push_event(t, reserve_seq(), nullptr, std::move(fn));
}

void Engine::defer(EventFn fn) {
  // Monotone sequence numbers order same-time events FIFO, so this runs
  // after everything already queued at now() and before later arrivals.
  push_event(now_, reserve_seq(), nullptr, std::move(fn));
}

void Engine::schedule_reserved(std::uint64_t seq, EventFn fn) {
  assert(seq > current_seq_ && seq < next_seq_ &&
         "schedule_reserved: place already dispatched or never reserved");
  push_event(now_, seq, nullptr, std::move(fn));
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
  // GPU stream operations are pooled records, not processes.
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
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), EventLater{});
    const HeapEntry ev = heap_.back();
    heap_.pop_back();
    now_ = ev.t;
    current_seq_ = ev.key >> kSlotBits;
    const auto slot = static_cast<std::uint32_t>(ev.key & kSlotMask);
    // Move the payload out and recycle the slot *before* invoking: the
    // event may schedule new work, which can then reuse this slot.
    const std::coroutine_handle<> handle = slots_[slot].handle;
    EventFn callback = std::move(slots_[slot].callback);
    slots_[slot].handle = nullptr;
    slots_[slot].callback.reset();
    free_slots_.push_back(slot);
    if (handle) {
      handle.resume();
    } else {
      callback();
    }
    ++processed;
    if (tracer_ != nullptr && --trace_countdown_ == 0) {
      trace_countdown_ = trace_stride_;
      tracer_->add_counter("engine", "event_queue_depth", now_,
                           static_cast<double>(heap_.size()));
    }
  }
  sweep_completed_roots();
  check_quiescence();
  roots_.clear();
  return processed;
}

}  // namespace mpath::sim
