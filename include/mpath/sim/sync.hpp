// Coroutine synchronization primitives layered on the Engine:
//   * Semaphore — counting permits (stream slots, staging-buffer pools),
//   * Barrier — N-party rendezvous (MPI_Barrier building block).
#pragma once

#include <coroutine>
#include <cstddef>
#include <deque>

#include "mpath/sim/engine.hpp"

namespace mpath::sim {

/// Counting semaphore with FIFO wakeup order.
class Semaphore {
 public:
  Semaphore(Engine& engine, std::size_t initial)
      : engine_(&engine), count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  struct Acquirer {
    Semaphore* sem;
    bool await_ready() {
      if (sem->count_ > 0) {
        --sem->count_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      sem->waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] Acquirer acquire() { return Acquirer{this}; }

  /// Release one permit. If a coroutine is waiting, the permit passes
  /// directly to it (resumed via the event queue at the current time).
  void release() {
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      engine_->schedule_handle(engine_->now(), h);
    } else {
      ++count_;
    }
  }

  [[nodiscard]] std::size_t available() const { return count_; }
  [[nodiscard]] std::size_t waiting() const { return waiters_.size(); }

 private:
  Engine* engine_;
  std::size_t count_;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// N-party reusable barrier: the Nth arrival releases everyone.
class Barrier {
 public:
  Barrier(Engine& engine, std::size_t parties)
      : engine_(&engine), parties_(parties) {}
  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  struct Arriver {
    Barrier* barrier;
    bool await_ready() {
      if (barrier->arrived_ + 1 == barrier->parties_) {
        // Last arrival: release the others and pass through.
        barrier->arrived_ = 0;
        for (auto h : barrier->waiters_) {
          barrier->engine_->schedule_handle(barrier->engine_->now(), h);
        }
        barrier->waiters_.clear();
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      ++barrier->arrived_;
      barrier->waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] Arriver arrive() { return Arriver{this}; }

 private:
  Engine* engine_;
  std::size_t parties_;
  std::size_t arrived_ = 0;
  std::deque<std::coroutine_handle<>> waiters_;
};

}  // namespace mpath::sim
