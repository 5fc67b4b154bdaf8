// Lazy, continuation-passing coroutine task for the discrete-event engine.
//
// A Task<T> does nothing until awaited (or spawned on an Engine). When the
// child completes, control transfers symmetrically back to the awaiting
// coroutine. Exceptions propagate through co_await.
//
// Ownership: the Task object owns the coroutine frame; destroying a Task
// whose coroutine is still suspended inside the engine's event queue is a
// programming error (use Engine::spawn for detached work).
#pragma once

#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "mpath/sim/pool.hpp"

namespace mpath::sim {

template <typename T = void>
class Task;

namespace detail {

struct TaskPromiseBase {
  std::coroutine_handle<> continuation = std::noop_coroutine();
  std::exception_ptr exception;

  // Coroutine frames are a steady-state allocation (several per transfer,
  // message and collective); recycle them through the simulator pool.
  static void* operator new(std::size_t n) { return pool_alloc(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    pool_free(p, n);
  }

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      return h.promise().continuation;
    }
    void await_resume() const noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

template <typename T>
struct TaskPromise final : TaskPromiseBase {
  std::optional<T> value;
  Task<T> get_return_object() noexcept;
  void return_value(T v) { value.emplace(std::move(v)); }
};

template <>
struct TaskPromise<void> final : TaskPromiseBase {
  Task<void> get_return_object() noexcept;
  void return_void() noexcept {}
};

}  // namespace detail

template <typename T>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::TaskPromise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() noexcept = default;
  explicit Task(Handle h) noexcept : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const noexcept { return bool(handle_); }
  [[nodiscard]] bool done() const noexcept { return !handle_ || handle_.done(); }
  [[nodiscard]] std::coroutine_handle<> raw_handle() const noexcept {
    return handle_;
  }

  struct Awaiter {
    Handle handle;
    bool await_ready() const noexcept { return !handle || handle.done(); }
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<> continuation) noexcept {
      handle.promise().continuation = continuation;
      return handle;  // symmetric transfer: start the child now
    }
    T await_resume() {
      auto& promise = handle.promise();
      if (promise.exception) std::rethrow_exception(promise.exception);
      if constexpr (!std::is_void_v<T>) {
        return std::move(*promise.value);
      }
    }
  };

  Awaiter operator co_await() const& noexcept { return Awaiter{handle_}; }
  Awaiter operator co_await() && noexcept { return Awaiter{handle_}; }

 private:
  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  Handle handle_;
};

namespace detail {

template <typename T>
Task<T> TaskPromise<T>::get_return_object() noexcept {
  return Task<T>(std::coroutine_handle<TaskPromise<T>>::from_promise(*this));
}

inline Task<void> TaskPromise<void>::get_return_object() noexcept {
  return Task<void>(
      std::coroutine_handle<TaskPromise<void>>::from_promise(*this));
}

}  // namespace detail

}  // namespace mpath::sim
