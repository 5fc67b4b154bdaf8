// Non-allocating move-only callable with fixed small-buffer storage.
//
// std::function heap-allocates any capture larger than two pointers, which
// made every Engine::schedule_callback on the hot path an allocation.
// InlineFn stores the callable inline (no heap fallback): a capture that
// does not fit is a compile-time error, so the event hot path cannot
// silently regress back to allocating. Unlike std::function it also accepts
// move-only captures (latch handles, SmallVec payloads).
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace mpath::sim {

/// Default SBO budget for engine-event callbacks: enough for a `this`
/// pointer plus several words of captured state (see DESIGN.md,
/// "Allocation & pooling").
inline constexpr std::size_t kInlineFnCapacity = 64;

template <typename Sig, std::size_t Cap = kInlineFnCapacity>
class InlineFn;

template <typename R, typename... Args, std::size_t Cap>
class InlineFn<R(Args...), Cap> {
 public:
  // User-provided, not `= default`: value-initialization (`InlineFn{}`, a
  // `= {}` default argument) would otherwise zero the whole inline buffer
  // before running the constructor, on every empty event callback.
  InlineFn() noexcept {}

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InlineFn>)
  InlineFn(F&& f) {  // NOLINT(runtime/explicit) — mirrors std::function
    using Fn = std::remove_cvref_t<F>;
    static_assert(sizeof(Fn) <= Cap,
                  "capture too large for InlineFn's inline storage — shrink "
                  "the capture (bundle state behind one pointer) or raise Cap");
    static_assert(alignof(Fn) <= alignof(std::max_align_t));
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "InlineFn requires nothrow-movable callables");
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    invoke_ = [](void* p, Args... args) -> R {
      return (*static_cast<Fn*>(p))(std::forward<Args>(args)...);
    };
    relocate_ = [](void* dst, void* src) noexcept {
      Fn* s = static_cast<Fn*>(src);
      ::new (dst) Fn(std::move(*s));
      s->~Fn();
    };
    if constexpr (!std::is_trivially_destructible_v<Fn>) {
      destroy_ = [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); };
    }
  }

  InlineFn(InlineFn&& other) noexcept { move_from(other); }
  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  void reset() noexcept {
    if (destroy_ != nullptr) destroy_(buf_);
    invoke_ = nullptr;
    relocate_ = nullptr;
    destroy_ = nullptr;
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return invoke_ != nullptr;
  }

  R operator()(Args... args) {
    return invoke_(buf_, std::forward<Args>(args)...);
  }

 private:
  void move_from(InlineFn& other) noexcept {
    if (other.invoke_ == nullptr) return;
    other.relocate_(buf_, other.buf_);
    invoke_ = std::exchange(other.invoke_, nullptr);
    relocate_ = std::exchange(other.relocate_, nullptr);
    destroy_ = std::exchange(other.destroy_, nullptr);
  }

  R (*invoke_)(void*, Args...) = nullptr;
  void (*relocate_)(void* dst, void* src) noexcept = nullptr;
  void (*destroy_)(void*) noexcept = nullptr;  ///< null for trivial captures
  alignas(std::max_align_t) std::byte buf_[Cap];
};

}  // namespace mpath::sim
