// Size-bucketed free-list recycler for hot-path heap objects: coroutine
// frames (Task promises), latches, make_pooled objects (event latches),
// gpusim's per-stream lanes and their ring chunks and chunk maps, and a
// pipeline run's per-path leases and watchdog entries (blocks of at most
// 8 KiB; stream ops themselves are ring entries and take no block each).
// Freed blocks are cached in thread-local buckets and handed back on the
// next same-size allocation, so a steady-state workload stops calling the
// global allocator entirely after its first few transfers warm the pools,
// and a fresh simulation stack built on a warm pool takes its blocks from
// it.
//
// Under AddressSanitizer the pool is compiled as a passthrough to the
// global allocator: recycling would mask use-after-free on pooled objects
// and skew leak accounting, and the allocation-regression tests are gated
// off under sanitizers anyway.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#if defined(__SANITIZE_ADDRESS__)
#define MPATH_POOL_PASSTHROUGH 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MPATH_POOL_PASSTHROUGH 1
#endif
#endif

namespace mpath::sim::detail {

/// Allocate `n` bytes from the thread-local pool (recycled when a same-size
/// class block is available). Sizes above the bucket range fall through to
/// `::operator new`.
[[nodiscard]] void* pool_alloc(std::size_t n);
/// Return a pool_alloc'd block. Must be passed the same `n`.
void pool_free(void* p, std::size_t n) noexcept;

struct PoolCounters {
  std::uint64_t allocs = 0;       ///< pool_alloc calls in bucket range
  std::uint64_t hits = 0;         ///< served from a free list (no heap)
  std::uint64_t passthrough = 0;  ///< out-of-range sizes sent to ::new
};
/// This thread's counters (monotonic; test/debug aid).
[[nodiscard]] PoolCounters pool_counters() noexcept;

/// std::allocator-compatible adapter so std::allocate_shared control blocks
/// recycle through the pool (make_shared would hit the global allocator on
/// every stream op).
template <typename T>
struct PoolAllocator {
  using value_type = T;
  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT

  [[nodiscard]] T* allocate(std::size_t k) {
    return static_cast<T*>(pool_alloc(k * sizeof(T)));
  }
  void deallocate(T* p, std::size_t k) noexcept {
    pool_free(p, k * sizeof(T));
  }
  friend bool operator==(const PoolAllocator&, const PoolAllocator&) {
    return true;
  }
};

}  // namespace mpath::sim::detail

namespace mpath::sim {

/// make_shared with pool-recycled control-block storage.
template <typename T, typename... Args>
[[nodiscard]] std::shared_ptr<T> make_pooled(Args&&... args) {
  return std::allocate_shared<T>(detail::PoolAllocator<T>{},
                                 std::forward<Args>(args)...);
}

}  // namespace mpath::sim
