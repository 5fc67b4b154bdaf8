#include "mpath/sim/pool.hpp"

#include <new>
#include <vector>

namespace mpath::sim::detail {

namespace {

// 64-byte size classes up to 8 KiB cover every pooled object in the stack:
// InlineFn event payloads, Latch, ProcState, shared_ptr control blocks,
// gpusim's stream lanes and ring chunks, and all coroutine frame sizes the
// pipeline/gpusim layers produce. Anything larger is rare enough to pass
// through.
constexpr std::size_t kGranularity = 64;
constexpr std::size_t kMaxPooled = 8192;
constexpr std::size_t kNumBuckets = kMaxPooled / kGranularity;

#if !defined(MPATH_POOL_PASSTHROUGH)

// Tracks whether the thread-local pool is alive. Frees that arrive during
// thread teardown (static destruction order) fall through to the global
// allocator instead of touching a destroyed pool.
thread_local bool g_pool_alive = false;

struct Pool {
  std::vector<void*> buckets[kNumBuckets];
  PoolCounters counters;

  Pool() { g_pool_alive = true; }
  ~Pool() {
    g_pool_alive = false;
    for (auto& bucket : buckets) {
      for (void* p : bucket) ::operator delete(p);
    }
  }
};

Pool& pool() {
  thread_local Pool p;
  return p;
}

#else

thread_local PoolCounters g_passthrough_counters;

#endif  // MPATH_POOL_PASSTHROUGH

}  // namespace

#if defined(MPATH_POOL_PASSTHROUGH)

void* pool_alloc(std::size_t n) {
  ++g_passthrough_counters.passthrough;
  return ::operator new(n);
}

void pool_free(void* p, std::size_t n) noexcept {
  (void)n;
  ::operator delete(p);
}

PoolCounters pool_counters() noexcept { return g_passthrough_counters; }

#else

void* pool_alloc(std::size_t n) {
  if (n == 0) n = 1;
  if (n > kMaxPooled) {
    ++pool().counters.passthrough;
    return ::operator new(n);
  }
  const std::size_t b = (n - 1) / kGranularity;
  Pool& p = pool();
  ++p.counters.allocs;
  auto& bucket = p.buckets[b];
  if (!bucket.empty()) {
    ++p.counters.hits;
    void* block = bucket.back();
    bucket.pop_back();
    return block;
  }
  return ::operator new((b + 1) * kGranularity);
}

void pool_free(void* p, std::size_t n) noexcept {
  if (n == 0) n = 1;
  if (n > kMaxPooled || !g_pool_alive) {
    ::operator delete(p);
    return;
  }
  pool().buckets[(n - 1) / kGranularity].push_back(p);
}

PoolCounters pool_counters() noexcept {
  return g_pool_alive ? pool().counters : PoolCounters{};
}

#endif  // MPATH_POOL_PASSTHROUGH

}  // namespace mpath::sim::detail
