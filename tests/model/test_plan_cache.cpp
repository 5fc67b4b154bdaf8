#include "mpath/model/plan_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace mm = mpath::model;
namespace mt = mpath::topo;

namespace {

constexpr mt::PathPlan kDirect{mt::PathKind::Direct, mt::kInvalidDevice};

mt::PathPlan via_gpu(mt::DeviceId stage) {
  return {mt::PathKind::GpuStaged, stage};
}

// One candidate list (direct plus two staged copies) from device 0 to 1;
// requests differ only in their size.
struct Requests {
  std::vector<mt::PathPlan> paths{kDirect, via_gpu(2), via_gpu(3)};

  int* find(mm::PlanCache<int>& cache, std::uint64_t bytes) const {
    return cache.find(0, 1, bytes, paths, 0);
  }
  int& insert(mm::PlanCache<int>& cache, std::uint64_t bytes,
              int value) const {
    return cache.insert(0, 1, bytes, paths, 0, value);
  }
};

}  // namespace

// LRU bound: a capacity-2 cache never holds more than two entries and
// drops the least-recently-used request first.
TEST(PlanCache, CapacityBoundsEntryCount) {
  const Requests r;
  mm::PlanCache<int> cache(2);
  r.insert(cache, 16, 1);
  r.insert(cache, 32, 2);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  r.insert(cache, 64, 3);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(r.find(cache, 16), nullptr);
}

TEST(PlanCache, HitsRefreshRecency) {
  const Requests r;
  mm::PlanCache<int> cache(2);
  r.insert(cache, 16, 1);
  r.insert(cache, 32, 2);
  // Touch 16 so 32 becomes least-recently-used, then overflow with 64.
  ASSERT_NE(r.find(cache, 16), nullptr);
  r.insert(cache, 64, 3);
  EXPECT_EQ(cache.stats().evictions, 1u);
  ASSERT_NE(r.find(cache, 16), nullptr);  // survived
  EXPECT_EQ(*r.find(cache, 16), 1);
  EXPECT_EQ(r.find(cache, 32), nullptr);  // evicted
}

// The entry just inserted is always the most recent, so the reference
// insert() returns is never the one its own eviction drops.
TEST(PlanCache, ReturnedReferenceSurvivesEviction) {
  const Requests r;
  mm::PlanCache<int> cache(2);
  r.insert(cache, 16, 1);
  r.insert(cache, 32, 2);
  int& fresh = r.insert(cache, 64, 3);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(fresh, 3);
  fresh = 30;
  ASSERT_NE(r.find(cache, 64), nullptr);
  EXPECT_EQ(*r.find(cache, 64), 30);
  // Replacing an entry refreshes its value in place.
  int& replaced = r.insert(cache, 32, 20);
  EXPECT_EQ(replaced, 20);
  EXPECT_EQ(&replaced, r.find(cache, 32));
  EXPECT_EQ(cache.size(), 2u);
  // clear() empties the index and the recency list together.
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(r.insert(cache, 64, 4), 4);
  EXPECT_EQ(*r.find(cache, 64), 4);
}

// The whole request tuple is the key. Requests that differ only in the
// order of their candidates, in one stage, in direction or in size each
// get their own entry, and every entry is still found after the index has
// grown through several rehashes.
TEST(PlanCache, DistinctRequestsNeverShareAnEntry) {
  struct Request {
    mt::DeviceId src;
    mt::DeviceId dst;
    std::uint64_t bytes;
    std::vector<mt::PathPlan> paths;
  };
  const std::vector<Request> near{
      {0, 1, 8 << 20, {kDirect, via_gpu(2), via_gpu(3)}},
      {0, 1, 8 << 20, {kDirect, via_gpu(3), via_gpu(2)}},  // order
      {0, 1, 8 << 20, {kDirect, via_gpu(2), via_gpu(4)}},  // one stage
      {1, 0, 8 << 20, {kDirect, via_gpu(2), via_gpu(3)}},  // swapped
      {0, 1, (8 << 20) + 1, {kDirect, via_gpu(2), via_gpu(3)}},  // bytes
  };
  mm::PlanCache<int> cache;
  for (std::size_t i = 0; i < near.size(); ++i) {
    const Request& q = near[i];
    cache.insert(q.src, q.dst, q.bytes, q.paths, 0, static_cast<int>(i));
  }
  ASSERT_EQ(cache.size(), near.size());
  const auto expect_all_found = [&] {
    for (std::size_t i = 0; i < near.size(); ++i) {
      const Request& q = near[i];
      const int* hit = cache.find(q.src, q.dst, q.bytes, q.paths, 0);
      ASSERT_NE(hit, nullptr) << "request " << i;
      EXPECT_EQ(*hit, static_cast<int>(i)) << "request " << i;
    }
  };
  expect_all_found();

  const Requests r;
  constexpr int kMore = 1000;
  for (int i = 0; i < kMore; ++i) r.insert(cache, 1u + i, 100 + i);
  EXPECT_EQ(cache.size(), near.size() + kMore);
  expect_all_found();
  for (int i = 0; i < kMore; ++i) {
    const int* hit = r.find(cache, 1u + i);
    ASSERT_NE(hit, nullptr) << "size " << 1 + i;
    EXPECT_EQ(*hit, 100 + i);
  }
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}
