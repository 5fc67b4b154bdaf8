// The plan cache both planners sit behind: Algorithm 1's configuration
// cache (PathConfigurator) and the compiled-template cache (GraphCache).
//
// Entries are addressed by an FNV-1a hash of the request tuple (src, dst,
// bytes, candidate paths). The hash is only a bucket address: every hit is
// verified against the full stored tuple, so a collision misses instead of
// returning another transfer's plan. Each entry is stamped with the
// calibration-snapshot version it was planned under; a lookup under a newer
// version drops it so the caller re-plans against the current alpha/beta.
// Recency is an LRU list of bucket keys, bounded by `capacity` (0 =
// unbounded). Not thread-safe: GraphCache wraps every call in its mutex.
#pragma once

#include <algorithm>
#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mpath/topo/paths.hpp"

namespace mpath::model {

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  /// Entries whose tuple matched but were planned under a superseded
  /// calibration snapshot; each is dropped so the caller re-plans.
  std::uint64_t invalidations = 0;
  /// Distinct tuples that hashed onto an occupied key (lookup must miss).
  std::uint64_t collisions = 0;
};

template <typename Value>
class PlanCache {
 public:
  /// `key_bits` < 64 narrows the hash — a test hook that forces collisions.
  explicit PlanCache(std::size_t capacity = 0, int key_bits = 64)
      : capacity_(capacity), key_bits_(key_bits) {}

  /// The tuple's value, refreshed as most recently used; null on a miss, a
  /// collision, or a stale calibration stamp (which drops the entry).
  [[nodiscard]] Value* find(topo::DeviceId src, topo::DeviceId dst,
                            std::uint64_t bytes,
                            std::span<const topo::PathPlan> paths,
                            std::uint64_t cal_version) {
    auto it = map_.find(key(src, dst, bytes, paths));
    if (it != map_.end() && !it->second.matches(src, dst, bytes, paths)) {
      ++stats_.collisions;  // the caller's insert replaces the resident
      it = map_.end();
    } else if (it != map_.end() && it->second.cal_version != cal_version) {
      ++stats_.invalidations;
      lru_.erase(it->second.recency);
      map_.erase(it);
      it = map_.end();
    }
    if (it == map_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second.recency);
    return &it->second.value;
  }

  /// Insert (or replace) the tuple's entry as the most recently used one,
  /// then evict least-recently-used entries beyond capacity — never the one
  /// just inserted, so the returned reference stays valid until the entry
  /// is replaced, evicted, erased or cleared.
  Value& insert(topo::DeviceId src, topo::DeviceId dst, std::uint64_t bytes,
                std::span<const topo::PathPlan> paths,
                std::uint64_t cal_version, Value value) {
    const std::uint64_t k = key(src, dst, bytes, paths);
    Entry fresh{std::move(value), src, dst, bytes,
                std::vector<topo::PathPlan>(paths.begin(), paths.end()),
                cal_version, {}};
    auto it = map_.find(k);
    if (it != map_.end()) {
      // Replace in place (collision or re-insert): the key already owns an
      // LRU node — keep its iterator across the assignment.
      fresh.recency = it->second.recency;
      lru_.splice(lru_.begin(), lru_, fresh.recency);
      it->second = std::move(fresh);
    } else {
      lru_.push_front(k);
      fresh.recency = lru_.begin();
      it = map_.emplace(k, std::move(fresh)).first;
    }
    ++stats_.inserts;
    while (capacity_ > 0 && map_.size() > capacity_) {
      map_.erase(lru_.back());
      lru_.pop_back();
      ++stats_.evictions;
    }
    return it->second.value;
  }

  /// Drop the tuple's entry if present. Returns true if removed.
  bool erase(topo::DeviceId src, topo::DeviceId dst, std::uint64_t bytes,
             std::span<const topo::PathPlan> paths) {
    auto it = map_.find(key(src, dst, bytes, paths));
    if (it == map_.end() || !it->second.matches(src, dst, bytes, paths)) {
      return false;
    }
    lru_.erase(it->second.recency);
    map_.erase(it);
    return true;
  }

  void clear() {
    map_.clear();
    lru_.clear();
  }
  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] const PlanCacheStats& stats() const { return stats_; }

 private:
  struct Entry {
    Value value;
    topo::DeviceId src;
    topo::DeviceId dst;
    std::uint64_t bytes;
    std::vector<topo::PathPlan> paths;
    std::uint64_t cal_version;
    std::list<std::uint64_t>::iterator recency;  ///< this key's lru_ node

    [[nodiscard]] bool matches(topo::DeviceId s, topo::DeviceId d,
                               std::uint64_t b,
                               std::span<const topo::PathPlan> p) const {
      return src == s && dst == d && bytes == b &&
             std::equal(paths.begin(), paths.end(), p.begin(), p.end());
    }
  };

  [[nodiscard]] std::uint64_t key(
      topo::DeviceId src, topo::DeviceId dst, std::uint64_t bytes,
      std::span<const topo::PathPlan> paths) const {
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
    mix(src);
    mix(dst);
    mix(bytes);
    for (const topo::PathPlan& p : paths) {
      mix(static_cast<std::uint64_t>(p.kind) + 1);
      mix(p.stage);
    }
    if (key_bits_ < 64) h &= (1ull << std::max(key_bits_, 1)) - 1ull;
    return h;
  }

  std::size_t capacity_;
  int key_bits_;
  std::unordered_map<std::uint64_t, Entry> map_;
  std::list<std::uint64_t> lru_;  ///< keys, most-recently-used first
  PlanCacheStats stats_;
};

}  // namespace mpath::model
