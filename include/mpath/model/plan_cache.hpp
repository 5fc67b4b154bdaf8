// The plan cache both planners sit behind: Algorithm 1's configuration
// cache (PathConfigurator) and the compiled-template cache (GraphCache).
//
// An entry is keyed by its request tuple (src, dst, bytes, candidate
// paths). FNV-1a (request_hash) only hashes the tuple; the index compares
// whole tuples, so two distinct requests never share an entry. Each entry
// is stamped with the calibration-snapshot version it was planned under; a
// lookup under a newer version drops it so the caller re-plans against the
// current alpha/beta. Entries live in a recency list, most recently used first,
// bounded by `capacity` (0 = unbounded). Not thread-safe: GraphCache wraps
// every call in its mutex.
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

/// FNV-1a over the request tuple, one 64-bit word per field: the hash a
/// PlanCache index buckets its requests by. Equal hashes never merge two
/// requests, since the index then compares whole tuples.
[[nodiscard]] inline std::uint64_t request_hash(
    topo::DeviceId src, topo::DeviceId dst, std::uint64_t bytes,
    std::span<const topo::PathPlan> paths) noexcept {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  mix(src);
  mix(dst);
  mix(bytes);
  for (const topo::PathPlan& p : paths) {
    mix(static_cast<std::uint64_t>(p.kind) + 1);
    mix(p.stage);
  }
  return h;
}

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// Entries whose tuple matched but were planned under a superseded
  /// calibration snapshot; each is dropped so the caller re-plans.
  std::uint64_t invalidations = 0;
};

template <typename Value>
class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity = 0) : capacity_(capacity) {}
  /// A copy's index would view the original's entries.
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The tuple's value, refreshed as most recently used; null on a miss or
  /// a stale calibration stamp (which drops the entry).
  [[nodiscard]] Value* find(topo::DeviceId src, topo::DeviceId dst,
                            std::uint64_t bytes,
                            std::span<const topo::PathPlan> paths,
                            std::uint64_t cal_version) {
    const auto it = index_.find(Request{src, dst, bytes, paths});
    if (it != index_.end() && it->second->cal_version == cal_version) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second);
      return &it->second->value;
    }
    if (it != index_.end()) {
      ++stats_.invalidations;
      drop(it);
    }
    ++stats_.misses;
    return nullptr;
  }

  /// Insert (or replace) the tuple's entry as the most recently used one,
  /// then evict least-recently-used entries beyond capacity — never the one
  /// just inserted, so the returned reference stays valid until the entry
  /// is replaced, evicted, erased or cleared. A replaced entry keeps the
  /// tuple it already stores.
  Value& insert(topo::DeviceId src, topo::DeviceId dst, std::uint64_t bytes,
                std::span<const topo::PathPlan> paths,
                std::uint64_t cal_version, Value value) {
    const auto it = index_.find(Request{src, dst, bytes, paths});
    if (it != index_.end()) {
      Entry& e = *it->second;
      e.value = std::move(value);
      e.cal_version = cal_version;
      lru_.splice(lru_.begin(), lru_, it->second);
      return e.value;
    }
    lru_.push_front(Entry{std::move(value), src, dst, bytes,
                          std::vector<topo::PathPlan>(paths.begin(),
                                                      paths.end()),
                          cal_version});
    index_.emplace(lru_.front().request(), lru_.begin());
    while (capacity_ > 0 && index_.size() > capacity_) {
      drop(index_.find(lru_.back().request()));
      ++stats_.evictions;
    }
    return lru_.front().value;
  }

  /// Drop the tuple's entry if present. Returns true if removed.
  bool erase(topo::DeviceId src, topo::DeviceId dst, std::uint64_t bytes,
             std::span<const topo::PathPlan> paths) {
    const auto it = index_.find(Request{src, dst, bytes, paths});
    if (it == index_.end()) return false;
    drop(it);
    return true;
  }

  void clear() {
    index_.clear();
    lru_.clear();
  }
  [[nodiscard]] std::size_t size() const { return index_.size(); }
  [[nodiscard]] const PlanCacheStats& stats() const { return stats_; }

 private:
  /// A request tuple. The index's keys view the candidate lists their
  /// entries own, so a lookup builds no list of its own.
  struct Request {
    topo::DeviceId src;
    topo::DeviceId dst;
    std::uint64_t bytes;
    std::span<const topo::PathPlan> paths;

    friend bool operator==(const Request& a, const Request& b) {
      return a.src == b.src && a.dst == b.dst && a.bytes == b.bytes &&
             std::ranges::equal(a.paths, b.paths);
    }
  };

  struct Fnv1a {
    std::size_t operator()(const Request& r) const noexcept {
      return static_cast<std::size_t>(
          request_hash(r.src, r.dst, r.bytes, r.paths));
    }
  };

  struct Entry {
    Value value;
    topo::DeviceId src;
    topo::DeviceId dst;
    std::uint64_t bytes;
    std::vector<topo::PathPlan> paths;
    std::uint64_t cal_version;

    [[nodiscard]] Request request() const { return {src, dst, bytes, paths}; }
  };
  using Index = std::unordered_map<Request, typename std::list<Entry>::iterator,
                                   Fnv1a>;

  /// Unindex the entry before freeing it: its key views the entry's list.
  void drop(typename Index::iterator it) {
    const auto entry = it->second;
    index_.erase(it);
    lru_.erase(entry);
  }

  std::size_t capacity_;
  std::list<Entry> lru_;  ///< entries, most recently used first
  Index index_;           ///< after lru_: destroyed before the entries
  PlanCacheStats stats_;
};

}  // namespace mpath::model
