#include "mpath/pipeline/graph.hpp"

#include <algorithm>
#include <cmath>

namespace mpath::pipeline {

TransferGraph::~TransferGraph() {
  // Safe mid-replay only because replays hold the graph by shared_ptr —
  // destruction here means no frame is walking the ops.
  if (runtime_ != nullptr) release();
}

void TransferGraph::release() {
  // Events go back to the runtime free list; staging leases release
  // through their own destructors.
  for (Path& p : paths_) {
    for (gpusim::EventId ev : p.fwd_events) runtime_->release_event(ev);
    for (gpusim::EventId ev : p.bwd_events) runtime_->release_event(ev);
  }
  paths_.clear();
}

bool TransferGraph::patch(std::uint64_t new_bytes) {
  if (!valid() || new_bytes == 0) return false;
  if (new_bytes == total_bytes_) return true;
  const double n = static_cast<double>(new_bytes);
  const std::size_t p = config_.paths.size();

  // Re-derive integer byte shares from the compiled thetas, exactly as
  // config_from_theta does: floor for every non-anchor path, remainder to
  // the anchor.
  util::SmallVec<std::uint64_t, 4> share_bytes;
  share_bytes.resize(p);
  std::uint64_t assigned = 0;
  for (std::size_t i = 1; i < p; ++i) {
    share_bytes[i] = static_cast<std::uint64_t>(
        std::floor(config_.paths[i].theta * n));
    assigned += share_bytes[i];
  }
  if (assigned > new_bytes) return false;  // thetas cannot over-assign
  share_bytes[0] = new_bytes - assigned;

  // Feasibility against the compiled resources: every share that now
  // carries bytes must have compiled issue state, and no staged chunk may
  // outgrow its staging slot.
  util::SmallVec<Path*, 4> by_plan_index;
  by_plan_index.resize(p);
  for (std::size_t i = 0; i < p; ++i) by_plan_index[i] = nullptr;
  for (Path& path : paths_) by_plan_index[path.plan_index] = &path;
  for (std::size_t i = 0; i < p; ++i) {
    if (share_bytes[i] == 0) continue;
    const Path* path = by_plan_index[i];
    if (path == nullptr) return false;
    if (path->staged) {
      const std::uint64_t k = std::min<std::uint64_t>(
          static_cast<std::uint64_t>(std::max(config_.paths[i].chunks, 1)),
          share_bytes[i]);
      const std::uint64_t max_chunk =
          share_bytes[i] / k + (share_bytes[i] % k != 0 ? 1 : 0);
      if (max_chunk > path->slot_bytes) return false;
      if (k > 16 && k > static_cast<std::uint64_t>(path->chunks)) {
        // Would need more events than were reserved at compile time.
        if (k > path->fwd_events.size()) return false;
      }
    }
  }

  // Commit: refresh the config's shares and predicted times, then the
  // per-path issue state and the op list.
  std::size_t offset = 0;
  config_.total_bytes = new_bytes;
  config_.predicted_time = 0.0;
  for (std::size_t i = 0; i < p; ++i) {
    model::PathShare& share = config_.paths[i];
    share.bytes = share_bytes[i];
    if (i == 0) share.theta = static_cast<double>(share.bytes) / n;
    share.predicted_time =
        share.bytes > 0 ? share.terms.time(share.theta, n) : 0.0;
    config_.predicted_time =
        std::max(config_.predicted_time, share.predicted_time);
    if (Path* path = by_plan_index[i]; path != nullptr) {
      path->bytes = share.bytes;
      path->offset = offset;
      path->chunks =
          share.bytes > 0
              ? static_cast<int>(std::min<std::uint64_t>(
                    static_cast<std::uint64_t>(std::max(share.chunks, 1)),
                    share.bytes))
              : 0;
    }
    offset += share.bytes;
  }
  total_bytes_ = new_bytes;
  rebuild_ops();
  return true;
}

void TransferGraph::rebuild_ops() {
  ops_.clear();
  int max_rounds = 0;
  for (Path& p : paths_) {
    p.chunk_offsets.clear();
    p.chunk_sizes.clear();
    if (p.bytes == 0 || p.chunks < 1) continue;
    const auto k = static_cast<std::uint64_t>(p.chunks);
    const std::uint64_t base = p.bytes / k;
    const std::uint64_t rem = p.bytes % k;
    std::size_t chunk_off = 0;
    for (std::uint64_t c = 0; c < k; ++c) {
      const std::size_t sz =
          static_cast<std::size_t>(base + (c < rem ? 1 : 0));
      p.chunk_offsets.push_back(chunk_off);
      p.chunk_sizes.push_back(sz);
      chunk_off += sz;
    }
    max_rounds = std::max(max_rounds, p.chunks);
  }
  // Flatten the interleaved issue order: chunk r of every path before chunk
  // r+1 of any, so all paths begin flowing early while later paths still
  // start strictly after earlier ones (sequential initiation). The first op
  // of each (path, chunk) group is the chunk head — the issue loop's
  // watchdog check point.
  for (int r = 0; r < max_rounds; ++r) {
    for (std::size_t pidx = 0; pidx < paths_.size(); ++pidx) {
      const Path& p = paths_[pidx];
      if (static_cast<std::size_t>(r) >= p.chunk_sizes.size()) continue;
      const auto path16 = static_cast<std::uint16_t>(pidx);
      const auto chunk = static_cast<std::uint32_t>(r);
      auto push = [this, path16, chunk](GraphOp::Kind kind, bool head) {
        ops_.push_back(GraphOp{kind, head, path16, chunk});
      };
      if (!p.staged) {
        push(GraphOp::Kind::kCopyDirect, true);
        continue;
      }
      if (r >= 2) push(GraphOp::Kind::kWaitSlot, true);
      push(GraphOp::Kind::kCopyToStage, r < 2);
      push(GraphOp::Kind::kRecordFwd, false);
      push(GraphOp::Kind::kWaitFwd, false);
      if (p.extra_sync_s > 0.0) push(GraphOp::Kind::kStageDelay, false);
      push(GraphOp::Kind::kCopyFromStage, false);
      push(GraphOp::Kind::kRecordBwd, false);
    }
  }
}

GraphCache::GraphCache(GraphCacheOptions options)
    : cache_(options.capacity, options.key_bits) {}

GraphPtr GraphCache::lookup(topo::DeviceId src, topo::DeviceId dst,
                            std::uint64_t bytes,
                            std::span<const topo::PathPlan> paths,
                            std::uint64_t cal_version) {
  std::lock_guard<std::mutex> lock(mutex_);
  const GraphPtr* hit = cache_.find(src, dst, bytes, paths, cal_version);
  return hit != nullptr ? *hit : nullptr;
}

void GraphCache::insert(GraphPtr graph, std::uint64_t cal_version) {
  if (graph == nullptr) return;
  const TransferGraph& g = *graph;
  std::lock_guard<std::mutex> lock(mutex_);
  cache_.insert(g.src_device(), g.dst_device(), g.total_bytes(),
                g.key_paths(), cal_version, std::move(graph));
}

bool GraphCache::remove(topo::DeviceId src, topo::DeviceId dst,
                        std::uint64_t bytes,
                        std::span<const topo::PathPlan> paths) {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.erase(src, dst, bytes, paths);
}

void GraphCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  cache_.clear();
}

std::size_t GraphCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.size();
}

GraphCacheStats GraphCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.stats();
}

}  // namespace mpath::pipeline
