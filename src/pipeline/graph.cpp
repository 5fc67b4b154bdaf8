#include "mpath/pipeline/graph.hpp"

#include <algorithm>

namespace mpath::pipeline {

TransferGraph::~TransferGraph() {
  // Safe mid-replay only because replays hold the graph by shared_ptr —
  // destruction here means no frame is walking the ops.
  if (runtime_ != nullptr) release();
}

void TransferGraph::release() {
  // Events go back to the runtime free list.
  for (Path& p : paths_) {
    for (gpusim::EventId ev : p.fwd_events) runtime_->release_event(ev);
    for (gpusim::EventId ev : p.bwd_events) runtime_->release_event(ev);
  }
  paths_.clear();
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
