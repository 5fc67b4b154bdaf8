// Compiled transfer graphs: build the plan once, replay it per message.
//
// The authors' follow-up work moves multi-path transfers into CUDA Graphs —
// capture the chunk-op DAG once, then replay it at ~zero launch cost. This
// mirrors that shape in the simulator: PipelineEngine::compile_graph bakes a
// TransferConfig into a TransferGraph holding every host-side decision the
// per-transfer path would otherwise redo (stream resolution, event
// reservation, chunk splits, and the flattened issue-order op list), and
// PipelineEngine::replay walks the precompiled op list in one driver frame.
// A GraphCache keyed like the config cache makes the steady state: lookup,
// replay, done — no theta solve, no plan construction, no per-chunk setup.
//
// A graph is the captured form of the ordinary stream code, not a second
// implementation of it: PipelineEngine::execute assigns its plan's shares
// into the config of a *transient* graph and runs it through the same
// issue loop, and that loop leases every run's
// staging from the pool, so replay issues the uncompiled path's
// runtime-call/issue-cost sequence (same keyed jitter draws) and waits
// for the same staging slots: the two are bit-identical by construction.
// Compile takes no simulated time and no staging; a template holds only its
// op list, streams and events.
//
// Lifetime: a graph borrows streams and events from the runtime that
// compiled it; graphs (and any cache holding them) must be destroyed before
// that runtime. Graphs are shared_ptr-held, so dropping a cached template
// (LRU eviction, remove, clear) while its replay is executing is safe: the
// replay frame keeps the graph alive, the way channels hold configs by
// value across co_await.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "mpath/gpusim/runtime.hpp"
#include "mpath/model/configurator.hpp"
#include "mpath/model/plan_cache.hpp"
#include "mpath/topo/paths.hpp"
#include "mpath/util/small_vec.hpp"

namespace mpath::pipeline {

class PipelineEngine;

/// One precompiled operation. Ops store indices, not sizes: chunk offsets
/// and lengths live in the per-path arrays.
struct GraphOp {
  enum class Kind : std::uint8_t {
    kCopyDirect,     ///< direct path: memcpy src -> dst on the first stream
    kWaitSlot,       ///< first stream waits bwd[c-2] (staging slot reuse)
    kCopyToStage,    ///< memcpy src -> staging slot on the first stream
    kRecordFwd,      ///< record fwd[c] on the first stream
    kWaitFwd,        ///< second stream waits fwd[c]
    kStageDelay,     ///< host-staging sync delay on the second stream
    kCopyFromStage,  ///< memcpy staging slot -> dst on the second stream
    kRecordBwd,      ///< record bwd[c] on the second stream
  };
  Kind kind{};
  /// First op of its (path, chunk) group. The issue loop re-checks the
  /// path's watchdog here and nowhere else — once per (path, round) before
  /// issuing the chunk's ops.
  bool chunk_head = false;
  std::uint16_t path = 0;   ///< index into TransferGraph path state
  std::uint32_t chunk = 0;  ///< chunk index within the path
};

/// A reusable compiled transfer template for one (src, dst, bytes,
/// candidate-path-set) tuple. Built by PipelineEngine::compile_graph;
/// executed by PipelineEngine::replay. Default-constructed graphs are empty
/// shells (no resources) — valid() is false; the cache machinery accepts
/// them, which is what the concurrent cache tests exercise.
class TransferGraph {
 public:
  /// Pre-resolved per-path issue state.
  struct Path {
    topo::PathPlan plan;
    std::uint64_t bytes = 0;
    int chunks = 1;              ///< after the min(chunks, bytes) clamp
    std::size_t offset = 0;      ///< slice start within the message
    std::size_t plan_index = 0;  ///< index into config().paths and watches
    bool staged = false;
    double extra_sync_s = 0.0;
    gpusim::StreamId first_stream = 0;
    gpusim::StreamId second_stream = 0;
    util::SmallVec<gpusim::EventId, 16> fwd_events;
    util::SmallVec<gpusim::EventId, 16> bwd_events;
    util::SmallVec<std::size_t, 16> chunk_offsets;
    util::SmallVec<std::size_t, 16> chunk_sizes;
  };

  TransferGraph() = default;
  ~TransferGraph();
  TransferGraph(const TransferGraph&) = delete;
  TransferGraph& operator=(const TransferGraph&) = delete;

  [[nodiscard]] bool valid() const { return runtime_ != nullptr; }
  [[nodiscard]] topo::DeviceId src_device() const { return src_dev_; }
  [[nodiscard]] topo::DeviceId dst_device() const { return dst_dev_; }
  [[nodiscard]] std::uint64_t total_bytes() const { return total_bytes_; }
  /// The full candidate list the template was planned over (cache
  /// identity), including zero-byte shares.
  [[nodiscard]] std::span<const topo::PathPlan> key_paths() const {
    return key_paths_;
  }
  /// The compiled configuration (by-value snapshot).
  [[nodiscard]] const model::TransferConfig& config() const { return config_; }
  [[nodiscard]] std::span<const Path> paths() const {
    return {paths_.data(), paths_.size()};
  }
  [[nodiscard]] std::span<const GraphOp> ops() const {
    return {ops_.data(), ops_.size()};
  }
  /// A replay of this template is currently executing. Templates are not
  /// reentrant (a replay's records and waits share the template's events);
  /// callers fall back to the uncompiled path instead of queueing.
  [[nodiscard]] bool busy() const { return busy_; }
  [[nodiscard]] std::uint64_t replays() const { return replays_; }
  /// Scheduler capacity-event count at compile time: a joint-theta channel
  /// refuses to replay a template compiled under superseded link
  /// capacities. Opaque to the graph itself.
  [[nodiscard]] std::uint64_t capacity_epoch() const {
    return capacity_epoch_;
  }
  void set_capacity_epoch(std::uint64_t epoch) { capacity_epoch_ = epoch; }

 private:
  friend class PipelineEngine;

  /// Rebuild chunk_offsets/chunk_sizes and the flattened op list from the
  /// current per-path byte shares (interleaved round-robin issue order).
  void rebuild_ops();
  /// Return every reserved event to the runtime and drop the per-path
  /// state.
  void release();

  gpusim::GpuRuntime* runtime_ = nullptr;
  topo::DeviceId src_dev_ = topo::kInvalidDevice;
  topo::DeviceId dst_dev_ = topo::kInvalidDevice;
  std::uint64_t total_bytes_ = 0;
  std::vector<topo::PathPlan> key_paths_;
  model::TransferConfig config_;
  util::SmallVec<Path, 4> paths_;  ///< active (bytes > 0) shares only
  std::vector<GraphOp> ops_;
  bool busy_ = false;
  std::uint64_t replays_ = 0;
  std::uint64_t capacity_epoch_ = 0;
};

using GraphPtr = std::shared_ptr<TransferGraph>;

/// Maximum cached templates; least-recently-used entries are evicted past
/// this (releasing their events unless a replay still holds the graph).
inline constexpr std::size_t kGraphCacheCapacity = 32;

using GraphCacheStats = model::PlanCacheStats;

/// The template cache: a model::PlanCache keyed, like the config cache, by
/// the (src, dst, bytes, path-set) request tuple, LRU-bounded at
/// kGraphCacheCapacity and calibration-version-stamped. Mutex-protected:
/// the replay hot path is engine-single-threaded (the lock is uncontended),
/// but sweep tooling may build/inspect caches from multiple threads.
class GraphCache {
 public:
  GraphCache() = default;
  GraphCache(const GraphCache&) = delete;
  GraphCache& operator=(const GraphCache&) = delete;

  /// The cached template for the tuple, or nullptr (a miss, or a stale
  /// calibration stamp — stale entries are dropped so the caller
  /// recompiles under the current snapshot).
  [[nodiscard]] GraphPtr lookup(topo::DeviceId src, topo::DeviceId dst,
                                std::uint64_t bytes,
                                std::span<const topo::PathPlan> paths,
                                std::uint64_t cal_version);

  /// Insert (or replace) the template under its own tuple, stamped with the
  /// calibration version it was compiled under.
  void insert(GraphPtr graph, std::uint64_t cal_version);

  /// Drop the entry for the tuple if present (explicit invalidation, e.g. a
  /// template path entered health probation). Returns true if removed.
  bool remove(topo::DeviceId src, topo::DeviceId dst, std::uint64_t bytes,
              std::span<const topo::PathPlan> paths);

  void clear();
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] GraphCacheStats stats() const;  ///< by-value snapshot

 private:
  mutable std::mutex mutex_;
  model::PlanCache<GraphPtr> cache_{kGraphCacheCapacity};
};

}  // namespace mpath::pipeline
