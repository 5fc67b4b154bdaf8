// Multi-path pipeline engine — the execution machinery of Sojoodi et al.
// (ExHET'24, ref [35] of the paper) that the performance model drives
// (Fig. 2a Step 5).
//
// A plan is a list of model::PathShare, the (path, theta, bytes, chunks)
// record Algorithm 1 emits: each share owns a contiguous slice of the
// message, in list order, and the engine reads its path, bytes and chunk
// count. The engine issues the per-chunk operation graph for all paths
// from a single host loop (interleaved round-robin over paths, one chunk
// per round):
//
//   stream A (first hop):   [wait slot free] copy(src -> stage)  record F_c
//   stream B (second hop):  wait F_c  [host-sync delay]  copy(stage -> dst)
//                           record B_c
//
// Staging buffers are double-buffered (chunk c reuses the slot of c-2 and
// therefore waits on B_{c-2}), matching the three-step staging protocol of
// Section 3.4. Each issued operation costs host time, which is what makes
// path initiation sequential — the effect Algorithm 1 line 18 models.
//
// There is one issue loop: an uncompiled plan runs as a transient
// TransferGraph (graph.hpp) through the loop that replays templates, and
// that loop leases each run's staging buffers from the engine's pool.
//
// A monitored run's watchdog state lives in that loop's frame: one entry
// per path, holding the path's cancel token and its pending watchdog
// event. The run cancels every watchdog still queued when it finishes
// (the frame's destructor does so if it unwinds early), so none fires
// after its transfer or holds the engine's clock, and nothing of a run
// outlives its frame. Leases and watchdog entries take sim-pool blocks
// sized to the plan, so a plan of any width runs allocation-free.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "mpath/gpusim/runtime.hpp"
#include "mpath/model/configurator.hpp"
#include "mpath/pipeline/graph.hpp"
#include "mpath/pipeline/staging.hpp"
#include "mpath/topo/paths.hpp"
#include "mpath/util/small_vec.hpp"

namespace mpath::pipeline {

/// Watchdog spec for one path of a monitored transfer: a relative deadline
/// measured from issue start. The model-driven caller derives it from the
/// predicted per-path completion time T_i times a slack factor; <= 0
/// disables monitoring for that path (legacy behaviour, no extra events).
struct PathWatch {
  double deadline_s = 0.0;
};

/// Storage for a run's watchdog specs, parallel to its plan. The paper's
/// plans use at most 3-4 paths, so building one never heap-allocates.
using PathWatchList = util::SmallVec<PathWatch, 4>;

/// Per-path result of a transfer (parallel to the input plan).
struct PathOutcome {
  std::uint64_t bytes = 0;           ///< slice length assigned to the path
  std::uint64_t bytes_delivered = 0; ///< contiguous prefix visible at dst
  bool timed_out = false;            ///< watchdog fired and aborted the path
};

struct TransferOutcome {
  bool complete = true;  ///< no path timed out; all bytes delivered
  /// Parallel to the input plan. Eight inline slots hold a plan over an
  /// eight-GPU node (direct, six GPU-staged paths and a host-staged one)
  /// without allocating.
  util::SmallVec<PathOutcome, 8> paths;
  [[nodiscard]] std::uint64_t delivered() const {
    std::uint64_t sum = 0;
    for (const PathOutcome& p : paths) sum += p.bytes_delivered;
    return sum;
  }
};

class PipelineEngine {
 public:
  explicit PipelineEngine(
      gpusim::GpuRuntime& runtime, std::size_t staging_buffers_per_device = 4,
      gpusim::Payload staging_payload = gpusim::Payload::Materialized);
  PipelineEngine(const PipelineEngine&) = delete;
  PipelineEngine& operator=(const PipelineEngine&) = delete;

  /// Execute `plan`, moving the sum of its shares' bytes from
  /// src[src_offset..] to dst[dst_offset..]; shares own consecutive slices
  /// in plan order, and only their path, bytes and chunk count are read.
  /// Each path with `watch[i].deadline_s > 0` runs under a watchdog: if the
  /// path has not delivered its slice by the deadline its in-flight fluid
  /// flows are cancelled, no further chunks are issued on it, and the
  /// outcome reports the delivered contiguous prefix — so a transfer over a
  /// severed link returns (with partial-progress accounting) instead of
  /// hanging. `watch` must be empty (no monitoring) or the same length as
  /// `plan`. Progress accounting is passive (per-chunk completion hooks on
  /// direct paths, the existing backward event records on staged paths),
  /// so monitoring does not change a path's completion time; and the run
  /// cancels its pending watchdogs when it finishes, so a run whose
  /// watchdogs never fire dispatches the events of an unmonitored one.
  /// `plan` and `watch` must outlive the task, as the buffers must. Throws
  /// std::invalid_argument on malformed plans (bounds, chunks < 1, a staged
  /// share without a stage), checking every share before issuing any.
  [[nodiscard]] sim::Task<TransferOutcome> execute(
      gpusim::DeviceBuffer& dst, std::size_t dst_offset,
      const gpusim::DeviceBuffer& src, std::size_t src_offset,
      std::span<const model::PathShare> plan,
      std::span<const PathWatch> watch = {});

  /// Compile `config` into a reusable TransferGraph template: resolve
  /// streams, reserve events and flatten the chunk-op issue order. Takes no
  /// simulated time and no staging: each replay leases its own, as an
  /// uncompiled run does. Throws std::invalid_argument on malformed
  /// configs, mirroring execute()'s validation for the shares that carry
  /// bytes (a compiled config also lists the paths the solver excluded).
  [[nodiscard]] std::shared_ptr<TransferGraph> compile_graph(
      topo::DeviceId src_dev, topo::DeviceId dst_dev,
      const model::TransferConfig& config);

  /// Execute a compiled template: one driver frame walks the precompiled op
  /// list — no theta solve, no plan construction, no per-chunk setup. This
  /// is the issue loop execute() runs its transient graph through, staging
  /// leases included, so completion times (and keyed jitter draws)
  /// match the uncompiled path bit for bit. `watch` must be empty or sized
  /// like graph->config().paths, and must outlive the task. Throws
  /// std::logic_error if the graph is already replaying (templates are not
  /// reentrant), std::invalid_argument on endpoint/graph mismatches.
  [[nodiscard]] sim::Task<TransferOutcome> replay(
      std::shared_ptr<TransferGraph> graph, gpusim::DeviceBuffer& dst,
      std::size_t dst_offset, const gpusim::DeviceBuffer& src,
      std::size_t src_offset, std::span<const PathWatch> watch = {});

  [[nodiscard]] gpusim::GpuRuntime& runtime() { return *runtime_; }
  [[nodiscard]] std::uint64_t transfers_executed() const {
    return transfers_;
  }
  /// Cumulative bytes executed per path kind (reporting aid).
  [[nodiscard]] std::uint64_t bytes_on(topo::PathKind kind) const;

 private:
  struct StreamKey {
    topo::DeviceId src;
    topo::DeviceId dst;
    std::size_t path_index;
    int role;  // 0 = first hop / direct, 1 = second hop
    auto operator<=>(const StreamKey&) const = default;
  };

  gpusim::StreamId stream_for(const StreamKey& key, topo::DeviceId device);
  /// The host's issue cost after an op enqueued on `stream`, scaled by
  /// that op's host-issue jitter.
  [[nodiscard]] sim::Engine::DelayAwaiter issue_cost(gpusim::StreamId stream);

  /// Lay `g` out over its config(): endpoints, key paths and total, then
  /// each active share's streams, chunk count, host-sync cost and (staged)
  /// events, and the flattened op list.
  void build_graph(TransferGraph& g, topo::DeviceId src_dev,
                   topo::DeviceId dst_dev);

  /// The one chunk-issue loop: lease staging for the staged paths, arm the
  /// watchdogs, walk g's op list, drain the streams (each staged path
  /// returning its lease), cancel the watchdogs still pending and report
  /// per-path progress. `watch` stays in the caller's frame.
  [[nodiscard]] sim::Task<TransferOutcome> issue(
      TransferGraph& g, gpusim::DeviceBuffer& dst, std::size_t dst_offset,
      const gpusim::DeviceBuffer& src, std::size_t src_offset,
      std::span<const PathWatch> watch);

  gpusim::GpuRuntime* runtime_;
  StagingPool staging_;
  std::map<StreamKey, gpusim::StreamId> streams_;
  /// Drained transient graphs, kept for their container capacity so a
  /// steady-state uncompiled transfer allocates nothing.
  std::vector<std::unique_ptr<TransferGraph>> spare_graphs_;
  std::uint64_t transfers_ = 0;
  std::map<topo::PathKind, std::uint64_t> bytes_by_kind_;
};

}  // namespace mpath::pipeline
