#include "mpath/pipeline/engine.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "mpath/sim/pool.hpp"

namespace mpath::pipeline {

namespace {

/// A run's per-path state in one sim-pool block, sized when the run starts:
/// a plan of any width takes no global allocation (the pool recycles the
/// block), and the issue frame holds only a pointer and a count. Empty
/// until assign().
template <typename T>
class RunArray {
 public:
  RunArray() = default;
  RunArray(const RunArray&) = delete;
  RunArray& operator=(const RunArray&) = delete;
  ~RunArray() {
    std::destroy_n(data_, size_);
    if (data_ != nullptr) sim::detail::pool_free(data_, size_ * sizeof(T));
  }

  /// Construct `n` elements from `args` in a fresh block (once per run).
  template <typename... Args>
  void assign(std::size_t n, Args&... args) {
    static_assert(std::is_nothrow_constructible_v<T, Args&...>);
    data_ = static_cast<T*>(sim::detail::pool_alloc(n * sizeof(T)));
    size_ = n;
    for (std::size_t i = 0; i < n; ++i) ::new (data_ + i) T(args...);
  }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  T& operator[](std::size_t i) { return data_[i]; }

 private:
  T* data_ = nullptr;
  std::size_t size_ = 0;
};

// A run's watchdog state, in its issue frame. Entries are parallel to the
// plan; a watched path's entry owns the cancel token its copies carry and
// the ref of its pending watchdog. The run cancels every pending watchdog
// when it finishes, and the destructor cancels any still queued if the
// frame unwinds early, so no watchdog outlives the frame: its callback and
// the direct paths' DoneHooks capture raw pointers into it.
struct MonitorState {
  struct Entry {
    explicit Entry(sim::FluidNetwork& net) noexcept : token(net) {}
    const TransferGraph::Path* path = nullptr;  ///< null: not watched
    gpusim::CancelToken token;
    sim::EventRef watchdog;          ///< pending deadline, or none
    std::size_t records_issued = 0;  ///< completion records enqueued so far
    std::uint64_t delivered = 0;  ///< direct: running total fed by DoneHooks
    bool timed_out = false;
  };

  explicit MonitorState(gpusim::GpuRuntime& runtime)
      : engine(&runtime.engine()), rt(&runtime) {}
  MonitorState(const MonitorState&) = delete;
  MonitorState& operator=(const MonitorState&) = delete;
  ~MonitorState() { cancel_watchdogs(); }

  [[nodiscard]] Entry* watched(std::size_t i) {
    return entries.empty() || entries[i].path == nullptr ? nullptr
                                                         : &entries[i];
  }

  /// DoneHook of a direct chunk of `sz` bytes: adds it to the path's
  /// delivered total, or none for an unwatched path.
  static gpusim::GpuRuntime::DoneHook progress_hook(Entry* e, std::size_t sz) {
    if (e == nullptr) return {};
    return [e, sz](bool delivered) {
      if (delivered) e->delivered += sz;
    };
  }

  /// The finished run's per-path outcome, parallel to `config`. Built
  /// here rather than in the issue frame, which would keep a copy.
  [[nodiscard]] TransferOutcome outcome(const model::TransferConfig& config) {
    TransferOutcome out;
    out.paths.resize(config.paths.size());
    for (std::size_t i = 0; i < config.paths.size(); ++i) {
      PathOutcome& po = out.paths[i];
      po.bytes = po.bytes_delivered = config.paths[i].bytes;
      const Entry* e = watched(i);
      if (e != nullptr && e->timed_out) {
        po.timed_out = true;
        po.bytes_delivered = e->delivered;
        out.complete = false;
      }
    }
    return out;
  }

  void cancel_watchdogs() {
    for (std::size_t i = 0; i < entries.size(); ++i) {
      sim::EventRef& w = entries[i].watchdog;
      if (w.key != 0) engine->cancel(std::exchange(w, {}));
    }
  }

  // Contiguous delivered prefix. Direct paths accumulate it passively: each
  // chunk's memcpy_async carries a DoneHook that adds the chunk size on
  // delivery (streams are in-order, so the sum is always a prefix), costing
  // no extra events. Staged paths poll the backward event records; only
  // events whose record has been *enqueued* are consulted — a freshly
  // created event reads as fired (CUDA never-recorded semantics) and must
  // not count until record_event re-arms it.
  [[nodiscard]] std::uint64_t delivered_prefix(const Entry& e) const {
    const TransferGraph::Path& p = *e.path;
    if (!p.staged) return e.delivered;
    std::uint64_t sum = 0;
    const std::size_t n = std::min(e.records_issued, p.bwd_events.size());
    for (std::size_t c = 0; c < n; ++c) {
      if (!rt->event_fired(p.bwd_events[c])) break;
      sum += p.chunk_sizes[c];
    }
    return sum;
  }

  // Watchdog body for path `i`: snapshot progress *before* cancelling (the
  // post-cancel drain fires the remaining completion records without moving
  // data), then abort the path's in-flight flows. A path that delivered
  // everything already is left alone.
  void on_deadline(std::size_t i) {
    Entry& e = entries[i];
    e.watchdog = {};
    const std::uint64_t d = delivered_prefix(e);
    if (d >= e.path->bytes) return;
    e.delivered = d;
    e.timed_out = true;
    e.token.cancel();
  }

  // The engine outlives every frame it runs, so the destructor may cancel
  // through it even at engine teardown, after the runtime is gone.
  sim::Engine* engine;
  gpusim::GpuRuntime* rt;
  RunArray<Entry> entries;  ///< empty when no path is watched
};

/// The byte total of `shares`, after checking that each can be issued: at
/// least one chunk and, on a staged path, a stage — for zero-byte shares
/// only when `all`, since compiled configs carry excluded paths — and a
/// total that cannot wrap past the region bounds checks and then throw
/// mid-issuance.
std::uint64_t checked_total(std::span<const model::PathShare> shares,
                            bool all) {
  std::uint64_t total = 0;
  for (const model::PathShare& s : shares) {
    if ((all || s.bytes > 0) && s.chunks < 1) {
      throw std::invalid_argument("PipelineEngine: chunks must be >= 1");
    }
    if ((all || s.bytes > 0) && s.plan.kind != topo::PathKind::Direct &&
        s.plan.stage == topo::kInvalidDevice) {
      throw std::invalid_argument("PipelineEngine: staged path without stage");
    }
    if (s.bytes > std::numeric_limits<std::uint64_t>::max() - total) {
      throw std::invalid_argument("PipelineEngine: plan byte total overflows");
    }
    total += s.bytes;
  }
  return total;
}

/// Double-buffered staging: two slots of the path's largest chunk under
/// the base/remainder split.
std::size_t staging_bytes(const TransferGraph::Path& p) {
  const auto k = static_cast<std::uint64_t>(p.chunks);
  const std::uint64_t max_chunk = p.bytes / k + (p.bytes % k != 0 ? 1 : 0);
  return 2 * static_cast<std::size_t>(max_chunk);
}

}  // namespace

PipelineEngine::PipelineEngine(gpusim::GpuRuntime& runtime,
                               std::size_t staging_buffers_per_device,
                               gpusim::Payload staging_payload)
    : runtime_(&runtime),
      staging_(runtime, staging_buffers_per_device, staging_payload) {}

gpusim::StreamId PipelineEngine::stream_for(const StreamKey& key,
                                            topo::DeviceId device) {
  auto it = streams_.find(key);
  if (it == streams_.end()) {
    it = streams_.emplace(key, runtime_->create_stream(device)).first;
  }
  return it->second;
}

sim::Engine::DelayAwaiter PipelineEngine::issue_cost() {
  return runtime_->engine().delay(runtime_->costs().op_launch_s *
                                  runtime_->jitter());
}

std::uint64_t PipelineEngine::bytes_on(topo::PathKind kind) const {
  auto it = bytes_by_kind_.find(kind);
  return it == bytes_by_kind_.end() ? 0 : it->second;
}

sim::Task<TransferOutcome> PipelineEngine::execute(
    gpusim::DeviceBuffer& dst, std::size_t dst_offset,
    const gpusim::DeviceBuffer& src, std::size_t src_offset,
    std::span<const model::PathShare> plan, std::span<const PathWatch> watch) {
  if (!watch.empty() && watch.size() != plan.size()) {
    throw std::invalid_argument(
        "PipelineEngine: watch must be empty or match the plan size");
  }
  // Validate the *whole* plan before issuing anything: a malformed plan
  // must not leak event reservations or partially issued operations.
  const std::uint64_t total = checked_total(plan, /*all=*/true);
  src.check_region(src_offset, total);
  dst.check_region(dst_offset, total);
  // Capture the plan into a transient graph, laid out like a template.
  if (spare_graphs_.empty()) {
    spare_graphs_.push_back(std::make_unique<TransferGraph>());
  }
  std::unique_ptr<TransferGraph> g = std::move(spare_graphs_.back());
  spare_graphs_.pop_back();
  g->config_.paths.assign(plan.begin(), plan.end());
  build_graph(*g, src.device(), dst.device());

  TransferOutcome out =
      co_await issue(*g, dst, dst_offset, src, src_offset, watch);
  // Every record has fired (the streams drained), every waiter captured
  // its latch at enqueue time, and the run cancelled its watchdogs — so
  // recycling the events can never alias stale state.
  g->release();
  spare_graphs_.push_back(std::move(g));
  co_return out;
}

void PipelineEngine::build_graph(TransferGraph& g, topo::DeviceId src_dev,
                                 topo::DeviceId dst_dev) {
  g.runtime_ = runtime_;
  g.src_dev_ = src_dev;
  g.dst_dev_ = dst_dev;
  g.key_paths_.clear();
  g.total_bytes_ = 0;
  std::size_t offset = 0;
  for (std::size_t i = 0; i < g.config_.paths.size(); ++i) {
    const model::PathShare& share = g.config_.paths[i];
    g.key_paths_.push_back(share.plan);
    g.total_bytes_ += share.bytes;
    if (share.bytes == 0) continue;
    TransferGraph::Path& p = g.paths_.emplace_back();
    p.plan = share.plan;
    p.bytes = share.bytes;
    p.offset = offset;
    p.plan_index = i;
    // Never more chunks than bytes.
    p.chunks = static_cast<int>(std::min<std::uint64_t>(
        static_cast<std::uint64_t>(share.chunks), share.bytes));
    p.staged = share.plan.kind != topo::PathKind::Direct;
    p.first_stream = stream_for({src_dev, dst_dev, i, 0}, src_dev);
    if (p.staged) {
      p.second_stream = stream_for({src_dev, dst_dev, i, 1}, share.plan.stage);
      const auto& costs = runtime_->costs();
      p.extra_sync_s = share.plan.kind == topo::PathKind::HostStaged
                           ? costs.host_stage_sync_s
                           : costs.stage_sync_s;
      for (int c = 0; c < p.chunks; ++c) {
        p.fwd_events.push_back(runtime_->acquire_event());
        p.bwd_events.push_back(runtime_->acquire_event());
      }
    }
    offset += p.bytes;
  }
  g.rebuild_ops();
}

std::shared_ptr<TransferGraph> PipelineEngine::compile_graph(
    topo::DeviceId src_dev, topo::DeviceId dst_dev,
    const model::TransferConfig& config) {
  // Validate the whole config first, mirroring execute(): a malformed
  // config must not leak reserved events.
  if (config.paths.empty() || checked_total(config.paths, false) == 0) {
    throw std::invalid_argument("PipelineEngine: cannot compile empty config");
  }

  auto graph = std::make_shared<TransferGraph>();
  graph->config_ = config;
  build_graph(*graph, src_dev, dst_dev);
  return graph;
}

sim::Task<TransferOutcome> PipelineEngine::replay(
    std::shared_ptr<TransferGraph> graph, gpusim::DeviceBuffer& dst,
    std::size_t dst_offset, const gpusim::DeviceBuffer& src,
    std::size_t src_offset, std::span<const PathWatch> watch) {
  if (graph == nullptr || !graph->valid()) {
    throw std::invalid_argument("PipelineEngine: replay of an invalid graph");
  }
  TransferGraph& g = *graph;
  if (g.runtime_ != runtime_) {
    throw std::invalid_argument(
        "PipelineEngine: graph was compiled by a different runtime");
  }
  if (g.busy_) {
    throw std::logic_error(
        "PipelineEngine: graph replay already in flight (not reentrant)");
  }
  if (!watch.empty() && watch.size() != g.config_.paths.size()) {
    throw std::invalid_argument(
        "PipelineEngine: watch must be empty or match the compiled paths");
  }
  if (src.device() != g.src_dev_ || dst.device() != g.dst_dev_) {
    throw std::invalid_argument(
        "PipelineEngine: replay endpoints do not match the compiled graph");
  }
  src.check_region(src_offset, g.total_bytes_);
  dst.check_region(dst_offset, g.total_bytes_);

  g.busy_ = true;
  ++g.replays_;
  struct BusyReset {
    TransferGraph* g;
    ~BusyReset() { g->busy_ = false; }
  } busy_reset{&g};
  co_return co_await issue(g, dst, dst_offset, src, src_offset, watch);
}

sim::Task<TransferOutcome> PipelineEngine::issue(
    TransferGraph& g, gpusim::DeviceBuffer& dst, std::size_t dst_offset,
    const gpusim::DeviceBuffer& src, std::size_t src_offset,
    std::span<const PathWatch> watch) {
  // -- staging ----------------------------------------------------------------
  // Every run, compiled or not, leases its staging from the suspending pool,
  // in path order and before any watchdog is armed: waiting for a slot is
  // charged to the transfer, not to its deadlines. Each lease returns as its
  // staged path drains (below), so nothing holds a slot between runs.
  RunArray<StagingPool::Lease> leases;
  for (std::size_t i = 0; i < g.paths_.size(); ++i) {
    const TransferGraph::Path& p = g.paths_[i];
    if (!p.staged) continue;
    if (leases.empty()) leases.assign(g.paths_.size());
    leases[i] = co_await staging_.acquire(p.plan.stage, staging_bytes(p),
                                          g.src_dev_);
  }

  // -- accounting, monitor entries and watchdogs ------------------------------
  // Once any path is watched, every plan path gets a monitor entry, but only
  // a watched one gets its path and a watchdog, so only it can time out.
  // Deadlines are relative to issue start.
  sim::Engine& engine = runtime_->engine();
  MonitorState mon(*runtime_);
  for (const PathWatch& w : watch) {
    if (w.deadline_s > 0.0) {
      mon.entries.assign(g.config_.paths.size(),
                         runtime_->binding().network());
      break;
    }
  }
  for (const TransferGraph::Path& pi : g.paths_) {
    bytes_by_kind_[pi.plan.kind] += pi.bytes;
    const std::size_t i = pi.plan_index;
    if (mon.entries.empty() || watch[i].deadline_s <= 0.0) continue;
    // The backward record of chunk c fires once the chunk left the staging
    // device, i.e. the chunk is visible at the destination. Direct paths
    // need no events at all: each chunk's copy reports its own completion
    // through a DoneHook (see kCopyDirect below).
    mon.entries[i].path = &pi;
    mon.entries[i].watchdog = engine.schedule_callback(
        engine.now() + watch[i].deadline_s,
        [m = &mon, i] { m->on_deadline(i); });
  }

  // -- issue the op list ------------------------------------------------------
  // One flat walk; every op issues exactly one runtime call followed by one
  // issue-cost await. Chunk heads re-check the watchdog once per (path,
  // round) and skip the rest of a timed-out chunk group: no further chunks
  // are fed to a path its watchdog already gave up on.
  bool skipping = false;
  for (const GraphOp& op : g.ops_) {
    TransferGraph::Path& pi = g.paths_[op.path];
    MonitorState::Entry* watched = mon.watched(pi.plan_index);
    if (op.chunk_head) {
      // Each (path, chunk) group's ops are contiguous, so one flag carries
      // the skip decision to the end of the group.
      skipping = watched != nullptr && watched->timed_out;
    }
    if (skipping) continue;
    gpusim::CancelToken* token =
        watched != nullptr ? &watched->token : nullptr;
    const std::size_t c = op.chunk;
    switch (op.kind) {
      case GraphOp::Kind::kCopyDirect: {
        const std::size_t sz = pi.chunk_sizes[c];
        const std::size_t src_at =
            src_offset + pi.offset + pi.chunk_offsets[c];
        const std::size_t dst_at =
            dst_offset + pi.offset + pi.chunk_offsets[c];
        // Progress accounting rides the copy's own completion instead of an
        // extra per-chunk event record: monitoring a direct path is free.
        runtime_->memcpy_async(dst, dst_at, src, src_at, sz, pi.first_stream,
                               token, MonitorState::progress_hook(watched, sz));
        break;
      }
      case GraphOp::Kind::kWaitSlot:
        // The slot is free once chunk c-2 left the staging device.
        runtime_->wait_event(pi.first_stream, pi.bwd_events[c - 2]);
        break;
      case GraphOp::Kind::kCopyToStage: {
        gpusim::DeviceBuffer& stage = leases[op.path].buffer();
        const std::size_t slot_off = (c % 2) * (stage.size() / 2);
        runtime_->memcpy_async(stage, slot_off, src,
                               src_offset + pi.offset + pi.chunk_offsets[c],
                               pi.chunk_sizes[c], pi.first_stream, token);
        break;
      }
      case GraphOp::Kind::kRecordFwd:
        runtime_->record_event(pi.fwd_events[c], pi.first_stream);
        break;
      case GraphOp::Kind::kWaitFwd:
        runtime_->wait_event(pi.second_stream, pi.fwd_events[c]);
        break;
      case GraphOp::Kind::kStageDelay:
        runtime_->stream_delay(pi.second_stream, pi.extra_sync_s);
        break;
      case GraphOp::Kind::kCopyFromStage: {
        gpusim::DeviceBuffer& stage = leases[op.path].buffer();
        const std::size_t slot_off = (c % 2) * (stage.size() / 2);
        runtime_->memcpy_async(dst,
                               dst_offset + pi.offset + pi.chunk_offsets[c],
                               stage, slot_off, pi.chunk_sizes[c],
                               pi.second_stream, token);
        break;
      }
      case GraphOp::Kind::kRecordBwd:
        runtime_->record_event(pi.bwd_events[c], pi.second_stream);
        if (watched != nullptr) ++watched->records_issued;
        break;
    }
    co_await issue_cost();
  }

  // -- completion -------------------------------------------------------------
  // Staged paths first, so each staging lease returns to the pool the moment
  // its own streams drain: windowed transfers never hold buffers hostage
  // while waiting for an unrelated (direct) slice. A timed-out path's
  // streams drain too: its cancelled copies skip the data movement, so the
  // synchronize returns promptly.
  for (std::size_t pidx = 0; pidx < g.paths_.size(); ++pidx) {
    const TransferGraph::Path& pi = g.paths_[pidx];
    if (!pi.staged) continue;
    co_await runtime_->synchronize(pi.second_stream);
    const MonitorState::Entry* watched = mon.watched(pi.plan_index);
    const bool timed_out = watched != nullptr && watched->timed_out;
    if (src.materialized() && dst.materialized() &&
        !leases[pidx].buffer().materialized()) {
      // Simulated staging buffer between materialized endpoints: land the
      // payload in bulk — but only the delivered prefix of a path that was
      // aborted mid-flight.
      const std::size_t land =
          timed_out ? static_cast<std::size_t>(watched->delivered)
                    : static_cast<std::size_t>(pi.bytes);
      if (land > 0) {
        std::memcpy(dst.region(dst_offset + pi.offset, land).data(),
                    src.region(src_offset + pi.offset, land).data(), land);
      }
    }
    leases[pidx].release();
  }
  for (const TransferGraph::Path& pi : g.paths_) {
    if (pi.staged) continue;
    co_await runtime_->synchronize(pi.first_stream);
  }
  ++transfers_;
  // The run is over: no deadline of it may fire, or hold the clock, now.
  mon.cancel_watchdogs();

  co_return mon.outcome(g.config_);
}

}  // namespace mpath::pipeline
