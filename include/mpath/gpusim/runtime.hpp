// CUDA-like asynchronous runtime over the discrete-event simulator.
//
// Semantics mirror the subset of CUDA the UCX cuda_ipc path relies on:
//   * streams execute enqueued operations in order,
//   * events capture a point in a stream; other streams can wait on them,
//   * async copies move bytes between device buffers along the topology
//     route, sharing links with all concurrent traffic (fluid model),
//   * opening a peer buffer for IPC pays a one-time cost per
//     (runtime, opener device, buffer), amortized by handles the buffer
//     keeps until it is destroyed — UCX's cuda_ipc registration cache,
//     which drops an entry when its memory is unmapped.
//
// Enqueue calls are non-blocking (they return immediately at the current
// simulated instant); host-side issue overhead is modeled by the callers
// (pipeline engine) so that sequential path initiation shows up exactly
// where the paper's Algorithm 1 accounts for it (line 18).
//
// A stream is a FIFO the device drains, not a thread per operation: each
// stream keeps its queued ops as small entries in one ring, and the front
// op runs through the stream's one reusable running record, which engine
// callbacks advance step by step (no coroutine, no spawned process, no
// record or latch per op). See DESIGN.md, "GPU stream ops".
//
// A copy may be governed by a CancelToken that its issuer owns and passes
// by address, as it passes the buffers: the token, like the buffers, must
// outlive the ops it governs.
//
// Every modeled op scales its cost by one jitter draw (jitter()). Once a
// runtime has taken util::JitterStream::kSelfDraws draws, the process's one
// filler thread fills its next batch of draws while the runtime reads the
// current one, unless a util::JitterStream::OwnFills is alive (a sweep with
// a worker on every core); the values are the same either way. That thread
// is the only one a runtime touches, and it touches nothing of the
// simulation.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "mpath/gpusim/buffer.hpp"
#include "mpath/sim/engine.hpp"
#include "mpath/sim/fluid.hpp"
#include "mpath/sim/inline_fn.hpp"
#include "mpath/sim/owner.hpp"
#include "mpath/sim/pool.hpp"
#include "mpath/sim/trace.hpp"
#include "mpath/topo/binding.hpp"
#include "mpath/topo/system.hpp"
#include "mpath/util/rng.hpp"
#include "mpath/util/small_vec.hpp"

namespace mpath::gpusim {

using StreamId = std::uint32_t;
using EventId = std::uint32_t;

/// Cooperative cancellation handle for in-flight copies. The issuer (e.g. a
/// pipeline watchdog) owns the token and passes its address to every
/// memcpy_async it governs: cancel() aborts the governed copies' live fluid
/// flows via FluidNetwork::cancel_flow and marks the token, after which
/// governed ops that have not yet started drain without moving data. Like
/// a buffer, a token must outlive the ops it governs. Single-simulation use
/// only (no thread safety needed — the engine is single-threaded).
class CancelToken {
 public:
  explicit CancelToken(sim::FluidNetwork& net) : net_(&net) {}
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Abort: cancels every governed fluid flow currently in flight. Later
  /// governed copies become no-ops. Idempotent.
  void cancel();
  [[nodiscard]] bool cancelled() const { return cancelled_; }
  /// Flows actually aborted mid-flight by cancel() (not merely skipped).
  [[nodiscard]] std::size_t flows_cancelled() const {
    return cancelled_ids_.size();
  }

 private:
  friend class GpuRuntime;
  [[nodiscard]] bool was_cancelled(sim::FlowId id) const;

  sim::FluidNetwork* net_;
  bool cancelled_ = false;
  // A token typically governs the chunks of one path (a handful in flight
  // at once); inline storage keeps the cancellable-copy path off the heap.
  util::SmallVec<sim::FlowId, 4> in_flight_;      ///< flows streaming now
  util::SmallVec<sim::FlowId, 4> cancelled_ids_;  ///< aborted by cancel()
};

class GpuRuntime {
 public:
  /// The runtime builds its own fluid network binding over `system`'s
  /// topology. `system` and `engine` must outlive the runtime.
  GpuRuntime(const topo::System& system, sim::Engine& engine,
             sim::FluidNetwork& network, std::uint64_t seed = 1);
  GpuRuntime(const GpuRuntime&) = delete;
  GpuRuntime& operator=(const GpuRuntime&) = delete;
  ~GpuRuntime();

  // -- object creation ------------------------------------------------------
  [[nodiscard]] StreamId create_stream(topo::DeviceId device);
  [[nodiscard]] EventId create_event();
  /// Recycled event reservation: pop a previously released event or create
  /// a fresh one. Reuse is safe because every consumer captures an event's
  /// latch when its op is *enqueued* and record_event re-arms the latch
  /// synchronously at enqueue — a reacquired id can never be observed
  /// through stale state. Long-lived holders (compiled transfer graphs)
  /// reserve events once and keep them across replays.
  [[nodiscard]] EventId acquire_event();
  /// Return an event to the runtime free list for acquire_event reuse. The
  /// caller must no longer use the id.
  void release_event(EventId event);
  [[nodiscard]] std::size_t events_pooled() const {
    return event_free_list_.size();
  }
  /// Events currently reserved via acquire_event and not yet released.
  /// Long-lived holders (compiled transfer graphs, chained collectives)
  /// must return this to its pre-acquisition baseline on destruction — the
  /// chain/graph leak check in the tests asserts exactly that.
  [[nodiscard]] std::uint64_t events_outstanding() const {
    return events_acquired_ - events_released_;
  }

  // -- stream operations (enqueue, non-blocking) ----------------------------
  // Each call appends one entry to the stream's ring. An op on an idle
  // stream starts at an event queued at the current instant. An op on a
  // busy stream queues no event: it reserves the place such an event would
  // have held and starts when its predecessor finishes, in that place if
  // the predecessor finishes later in the same instant before the engine
  // reaches it, else at a fresh place. Ties between streams therefore
  // resolve, and jitter is drawn, in enqueue order.
  /// Completion hook for memcpy_async: runs at the simulated instant the
  /// copy finishes, with `delivered == false` when the copy was cancelled
  /// (drained without moving data). Lets callers observe per-chunk progress
  /// passively instead of enqueueing an extra event record per chunk.
  /// Inline-storage callable: hooks are enqueued per chunk, so a capture
  /// that allocated would undo the zero-allocation hot path.
  using DoneHook = sim::InlineFn<void(bool delivered), 48>;

  /// Copy `len` bytes between buffer regions along the topology route from
  /// src.device() to dst.device(). Payload bytes are copied at completion
  /// time. Both buffers, and a non-null `token`, must outlive the
  /// operation. A token makes the copy abortable: token->cancel() kills the
  /// in-flight fluid flow (partial link bytes stay accounted, payload is
  /// not copied) and turns not-yet-started governed copies into no-ops, so
  /// a stream backed by a severed link drains instead of stalling forever.
  /// A non-null `on_done` is invoked once at copy completion (delivered or
  /// drained).
  void memcpy_async(DeviceBuffer& dst, std::size_t dst_offset,
                    const DeviceBuffer& src, std::size_t src_offset,
                    std::size_t len, StreamId stream,
                    CancelToken* token = nullptr, DoneHook on_done = {});
  /// Record `event` at the current tail of `stream` (CUDA semantics: a
  /// later wait_event observes this record).
  void record_event(EventId event, StreamId stream);
  /// Make `stream` wait for the most recent record of `event`. Waiting on
  /// a never-recorded event is a no-op (as in CUDA).
  void wait_event(StreamId stream, EventId event);
  /// Enqueue a fixed on-stream delay (models per-chunk staging work that is
  /// not a data movement, e.g. host-side synchronization in host staging).
  /// Throws std::invalid_argument on a negative or NaN `seconds`.
  void stream_delay(StreamId stream, double seconds);

  // -- synchronization (awaitable) ------------------------------------------
  /// Complete when every operation currently enqueued on `stream` is done.
  /// Waiters on one op wake in the order they called, in one event; an op
  /// someone waits on gets a latch for them, no other op does.
  [[nodiscard]] sim::Task<void> synchronize(StreamId stream);
  /// True if the most recent record of `event` has fired (non-blocking
  /// query, cudaEventQuery semantics). Never-recorded events read as fired.
  [[nodiscard]] bool event_fired(EventId event) const;

  // -- CUDA IPC handles -------------------------------------------------------
  /// Open `buffer` for access from `opener`. This runtime's first open per
  /// (opener, buffer) pays the system's ipc_open cost; later opens are free.
  /// The handle lives in the buffer and dies with it.
  [[nodiscard]] sim::Task<void> ipc_open(topo::DeviceId opener,
                                         const DeviceBuffer& buffer);
  [[nodiscard]] bool ipc_cached(topo::DeviceId opener,
                                const DeviceBuffer& buffer) const;

  // -- accessors --------------------------------------------------------------
  [[nodiscard]] sim::Engine& engine() { return *engine_; }
  [[nodiscard]] const topo::System& system() const { return *system_; }
  [[nodiscard]] const topo::Topology& topology() const {
    return system_->topology;
  }
  [[nodiscard]] const topo::SoftwareCosts& costs() const {
    return system_->costs;
  }
  [[nodiscard]] const topo::NetworkBinding& binding() const {
    return binding_;
  }
  /// The per-pair route table itself (route() lowers on first lookup).
  [[nodiscard]] topo::NetworkBinding& binding() { return binding_; }
  /// One jitter factor for a modeled op's cost: the next draw of the
  /// runtime's util::JitterStream at the system's `jitter_rel`, equal bit
  /// for bit to util::Rng::jitter on the same seed (the stream only draws
  /// its σ-free factors in batches, ahead of use, past its young phase on
  /// the filler thread), or exactly 1 without a draw when `jitter_rel`
  /// <= 0, so such a runtime never starts that thread. Skipping is safe
  /// because nothing else reads the stream and `jitter_rel` is fixed per
  /// system.
  [[nodiscard]] double jitter() {
    const double sigma = costs().jitter_rel;
    return sigma <= 0.0 ? 1.0 : jitter_stream_.next(sigma);
  }

  /// Total simulated bytes copied through memcpy_async so far.
  [[nodiscard]] std::uint64_t bytes_copied() const { return bytes_copied_; }
  [[nodiscard]] std::uint64_t ops_issued() const { return ops_issued_; }

  /// Attach an activity tracer (nullptr detaches). While attached, every
  /// stream operation emits a span on the track "streamN (device)", and a
  /// "streams_busy" occupancy counter ("ph":"C") is sampled on track
  /// "gpusim" once every `counter_stride` enqueues.
  void set_tracer(sim::Tracer* tracer) { tracer_ = tracer; }
  [[nodiscard]] sim::Tracer* tracer() const { return tracer_; }
  /// Stride (in enqueued ops) between stream-occupancy counter samples.
  void set_counter_stride(std::uint64_t stride) {
    counter_stride_ = stride > 0 ? stride : 1;
    ops_until_sample_ = counter_stride_;
  }

 private:
  struct Event {
    // Latch of the most recent record; starts pre-fired (CUDA semantics).
    std::shared_ptr<sim::Latch> latch;
  };
  enum class OpKind : std::uint8_t;  // copy, record, wait or delay
  struct Entry;                       // one queued stream op (runtime.cpp)
  struct Lane;  // one stream: its ring of entries and its running record

  /// Append an entry of `kind` to `stream`: started by an event queued at
  /// the current instant on an idle stream, holding a reserved place on a
  /// busy one. The caller constructs the kind's payload; the op cannot
  /// start before the engine dispatches another event.
  Entry& enqueue(StreamId stream, OpKind kind);

  [[nodiscard]] std::string stream_track(StreamId stream) const;

  // Like the engine it drives, a runtime belongs to exactly one thread
  // (checked in debug builds); parallel sweeps build one per worker.
  [[no_unique_address]] sim::ThreadOwner owner_;
  const topo::System* system_;
  sim::Engine* engine_;
  sim::FluidNetwork* network_;
  topo::NetworkBinding binding_;
  util::JitterStream jitter_stream_;
  /// Sim-pool blocks, so a growing vector moves no running record.
  std::vector<std::unique_ptr<Lane>> streams_;
  std::vector<Event> events_;
  std::vector<EventId> event_free_list_;  ///< released ids, LIFO reuse
  std::uint64_t events_acquired_ = 0;     ///< acquire_event calls
  std::uint64_t events_released_ = 0;     ///< release_event calls
  /// Names this runtime's IPC handles; never shared by two runtimes.
  std::uint64_t ipc_serial_;
  std::uint64_t bytes_copied_ = 0;
  std::uint64_t ops_issued_ = 0;
  sim::Tracer* tracer_ = nullptr;
  std::uint64_t counter_stride_ = 256;
  std::uint64_t ops_until_sample_ = 256;
};

}  // namespace mpath::gpusim
