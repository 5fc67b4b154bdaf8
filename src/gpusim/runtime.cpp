#include "mpath/gpusim/runtime.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "mpath/util/rng.hpp"
#include "mpath/util/units.hpp"

namespace mpath::gpusim {

void CancelToken::cancel() {
  if (cancelled_) return;
  cancelled_ = true;
  for (sim::FlowId id : in_flight_) {
    // A flow that completed in this same instant has a stale id; cancel_flow
    // returns false and the copy counts as delivered.
    if (net_->cancel_flow(id)) cancelled_ids_.push_back(id);
  }
  in_flight_.clear();
}

bool CancelToken::was_cancelled(sim::FlowId id) const {
  return std::find(cancelled_ids_.begin(), cancelled_ids_.end(), id) !=
         cancelled_ids_.end();
}

namespace {
std::atomic<std::uint64_t> g_next_ipc_serial{1};

/// The kind of draw a jitter key is for, so that no two kinds share a key.
enum KeyTag : std::uint64_t { kStreamOp, kHostIssue, kIpcOpen };

/// The key of one kind of draw for `id` (a stream or an opener) under
/// `seed`; a draw then mixes in its ordinal (util::keyed_jitter).
std::uint64_t jitter_key(std::uint64_t seed, KeyTag tag, std::uint64_t id) {
  return util::mix_seed(util::mix_seed(seed, tag), id);
}

/// Order-stable removal (SmallVec analogue of std::erase on a vector).
void erase_flow(util::SmallVec<sim::FlowId, 4>& v, sim::FlowId id) {
  const auto it = std::find(v.begin(), v.end(), id);
  if (it != v.end()) v.erase(it);
}
}  // namespace

enum class GpuRuntime::OpKind : std::uint8_t { kCopy, kRecord, kWait, kDelay };

/// One queued stream op: what it does, its payload, and the same-instant
/// place it reserved at enqueue. Entries are constructed in a lane's raw
/// ring storage without initialisation: an enqueue writes only the fields
/// its kind needs, and the lane destroys the payload when the op finishes.
struct GpuRuntime::Entry {
  struct Copy {
    DeviceBuffer* dst;
    const DeviceBuffer* src;
    std::size_t dst_offset;
    std::size_t src_offset;
    std::size_t len;
    CancelToken* token;
    DoneHook on_done;
  };

  // User-provided and empty: constructing an entry writes nothing, and the
  // lane destroys the payload of `kind`.
  Entry() {}
  ~Entry() {}

  OpKind kind;
  sim::Latch* waiters;  ///< synchronize() waiters: the first one's latch
  std::uint64_t seq;    ///< busy stream: the place reserved at enqueue
  sim::Time at;         ///< busy stream: the instant of that reservation
  union {
    Copy copy;
    std::shared_ptr<sim::Latch> event;  ///< record: fires it; wait: awaits it
    double seconds;                     ///< delay length
  };
};

/// One stream: a ring of queued entries whose front op is running, and the
/// running record that op runs through, one event per delay (at
/// `now + dt`). Engine callbacks and latch waiter nodes point at the lane,
/// never into the ring. The ring is a power-of-two map of chunks of
/// kChunk entries; growth adds chunks and moves only chunk pointers, so no
/// entry moves either. The lane, its map and its chunks are sim-pool blocks
/// of at most 8 KiB (a map past 1,024 chunks falls through to the heap); a
/// one-chunk map is the lane's own `first` slot.
struct GpuRuntime::Lane {
  using Step = void (*)(Lane&);
  static constexpr std::uint64_t kChunk = 32;  ///< entries per chunk
  static constexpr std::size_t kChunkBytes = kChunk * sizeof(Entry);
  static_assert(kChunkBytes <= 8192, "a ring chunk must fit a pool block");

  static void* operator new(std::size_t n) {
    return sim::detail::pool_alloc(n);
  }
  static void operator delete(void* p, std::size_t n) noexcept {
    sim::detail::pool_free(p, n);
  }

  Lane(GpuRuntime& runtime, StreamId stream, topo::DeviceId dev)
      : rt(&runtime),
        id(stream),
        device(dev),
        op_key(jitter_key(runtime.seed_, kStreamOp, stream)),
        issue_key(jitter_key(runtime.seed_, kHostIssue, stream)) {
    waiter.fn = [](void* self) {
      Lane& lane = *static_cast<Lane*>(self);
      lane.next(lane);
    };
    waiter.ctx = this;
  }
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;
  ~Lane() {
    while (!idle()) pop();
    for (std::size_t i = 0; i < slots; ++i) {
      if (chunks[i] != nullptr) sim::detail::pool_free(chunks[i], kChunkBytes);
    }
    if (chunks != &first) {
      sim::detail::pool_free(chunks, slots * sizeof(Entry*));
    }
  }

  [[nodiscard]] bool idle() const { return head == tail; }
  [[nodiscard]] Entry* slot(std::uint64_t i) const {
    return chunks[(i / kChunk) & (slots - 1)] + i % kChunk;
  }
  [[nodiscard]] Entry& front() const { return *slot(head); }
  [[nodiscard]] Entry& back() const { return *slot(tail - 1); }

  /// Construct an entry at the back, unwritten.
  Entry& push() {
    if (tail % kChunk == 0) {
      // Entering a chunk: its map slot may still hold the head's chunk.
      if (tail / kChunk - head / kChunk >= slots) grow();
      Entry*& chunk = chunks[(tail / kChunk) & (slots - 1)];
      if (chunk == nullptr) {
        chunk = static_cast<Entry*>(sim::detail::pool_alloc(kChunkBytes));
      }
    }
    return *::new (slot(tail++)) Entry;
  }
  /// Destroy the front entry. An emptied ring restarts at its first slot,
  /// so a stream that drains keeps reusing the same cache lines; it keeps
  /// its chunks, so steady state allocates nothing.
  void pop() {
    Entry& e = front();
    switch (e.kind) {
      case OpKind::kCopy:
        e.copy.~Copy();
        break;
      case OpKind::kRecord:
      case OpKind::kWait:
        e.event.~shared_ptr();
        break;
      case OpKind::kDelay:
        break;
    }
    e.~Entry();
    ++finished;
    if (++head == tail) head = tail = 0;
  }
  /// Double the chunk map; the live chunks keep their entries and move to
  /// their slots in the larger map.
  void grow() {
    const std::size_t grown = 2 * slots;
    auto** map =
        static_cast<Entry**>(sim::detail::pool_alloc(grown * sizeof(Entry*)));
    std::fill(map, map + grown, nullptr);
    for (std::uint64_t c = head / kChunk; c < tail / kChunk; ++c) {
      map[c & (grown - 1)] = chunks[c & (slots - 1)];
    }
    if (chunks != &first) {
      sim::detail::pool_free(chunks, slots * sizeof(Entry*));
    }
    chunks = map;
    slots = grown;
  }

  /// Run `step` `dt` simulated seconds from now.
  void after(double dt, Step step) {
    sim::Engine& e = *rt->engine_;
    e.schedule_callback(e.now() + dt, [this, step] { step(*this); });
  }
  /// Run `step` after `cost` scaled by the front op's jitter. Ops start in
  /// FIFO order, so the front op's ordinal is the count of finished ones.
  void after_jittered(double cost, Step step) {
    after(cost * rt->op_jitter(id, finished), step);
  }
  /// Run `step` from the event `latch`'s fire() queues. The waiter node
  /// lives here, not in the latch: FluidNetwork destroys a flow's latch
  /// right after firing it.
  void park(sim::Latch& latch, Step step) {
    next = step;
    latch.add_waiter(waiter);
  }

  static void start(Lane& lane);
  static void finish(Lane& lane);
  static void waited(Lane& lane);
  static void recorded(Lane& lane);
  static void start_copy(Lane& lane);
  static void copy_launched(Lane& lane);
  static void copy_start_flow(Lane& lane);
  static void copy_done(Lane& lane);

  GpuRuntime* rt;
  StreamId id;
  topo::DeviceId device;
  std::uint64_t op_key;        ///< jitter key of the stream's ops
  std::uint64_t issue_key;     ///< jitter key of their host issues
  std::uint64_t finished = 0;  ///< ops popped: the front op's ordinal
  // The running record: the front op's progress.
  Step next = nullptr;         ///< what a wakeup of `waiter` runs
  sim::Latch::Awaiter waiter;  ///< node on the latch the lane waits on now
  const topo::LoweredRoute* route = nullptr;  ///< copy: the binding's entry
  sim::FlowId flow = sim::kInvalidFlow;       ///< copy: its fluid flow
  double started = 0.0;                       ///< copy: trace span start
  bool delivered = true;                      ///< copy: not cancelled
  // The ring.
  Entry* first = nullptr;   ///< the map while it has one slot
  Entry** chunks = &first;  ///< map of `slots` chunk pointers
  std::size_t slots = 1;    ///< a power of two
  std::uint64_t head = 0;   ///< index of the front entry
  std::uint64_t tail = 0;   ///< index one past the back entry
};

void GpuRuntime::Lane::start(Lane& lane) {
  Entry& op = lane.front();
  switch (op.kind) {
    case OpKind::kCopy:
      return start_copy(lane);
    case OpKind::kRecord:
      return lane.after_jittered(lane.rt->costs().event_record_s, recorded);
    case OpKind::kWait:
      if (op.event->fired()) return waited(lane);
      return lane.park(*op.event, waited);
    case OpKind::kDelay:
      return lane.after(op.seconds, finish);
  }
}

void GpuRuntime::Lane::recorded(Lane& lane) {
  lane.front().event->fire();
  finish(lane);
}

void GpuRuntime::Lane::waited(Lane& lane) {
  lane.after_jittered(lane.rt->costs().event_wait_s, finish);
}

/// Complete the front op and start its successor. A successor reserved its
/// place at enqueue: it starts there if the place is at this instant and
/// still ahead, before the op's synchronize() waiters wake. Otherwise it
/// starts at a fresh place: after the waiters, in their one wakeup event,
/// or in an event of its own when there are none.
void GpuRuntime::Lane::finish(Lane& lane) {
  sim::Engine& e = *lane.rt->engine_;
  sim::Latch* waiters = lane.front().waiters;
  lane.pop();
  if (!lane.idle()) {
    const Entry& next = lane.front();
    if (next.at == e.now() && next.seq > e.current_seq()) {
      e.schedule_reserved(next.seq, [l = &lane] { start(*l); });
    } else if (waiters != nullptr) {
      lane.park(*waiters, start);
    } else {
      e.schedule_callback(e.now(), [l = &lane] { start(*l); });
    }
  }
  if (waiters != nullptr) waiters->fire();
}

void GpuRuntime::Lane::start_copy(Lane& lane) {
  Entry::Copy& op = lane.front().copy;
  if (op.token && op.token->cancelled()) {
    // Drain without moving data or paying dispatch latency.
    if (op.on_done) op.on_done(false);
    return finish(lane);
  }
  lane.flow = sim::kInvalidFlow;
  lane.delivered = true;
  lane.started = lane.rt->engine_->now();
  // Device-side dispatch latency for the copy engine.
  lane.after_jittered(lane.rt->costs().op_launch_s, copy_launched);
}

void GpuRuntime::Lane::copy_launched(Lane& lane) {
  const Entry::Copy& op = lane.front().copy;
  if (op.len == 0) return copy_done(lane);
  GpuRuntime& rt = *lane.rt;
  const topo::DeviceId from = op.src->device();
  const topo::DeviceId to = op.dst->device();
  if (from == to) {
    return lane.after(static_cast<double>(op.len) / rt.costs().local_copy_bps,
                      copy_done);
  }
  // The route's startup latency, then the bytes stream as a fluid flow.
  lane.route = &rt.binding_.route(from, to);
  if (lane.route->latency_s > 0.0) {
    return lane.after(lane.route->latency_s, copy_start_flow);
  }
  copy_start_flow(lane);
}

void GpuRuntime::Lane::copy_start_flow(Lane& lane) {
  const Entry::Copy& op = lane.front().copy;
  if (op.token && op.token->cancelled()) {
    lane.delivered = false;
    return copy_done(lane);
  }
  if (lane.route->links.empty()) return copy_done(lane);
  auto* latch = new sim::Latch(*lane.rt->engine_);  // owned by the flow
  lane.flow = lane.rt->network_->start_flow(
      lane.route->links, static_cast<double>(op.len), latch);
  // Registered with the token while the bytes stream, so token->cancel()
  // can abort the flow mid-flight.
  if (op.token) op.token->in_flight_.push_back(lane.flow);
  lane.park(*latch, copy_done);
}

void GpuRuntime::Lane::copy_done(Lane& lane) {
  GpuRuntime& rt = *lane.rt;
  Entry::Copy& op = lane.front().copy;
  if (op.token && lane.flow != sim::kInvalidFlow) {
    erase_flow(op.token->in_flight_, lane.flow);
    lane.delivered = !op.token->was_cancelled(lane.flow);
  }
  if (op.len > 0 && lane.delivered) {
    // Payload lands at completion time; simulated buffers carry none.
    if (op.dst->materialized() && op.src->materialized()) {
      std::memcpy(op.dst->region(op.dst_offset, op.len).data(),
                  op.src->region(op.src_offset, op.len).data(), op.len);
    }
    rt.bytes_copied_ += op.len;
  }
  if (rt.tracer_ != nullptr) {
    rt.tracer_->add_span(
        rt.stream_track(lane.id),
        std::string(lane.delivered ? "copy " : "copy(cancelled) ") +
            util::format_bytes(op.len) + " " +
            rt.topology().device(op.src->device()).name + "->" +
            rt.topology().device(op.dst->device()).name,
        lane.started, rt.engine_->now());
  }
  if (op.on_done) op.on_done(lane.delivered);
  finish(lane);
}

GpuRuntime::GpuRuntime(const topo::System& system, sim::Engine& engine,
                       sim::FluidNetwork& network, std::uint64_t seed)
    : system_(&system),
      engine_(&engine),
      network_(&network),
      binding_(system.topology, network),
      seed_(seed),
      ipc_serial_(g_next_ipc_serial.fetch_add(1, std::memory_order_relaxed)) {
}

GpuRuntime::~GpuRuntime() = default;

StreamId GpuRuntime::create_stream(topo::DeviceId device) {
  MPATH_ASSERT_OWNER(owner_, "gpusim::GpuRuntime (create_stream)");
  const auto id = static_cast<StreamId>(streams_.size());
  streams_.push_back(std::unique_ptr<Lane>(new Lane(*this, id, device)));
  return id;
}

EventId GpuRuntime::create_event() {
  MPATH_ASSERT_OWNER(owner_, "gpusim::GpuRuntime (create_event)");
  auto latch = sim::make_pooled<sim::Latch>(*engine_);
  latch->fire();  // never-recorded events do not block (CUDA semantics)
  events_.push_back(Event{std::move(latch)});
  return static_cast<EventId>(events_.size() - 1);
}

EventId GpuRuntime::acquire_event() {
  MPATH_ASSERT_OWNER(owner_, "gpusim::GpuRuntime (acquire_event)");
  ++events_acquired_;
  if (!event_free_list_.empty()) {
    const EventId ev = event_free_list_.back();
    event_free_list_.pop_back();
    return ev;
  }
  return create_event();
}

void GpuRuntime::release_event(EventId event) {
  MPATH_ASSERT_OWNER(owner_, "gpusim::GpuRuntime (release_event)");
  assert(events_released_ < events_acquired_ &&
         "GpuRuntime: release_event without a matching acquire_event");
  ++events_released_;
  event_free_list_.push_back(event);
}

bool GpuRuntime::event_fired(EventId event) const {
  return events_.at(event).latch->fired();
}

double GpuRuntime::op_jitter(StreamId stream, std::uint64_t ordinal) const {
  return util::keyed_jitter(streams_.at(stream)->op_key, ordinal,
                            costs().jitter_rel);
}

double GpuRuntime::host_issue_jitter(StreamId stream) const {
  const Lane& lane = *streams_.at(stream);
  const std::uint64_t last = lane.finished + (lane.tail - lane.head) - 1;
  return util::keyed_jitter(lane.issue_key, last, costs().jitter_rel);
}

GpuRuntime::Entry& GpuRuntime::enqueue(StreamId stream, OpKind kind) {
  MPATH_ASSERT_OWNER(owner_, "gpusim::GpuRuntime (stream enqueue)");
  Lane& lane = *streams_.at(stream);
  const bool idle = lane.idle();
  Entry& op = lane.push();
  op.kind = kind;
  op.waiters = nullptr;
  if (idle) {
    engine_->schedule_callback(engine_->now(),
                               [l = &lane] { Lane::start(*l); });
  } else {
    // Busy stream: no start event, but keep the place one would have had.
    op.seq = engine_->reserve_seq();
    op.at = engine_->now();
  }
  ++ops_issued_;
  if (tracer_ != nullptr && --ops_until_sample_ == 0) {
    ops_until_sample_ = counter_stride_;
    std::size_t busy = 0;
    for (const auto& l : streams_) {
      if (!l->idle()) ++busy;
    }
    tracer_->add_counter("gpusim", "streams_busy", engine_->now(),
                         static_cast<double>(busy));
  }
  return op;
}

std::string GpuRuntime::stream_track(StreamId stream) const {
  return "stream" + std::to_string(stream) + " (" +
         topology().device(streams_.at(stream)->device).name + ")";
}

void GpuRuntime::memcpy_async(DeviceBuffer& dst, std::size_t dst_offset,
                              const DeviceBuffer& src, std::size_t src_offset,
                              std::size_t len, StreamId stream,
                              CancelToken* token, DoneHook on_done) {
  // Validate regions eagerly: misuse should fail at the call site, not at
  // some later simulated instant.
  dst.check_region(dst_offset, len);
  src.check_region(src_offset, len);
  Entry& op = enqueue(stream, OpKind::kCopy);
  ::new (&op.copy) Entry::Copy{&dst,       &src, dst_offset,
                               src_offset, len,  token,
                               std::move(on_done)};
}

void GpuRuntime::record_event(EventId event, StreamId stream) {
  auto recorded = sim::make_pooled<sim::Latch>(*engine_);
  events_.at(event).latch = recorded;
  Entry& op = enqueue(stream, OpKind::kRecord);
  ::new (&op.event) std::shared_ptr<sim::Latch>(std::move(recorded));
}

void GpuRuntime::wait_event(StreamId stream, EventId event) {
  // CUDA captures the event state at enqueue time.
  auto latch = events_.at(event).latch;
  Entry& op = enqueue(stream, OpKind::kWait);
  ::new (&op.event) std::shared_ptr<sim::Latch>(std::move(latch));
}

void GpuRuntime::stream_delay(StreamId stream, double seconds) {
  if (!(seconds >= 0.0)) {  // also catches NaN
    throw std::invalid_argument(
        "GpuRuntime::stream_delay: seconds must be >= 0 and not NaN");
  }
  Entry& op = enqueue(stream, OpKind::kDelay);
  op.seconds = seconds;
}

sim::Task<void> GpuRuntime::synchronize(StreamId stream) {
  Lane& lane = *streams_.at(stream);
  if (lane.idle()) co_return;
  // The first waiter on the stream's last op lends it the latch in its own
  // frame, which stays suspended until the op finishes and fires it; later
  // waiters join it.
  sim::Latch latch(*engine_);
  Entry& last = lane.back();
  if (last.waiters == nullptr) last.waiters = &latch;
  co_await last.waiters->wait();
}

sim::Task<void> GpuRuntime::ipc_open(topo::DeviceId opener,
                                     const DeviceBuffer& buffer) {
  if (ipc_cached(opener, buffer)) co_return;
  co_await engine_->delay(
      costs().ipc_open_s *
      util::keyed_jitter(jitter_key(seed_, kIpcOpen, opener), ipc_opens_++,
                         costs().jitter_rel));
  // Two opens of one pair in flight together both pay, as before; the
  // second stores nothing.
  if (ipc_cached(opener, buffer)) co_return;
  auto& handles = buffer.ipc_handles_;
  if (handles == nullptr) {
    handles = std::make_unique<util::SmallVec<DeviceBuffer::IpcHandle, 2>>();
  }
  handles->push_back(DeviceBuffer::IpcHandle{ipc_serial_, opener});
}

bool GpuRuntime::ipc_cached(topo::DeviceId opener,
                            const DeviceBuffer& buffer) const {
  const auto& handles = buffer.ipc_handles_;
  return handles != nullptr &&
         std::any_of(handles->begin(), handles->end(),
                     [&](const DeviceBuffer::IpcHandle& h) {
                       return h.runtime == ipc_serial_ && h.opener == opener;
                     });
}

}  // namespace mpath::gpusim
