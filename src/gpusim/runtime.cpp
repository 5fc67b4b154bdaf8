#include "mpath/gpusim/runtime.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

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
/// Order-stable removal (SmallVec analogue of std::erase on a vector).
void erase_flow(util::SmallVec<sim::FlowId, 4>& v, sim::FlowId id) {
  const auto it = std::find(v.begin(), v.end(), id);
  if (it != v.end()) v.erase(it);
}
}  // namespace

GpuRuntime::GpuRuntime(const topo::System& system, sim::Engine& engine,
                       sim::FluidNetwork& network, std::uint64_t seed)
    : system_(&system),
      engine_(&engine),
      network_(&network),
      binding_(system.topology, network),
      jitter_stream_(seed) {}

StreamId GpuRuntime::create_stream(topo::DeviceId device) {
  MPATH_ASSERT_OWNER(owner_, "gpusim::GpuRuntime (create_stream)");
  auto tail = sim::make_pooled<sim::Latch>(*engine_);
  tail->fire();  // empty stream is drained
  streams_.push_back(Stream{device, std::move(tail)});
  return static_cast<StreamId>(streams_.size() - 1);
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

CancelTokenPtr GpuRuntime::make_cancel_token() const {
  return sim::make_pooled<CancelToken>(*network_);
}

bool GpuRuntime::event_fired(EventId event) const {
  return events_.at(event).latch->fired();
}

/// One enqueued stream operation: a pooled record that engine callbacks
/// advance step by step, one event per delay (at `now + dt`), with no
/// coroutine frame and no process. The completion latch `done` is the
/// stream tail, and the record lives as long as anyone holds that latch:
/// the stream, the next op until it finishes, or a synchronize(). While
/// the op runs, the stream or the next op always does.
struct GpuRuntime::Op {
  explicit Op(GpuRuntime& runtime) : rt(&runtime), done(*runtime.engine_) {
    waiter.fn = [](void* self) {
      Op& op = *static_cast<Op*>(self);
      op.next(op);
    };
    waiter.ctx = this;
  }

  /// Run `step` `dt` simulated seconds from now.
  void after(double dt, OpStep step) {
    sim::Engine& e = *rt->engine_;
    e.schedule_callback(e.now() + dt, [this, step] { step(*this); });
  }
  /// Run `step` after `cost` scaled by the runtime's jitter, drawn now.
  void after_jittered(double cost, OpStep step) {
    after(cost * rt->jitter(), step);
  }
  /// Run `step` from the event `latch`'s fire() queues. The waiter node
  /// lives here, not in the latch: FluidNetwork destroys a flow's latch
  /// right after firing it. A nonzero `seq` holds a same-time place (see
  /// sim::Latch::Awaiter::seq).
  void park(sim::Latch& latch, OpStep step, std::uint64_t seq = 0) {
    next = step;
    waiter.seq = seq;
    waiter.at = rt->engine_->now();
    latch.add_waiter(waiter);
  }
  /// Complete: fire the stream-order latch and drop what the op held.
  static void finish(Op& op) {
    op.done.fire();
    op.prev.reset();
    op.event.reset();
    op.token.reset();
    op.on_done.reset();
  }

  static void start_copy(Op& op);
  static void copy_launched(Op& op);
  static void copy_start_flow(Op& op);
  static void copy_done(Op& op);

  GpuRuntime* rt;
  sim::Latch done;
  sim::Latch::Awaiter waiter;  ///< node on the latch the op waits on now
  OpStep next = nullptr;       ///< what a wakeup of `waiter` runs
  std::shared_ptr<sim::Latch> prev;   ///< predecessor on a busy stream
  std::shared_ptr<sim::Latch> event;  ///< record: fires it; wait: awaits it
  StreamId stream = 0;
  double seconds = 0.0;  ///< delay length; copy: trace span start
  // Copy only.
  DeviceBuffer* dst = nullptr;
  const DeviceBuffer* src = nullptr;
  std::size_t dst_offset = 0;
  std::size_t src_offset = 0;
  std::size_t len = 0;
  CancelTokenPtr token;
  DoneHook on_done;
  const topo::LoweredRoute* route = nullptr;  ///< the binding's entry
  sim::FlowId flow = sim::kInvalidFlow;
  bool delivered = true;
};

void GpuRuntime::Op::start_copy(Op& op) {
  if (op.token && op.token->cancelled()) {
    // Drain without moving data or paying dispatch latency.
    if (op.on_done) op.on_done(false);
    return finish(op);
  }
  op.seconds = op.rt->engine_->now();
  // Device-side dispatch latency for the copy engine.
  op.after_jittered(op.rt->costs().op_launch_s, copy_launched);
}

void GpuRuntime::Op::copy_launched(Op& op) {
  if (op.len == 0) return copy_done(op);
  GpuRuntime& rt = *op.rt;
  const topo::DeviceId from = op.src->device();
  const topo::DeviceId to = op.dst->device();
  if (from == to) {
    return op.after(static_cast<double>(op.len) / rt.costs().local_copy_bps,
                    copy_done);
  }
  // The route's startup latency, then the bytes stream as a fluid flow.
  op.route = &rt.binding_.route(from, to);
  if (op.route->latency_s > 0.0) {
    return op.after(op.route->latency_s, copy_start_flow);
  }
  copy_start_flow(op);
}

void GpuRuntime::Op::copy_start_flow(Op& op) {
  if (op.token && op.token->cancelled()) {
    op.delivered = false;
    return copy_done(op);
  }
  if (op.route->links.empty()) return copy_done(op);
  auto* latch = new sim::Latch(*op.rt->engine_);  // owned by the flow
  op.flow = op.rt->network_->start_flow(op.route->links,
                                        static_cast<double>(op.len), latch);
  // Registered with the token while the bytes stream, so token->cancel()
  // can abort the flow mid-flight.
  if (op.token) op.token->in_flight_.push_back(op.flow);
  op.park(*latch, copy_done);
}

void GpuRuntime::Op::copy_done(Op& op) {
  GpuRuntime& rt = *op.rt;
  if (op.token && op.flow != sim::kInvalidFlow) {
    erase_flow(op.token->in_flight_, op.flow);
    op.delivered = !op.token->was_cancelled(op.flow);
  }
  if (op.len > 0 && op.delivered) {
    // Payload lands at completion time; simulated buffers carry none.
    if (op.dst->materialized() && op.src->materialized()) {
      std::memcpy(op.dst->region(op.dst_offset, op.len).data(),
                  op.src->region(op.src_offset, op.len).data(), op.len);
    }
    rt.bytes_copied_ += op.len;
  }
  if (rt.tracer_ != nullptr) {
    rt.tracer_->add_span(
        rt.stream_track(op.stream),
        std::string(op.delivered ? "copy " : "copy(cancelled) ") +
            util::format_bytes(op.len) + " " +
            rt.topology().device(op.src->device()).name + "->" +
            rt.topology().device(op.dst->device()).name,
        op.seconds, rt.engine_->now());
  }
  if (op.on_done) op.on_done(op.delivered);
  finish(op);
}

GpuRuntime::Op& GpuRuntime::enqueue(StreamId stream, OpStep start) {
  MPATH_ASSERT_OWNER(owner_, "gpusim::GpuRuntime (stream enqueue)");
  Stream& s = streams_.at(stream);
  auto record = sim::make_pooled<Op>(*this);
  Op& op = *record;
  op.stream = stream;
  if (s.tail->fired()) {
    engine_->schedule_callback(engine_->now(),
                               [o = &op, start] { start(*o); });
  } else {
    // Busy stream: no start event, but keep the place one would have had.
    const std::uint64_t seq = engine_->reserve_seq();
    op.prev = std::move(s.tail);
    op.park(*op.prev, start, seq);
  }
  s.tail = std::shared_ptr<sim::Latch>(std::move(record), &op.done);
  ++ops_issued_;
  if (tracer_ != nullptr && --ops_until_sample_ == 0) {
    ops_until_sample_ = counter_stride_;
    std::size_t busy = 0;
    for (const Stream& st : streams_) {
      if (!st.tail->fired()) ++busy;
    }
    tracer_->add_counter("gpusim", "streams_busy", engine_->now(),
                         static_cast<double>(busy));
  }
  return op;
}

std::string GpuRuntime::stream_track(StreamId stream) const {
  return "stream" + std::to_string(stream) + " (" +
         topology().device(streams_.at(stream).device).name + ")";
}

void GpuRuntime::memcpy_async(DeviceBuffer& dst, std::size_t dst_offset,
                              const DeviceBuffer& src, std::size_t src_offset,
                              std::size_t len, StreamId stream,
                              CancelTokenPtr token, DoneHook on_done) {
  // Validate regions eagerly: misuse should fail at the call site, not at
  // some later simulated instant.
  dst.check_region(dst_offset, len);
  src.check_region(src_offset, len);
  Op& op = enqueue(stream, &Op::start_copy);
  op.dst = &dst;
  op.src = &src;
  op.dst_offset = dst_offset;
  op.src_offset = src_offset;
  op.len = len;
  op.token = std::move(token);
  op.on_done = std::move(on_done);
}

void GpuRuntime::record_event(EventId event, StreamId stream) {
  auto recorded = sim::make_pooled<sim::Latch>(*engine_);
  events_.at(event).latch = recorded;
  Op& op = enqueue(stream, [](Op& o) {
    o.after_jittered(o.rt->costs().event_record_s, [](Op& r) {
      r.event->fire();
      Op::finish(r);
    });
  });
  op.event = std::move(recorded);
}

void GpuRuntime::wait_event(StreamId stream, EventId event) {
  // CUDA captures the event state at enqueue time.
  auto latch = events_.at(event).latch;
  Op& op = enqueue(stream, [](Op& o) {
    const OpStep waited = [](Op& w) {
      w.after_jittered(w.rt->costs().event_wait_s, &Op::finish);
    };
    if (o.event->fired()) return waited(o);
    o.park(*o.event, waited);
  });
  op.event = std::move(latch);
}

void GpuRuntime::stream_delay(StreamId stream, double seconds) {
  if (!(seconds >= 0.0)) {  // also catches NaN
    throw std::invalid_argument(
        "GpuRuntime::stream_delay: seconds must be >= 0 and not NaN");
  }
  Op& op = enqueue(stream, [](Op& o) { o.after(o.seconds, &Op::finish); });
  op.seconds = seconds;
}

sim::Task<void> GpuRuntime::synchronize(StreamId stream) {
  auto tail = streams_.at(stream).tail;
  co_await tail->wait();
}

sim::Task<void> GpuRuntime::device_synchronize() {
  // Snapshot tails first: ops enqueued after this call are not covered.
  std::vector<std::shared_ptr<sim::Latch>> tails;
  tails.reserve(streams_.size());
  for (const Stream& s : streams_) tails.push_back(s.tail);
  for (auto& t : tails) co_await t->wait();
}

sim::Task<void> GpuRuntime::ipc_open(topo::DeviceId opener,
                                     const DeviceBuffer& buffer) {
  const auto key = std::make_pair(opener, buffer.id());
  if (ipc_cache_.contains(key)) co_return;
  co_await engine_->delay(costs().ipc_open_s * jitter());
  ipc_cache_.insert(key);
}

bool GpuRuntime::ipc_cached(topo::DeviceId opener,
                            const DeviceBuffer& buffer) const {
  return ipc_cache_.contains(std::make_pair(opener, buffer.id()));
}

void GpuRuntime::ipc_cache_clear() { ipc_cache_.clear(); }

}  // namespace mpath::gpusim
