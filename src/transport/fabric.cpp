#include "mpath/transport/fabric.hpp"

#include <stdexcept>

namespace mpath::transport {

Fabric::Fabric(gpusim::GpuRuntime& runtime, gpusim::DataChannel& channel)
    : runtime_(&runtime), channel_(&channel) {}

Fabric::~Fabric() = default;

Worker& Fabric::add_worker(int rank, topo::DeviceId device) {
  if (rank != static_cast<int>(workers_.size())) {
    throw std::invalid_argument(
        "Fabric::add_worker: ranks must be added densely from 0");
  }
  workers_.push_back(std::make_unique<Worker>(*this, rank, device));
  return *workers_.back();
}

Worker& Fabric::worker(int rank) {
  if (rank < 0 || rank >= worker_count()) {
    throw std::out_of_range("Fabric::worker: bad rank");
  }
  return *workers_[static_cast<std::size_t>(rank)];
}

sim::Task<void> Fabric::wake_at(double t) {
  auto [it, inserted] = wakes_.try_emplace(t);
  if (inserted) {
    ++wakeups_scheduled_;
    // One engine event serves every waiter that lands on this exact
    // deadline: eager deliveries and rendezvous handshake delays are fixed
    // offsets from their trigger instant, so bursts pile onto the same
    // absolute time and would otherwise cost one queue event each.
    runtime_->engine().schedule_callback(
        t, [this, t] { wakes_.extract(t).mapped()->fire(); });
    it->second = sim::make_pooled<sim::Latch>(runtime_->engine());
  } else {
    ++wakeups_coalesced_;
  }
  auto latch = it->second;  // keep alive across the slot's erase
  co_await latch->wait();
}

namespace {
bool matches(int want_src, int want_tag, int src, int tag) {
  return (want_src == kAnySource || want_src == src) &&
         (want_tag == kAnyTag || want_tag == tag);
}
}  // namespace

sim::Task<void> Worker::send(int dst_rank, const gpusim::DeviceBuffer& buf,
                             std::size_t offset, std::size_t bytes, int tag) {
  buf.check_region(offset, bytes);  // validate eagerly
  if (tag < 0) {
    throw std::invalid_argument("Worker::send: tag must be non-negative");
  }
  Worker& receiver = fabric_->worker(dst_rank);
  ++fabric_->messages_;
  fabric_->bytes_ += bytes;

  SendEntry entry{rank_, tag, bytes, &buf, offset, device_, nullptr};

  // Second arrival drives the transfer: look for a matching posted recv.
  for (auto it = receiver.posted_.begin(); it != receiver.posted_.end();
       ++it) {
    if (!matches(it->src_rank, it->tag, rank_, tag)) continue;
    if (it->bytes < bytes) {
      throw std::runtime_error("Worker::send: receive buffer too small");
    }
    RecvEntry recv = *it;
    receiver.posted_.erase(it);
    co_await receiver.do_transfer(entry, recv);
    recv.done->fire();
    co_return;
  }

  // No recv posted yet: park in the receiver's unexpected queue.
  sim::Latch done(fabric_->runtime_->engine());
  entry.done = &done;
  receiver.unexpected_.push_back(entry);
  co_await done.wait();
}

sim::Task<void> Worker::recv(int src_rank, gpusim::DeviceBuffer& buf,
                             std::size_t offset, std::size_t bytes, int tag) {
  buf.check_region(offset, bytes);
  if (tag < kAnyTag) {
    throw std::invalid_argument("Worker::recv: tag must be >= kAnyTag");
  }
  if (src_rank != kAnySource) (void)fabric_->worker(src_rank);

  RecvEntry entry{src_rank, tag, bytes, &buf, offset, nullptr};

  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (!matches(src_rank, tag, it->src_rank, it->tag)) continue;
    if (bytes < it->bytes) {
      throw std::runtime_error("Worker::recv: receive buffer too small");
    }
    SendEntry send = *it;
    unexpected_.erase(it);
    co_await do_transfer(send, entry);
    send.done->fire();
    co_return;
  }

  sim::Latch done(fabric_->runtime_->engine());
  entry.done = &done;
  posted_.push_back(entry);
  co_await done.wait();
}

sim::Task<void> Worker::do_transfer(const SendEntry& send,
                                    const RecvEntry& recv) {
  gpusim::GpuRuntime& rt = *fabric_->runtime_;
  if (send.bytes <= kEagerThresholdBytes) {
    ++fabric_->eager_;
    // Same-deadline eager deliveries share one engine event (a burst of k
    // small messages matched at one instant previously cost k timers).
    co_await fabric_->wake_at(rt.engine().now() + kEagerOverheadS);
  } else {
    ++fabric_->rendezvous_;
    // RTS/CTS handshake, then the sender maps the receiver's buffer via
    // CUDA IPC (cached after the first open) and PUTs into it. The
    // handshake delay coalesces per deadline like eager delivery.
    co_await fabric_->wake_at(rt.engine().now() + rt.costs().rendezvous_s);
    co_await rt.ipc_open(send.src_device, *recv.buf);
  }
  if (fabric_->tap_) {
    // Synchronous prefix of the channel transfer (no suspension between the
    // tap and the transfer call): a chained-collective controller can stage
    // a pending replay step here and the channel consumes it first thing.
    fabric_->tap_(TransferSite{send.src_rank, rank_, send.tag, send.bytes,
                               send.src_device, recv.buf->device()});
  }
  co_await fabric_->channel_->transfer(*recv.buf, recv.offset, *send.buf,
                                       send.offset, send.bytes);
}

}  // namespace mpath::transport
