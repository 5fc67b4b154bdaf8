// UCX-like intra-node transport: workers with tag matching, an eager
// protocol for small messages and a rendezvous protocol (RTS/CTS + CUDA-IPC
// mapping) for large ones. Bulk data moves through a pluggable DataChannel —
// the seam where the paper integrates its model-driven multi-path engine
// into the cuda_ipc code path (Fig. 2a Step 3). A send or recv whose peer
// never arrives parks until the engine drains; Engine::run then throws
// sim::SimError naming the blocked process.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "mpath/gpusim/channel.hpp"
#include "mpath/gpusim/runtime.hpp"
#include "mpath/sim/engine.hpp"

namespace mpath::transport {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;
/// Messages at or below this size use the eager protocol (no rendezvous
/// handshake, no IPC mapping).
inline constexpr std::size_t kEagerThresholdBytes = 64 * 1024;
/// Host-side overhead of an eager message.
inline constexpr double kEagerOverheadS = 1.0e-6;

class Worker;

/// One matched message about to move through the data channel, as observed
/// by the transfer tap: the rendezvous (or eager) handshake is done and the
/// very next awaited operation is the channel transfer itself. Collective
/// graph capture keys on (tag, src_rank, dst_rank) to identify the step.
struct TransferSite {
  int src_rank = -1;
  int dst_rank = -1;
  int tag = -1;
  std::size_t bytes = 0;
  topo::DeviceId src_device = topo::kInvalidDevice;
  topo::DeviceId dst_device = topo::kInvalidDevice;
};

/// Synchronous observer invoked immediately before every channel transfer
/// (same coroutine frame — no suspension between the tap and the transfer,
/// so a tap-side "pending step" slot cannot be raced by another message).
/// Inline storage: the observer is one controller pointer.
using TransferTap = sim::InlineFn<void(const TransferSite&), 32>;

class Fabric {
 public:
  Fabric(gpusim::GpuRuntime& runtime, gpusim::DataChannel& channel);
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;
  ~Fabric();

  /// Create the worker for `rank` (ranks must be created densely from 0).
  Worker& add_worker(int rank, topo::DeviceId device);
  [[nodiscard]] Worker& worker(int rank);
  [[nodiscard]] int worker_count() const {
    return static_cast<int>(workers_.size());
  }

  [[nodiscard]] gpusim::GpuRuntime& runtime() { return *runtime_; }
  [[nodiscard]] gpusim::DataChannel& channel() { return *channel_; }

  /// Install (or clear, with a default-constructed tap) the transfer
  /// observer. At most one; the caller owns the observed controller's
  /// lifetime and must clear the tap before destroying it.
  void set_transfer_tap(TransferTap tap) { tap_ = std::move(tap); }

  // -- statistics -----------------------------------------------------------
  [[nodiscard]] std::uint64_t messages_sent() const { return messages_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_; }
  [[nodiscard]] std::uint64_t rendezvous_count() const { return rendezvous_; }
  [[nodiscard]] std::uint64_t eager_count() const { return eager_; }
  /// Distinct wakeup deadlines that got their own engine event.
  [[nodiscard]] std::uint64_t wakeups_scheduled() const {
    return wakeups_scheduled_;
  }
  /// Wakeups absorbed into an already-scheduled same-deadline event.
  [[nodiscard]] std::uint64_t wakeups_coalesced() const {
    return wakeups_coalesced_;
  }

 private:
  friend class Worker;

  /// Suspend until absolute time `t`. Every eager delivery and rendezvous
  /// handshake delay that lands on the same absolute time parks on one
  /// pooled latch, fired by a single engine event for that deadline.
  [[nodiscard]] sim::Task<void> wake_at(double t);

  gpusim::GpuRuntime* runtime_;
  gpusim::DataChannel* channel_;
  TransferTap tap_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::map<double, std::shared_ptr<sim::Latch>> wakes_;
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t rendezvous_ = 0;
  std::uint64_t eager_ = 0;
  std::uint64_t wakeups_scheduled_ = 0;
  std::uint64_t wakeups_coalesced_ = 0;
};

class Worker {
 public:
  Worker(Fabric& fabric, int rank, topo::DeviceId device)
      : fabric_(&fabric), rank_(rank), device_(device) {}
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] topo::DeviceId device() const { return device_; }

  /// Tagged send to `dst_rank`. Completes when the data is delivered into
  /// the matched receive buffer (synchronous-send semantics; buffered
  /// sends are modeled by spawning this task). Throws std::out_of_range for
  /// an unregistered `dst_rank` and std::invalid_argument for a negative
  /// `tag`, before anything is queued.
  [[nodiscard]] sim::Task<void> send(int dst_rank, const gpusim::DeviceBuffer& buf,
                                     std::size_t offset, std::size_t bytes,
                                     int tag);

  /// Tagged receive. `src_rank` may be kAnySource and `tag` kAnyTag.
  /// The receive buffer region must be at least `bytes` long; the matched
  /// send must not be longer (MPI truncation is an error). Throws
  /// std::out_of_range for any other unregistered `src_rank` and
  /// std::invalid_argument for a `tag` below kAnyTag, before anything is
  /// queued.
  [[nodiscard]] sim::Task<void> recv(int src_rank, gpusim::DeviceBuffer& buf,
                                     std::size_t offset, std::size_t bytes,
                                     int tag);

  [[nodiscard]] std::size_t unexpected_count() const {
    return unexpected_.size();
  }
  [[nodiscard]] std::size_t posted_count() const { return posted_.size(); }

 private:
  friend class Fabric;

  struct SendEntry {
    int src_rank;
    int tag;
    std::size_t bytes;
    const gpusim::DeviceBuffer* buf;
    std::size_t offset;
    topo::DeviceId src_device;
    sim::Latch* done;
  };
  struct RecvEntry {
    int src_rank;  // kAnySource allowed
    int tag;       // kAnyTag allowed
    std::size_t bytes;
    gpusim::DeviceBuffer* buf;
    std::size_t offset;
    sim::Latch* done;
  };

  /// Move the payload for a matched (send, recv) pair; runs on whichever
  /// side arrived second.
  [[nodiscard]] sim::Task<void> do_transfer(const SendEntry& send,
                                            const RecvEntry& recv);

  Fabric* fabric_;
  int rank_;
  topo::DeviceId device_;
  // All matching state for messages S->R lives at the receiver R: parked
  // sends and parked recvs both queue there, and nothing outlives a match.
  std::deque<SendEntry> unexpected_;  // sends awaiting a matching recv
  std::deque<RecvEntry> posted_;      // recvs awaiting a matching send
};

}  // namespace mpath::transport
