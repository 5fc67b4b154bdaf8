// UCX-like intra-node transport: workers with tag matching, an eager
// protocol for small messages and a rendezvous protocol (RTS/CTS + CUDA-IPC
// mapping) for large ones. Bulk data moves through a pluggable DataChannel —
// the seam where the paper integrates its model-driven multi-path engine
// into the cuda_ipc code path (Fig. 2a Step 3).
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

struct TransportOptions {
  /// Rendezvous-sized send/recv operations that find no match within this
  /// window are aborted with gpusim::TransferError instead of waiting
  /// forever (a dead peer otherwise deadlocks the whole simulation).
  /// 0 disables the timeout (legacy behaviour).
  double rendezvous_timeout_s = 0.0;
};

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
  Fabric(gpusim::GpuRuntime& runtime, gpusim::DataChannel& channel,
         TransportOptions options = {});
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
  [[nodiscard]] const TransportOptions& options() const { return options_; }

  /// Install (or clear, with a default-constructed tap) the transfer
  /// observer. At most one; the caller owns the observed controller's
  /// lifetime and must clear the tap before destroying it.
  void set_transfer_tap(TransferTap tap) { tap_ = std::move(tap); }

  // -- statistics -----------------------------------------------------------
  [[nodiscard]] std::uint64_t messages_sent() const { return messages_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_; }
  [[nodiscard]] std::uint64_t rendezvous_count() const { return rendezvous_; }
  [[nodiscard]] std::uint64_t eager_count() const { return eager_; }
  /// Send/recv operations aborted by the rendezvous timeout.
  [[nodiscard]] std::uint64_t rendezvous_timeouts() const {
    return rendezvous_timeouts_;
  }
  /// NACK control messages emitted by timed-out rendezvous operations.
  [[nodiscard]] std::uint64_t nacks_sent() const { return nacks_sent_; }
  /// NACKs that arrived after their channel already re-matched (no-ops).
  [[nodiscard]] std::uint64_t nacks_stale() const { return nacks_stale_; }
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

  /// Same-deadline coalescing slot: every eager delivery, rendezvous
  /// handshake delay, and watchdog deadline that lands on the same absolute
  /// time shares one engine event. Waiters park on the (lazily created)
  /// latch; callbacks queue in `fns`.
  struct Wake {
    std::shared_ptr<sim::Latch> latch;
    util::SmallVec<sim::EventFn, 2> fns;
  };
  Wake& wake_slot(double t);
  /// Suspend until absolute time `t`, sharing the event with every other
  /// waiter on the same deadline.
  [[nodiscard]] sim::Task<void> wake_at(double t);
  /// Invoke `fn` at absolute time `t`, coalesced per distinct deadline.
  void call_at(double t, sim::EventFn fn);

  gpusim::GpuRuntime* runtime_;
  gpusim::DataChannel* channel_;
  TransportOptions options_;
  TransferTap tap_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::map<double, Wake> wakes_;
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t rendezvous_ = 0;
  std::uint64_t eager_ = 0;
  std::uint64_t rendezvous_timeouts_ = 0;
  std::uint64_t nacks_sent_ = 0;
  std::uint64_t nacks_stale_ = 0;
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
  /// sends are modeled by spawning this task).
  [[nodiscard]] sim::Task<void> send(int dst_rank, const gpusim::DeviceBuffer& buf,
                                     std::size_t offset, std::size_t bytes,
                                     int tag);

  /// Tagged receive. `src_rank` may be kAnySource and `tag` kAnyTag.
  /// The receive buffer region must be at least `bytes` long; the matched
  /// send must not be longer (MPI truncation is an error).
  [[nodiscard]] sim::Task<void> recv(int src_rank, gpusim::DeviceBuffer& buf,
                                     std::size_t offset, std::size_t bytes,
                                     int tag);

  [[nodiscard]] std::size_t unexpected_count() const {
    return unexpected_.size();
  }
  [[nodiscard]] std::size_t posted_count() const { return posted_.size(); }
  /// NACK records currently waiting to fail a future matching operation.
  [[nodiscard]] std::size_t pending_nack_count() const {
    return nacks_.size();
  }

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
    std::uint64_t seq = 0;    ///< unique id for timeout / NACK resolution
    bool* nacked = nullptr;   ///< set before fire() when killed by a NACK
  };
  struct RecvEntry {
    int src_rank;  // kAnySource allowed
    int tag;       // kAnyTag allowed
    std::size_t bytes;
    gpusim::DeviceBuffer* buf;
    std::size_t offset;
    sim::Latch* done;
    std::uint64_t seq = 0;    ///< unique id for timeout / NACK resolution
    bool* nacked = nullptr;   ///< set before fire() when killed by a NACK
  };

  /// Control message making a rendezvous timeout symmetric: when one side
  /// of a channel aborts, the peer's side of the same (src, tag) channel
  /// must observe the same failure. All state for the channel S->R lives at
  /// the receiver-side worker R (both parked sends and parked recvs queue
  /// there), so NACKs are delivered to R regardless of which side died.
  struct Nack {
    int src_rank;        ///< sender rank of the failed channel (concrete)
    int tag;             ///< failed op's tag (concrete)
    std::uint64_t seq;   ///< dead entry's id in this worker's seq space
    bool from_send;      ///< true: a parked send died (fails the recv side);
                         ///< false: a parked recv died (fails future sends)
  };

  /// A successful match on channel (src, tag) advances the high-water mark
  /// and purges NACK records it supersedes: a NACK whose seq is at or below
  /// the mark refers to an already-resolved exchange and must be a no-op.
  void note_matched(int src, int tag, std::uint64_t seq);
  [[nodiscard]] bool nack_is_stale(const Nack& n) const;
  /// Deliver a NACK at this worker: kill a matching parked entry if one
  /// exists, otherwise record it to fail the next matching operation.
  void deliver_nack(Nack n);

  /// Move the payload for a matched (send, recv) pair; runs on whichever
  /// side arrived second.
  [[nodiscard]] sim::Task<void> do_transfer(const SendEntry& send,
                                            const RecvEntry& recv);

  Fabric* fabric_;
  int rank_;
  topo::DeviceId device_;
  std::deque<SendEntry> unexpected_;  // sends awaiting a matching recv
  std::deque<RecvEntry> posted_;      // recvs awaiting a matching send
  std::deque<Nack> nacks_;            // undelivered peer-failure records
  // Highest parked-entry seq completed per concrete (src, tag) channel.
  std::map<std::pair<int, int>, std::uint64_t> matched_hwm_;
  std::uint64_t next_seq_ = 0;        // parked-entry ids (timeouts/NACKs)
};

}  // namespace mpath::transport
