// MPI-like runtime over the transport fabric: ranks are coroutines in one
// discrete-event simulation, bound round-robin to the topology's GPUs.
// Provides the subset of MPI the paper's evaluation needs: blocking and
// nonblocking tagged P2P, barrier, and (in collectives.hpp) Allreduce and
// Alltoall built from the same P2P steps UCX handles under UCC.
#pragma once

#include <memory>
#include <vector>

#include "mpath/sim/inline_fn.hpp"
#include "mpath/sim/sync.hpp"
#include "mpath/transport/fabric.hpp"

namespace mpath::pipeline {
class ChainController;
}  // namespace mpath::pipeline

namespace mpath::mpisim {

class Communicator;

class World {
 public:
  /// One rank per GPU by default (nranks = 0); otherwise ranks bind to
  /// GPUs round-robin.
  World(gpusim::GpuRuntime& runtime, gpusim::DataChannel& channel,
        int nranks = 0);
  World(const World&) = delete;
  World& operator=(const World&) = delete;
  ~World();

  [[nodiscard]] int size() const { return static_cast<int>(comms_.size()); }
  [[nodiscard]] Communicator& comm(int rank);

  /// Per-rank entry point. Inline-storage callable (no heap): world wiring
  /// is setup-time, but benches build thousands of worlds per sweep, so
  /// their plumbing stays off the allocator too. A coroutine lambda's frame
  /// references its closure, so the RankMain object must stay alive until
  /// every rank finishes — run() guarantees this; launch() callers keep the
  /// callable alive themselves (hence the reference parameter).
  using RankMain = sim::InlineFn<sim::Task<void>(Communicator&), 128>;

  /// Spawn `rank_main` on every rank; returns the processes (join or run
  /// the engine to completion). `rank_main` must outlive the ranks.
  std::vector<sim::Process> launch(RankMain& rank_main);
  /// launch() + engine().run(); holds `rank_main` alive throughout.
  void run(RankMain rank_main);

  [[nodiscard]] sim::Engine& engine() { return runtime_->engine(); }
  [[nodiscard]] gpusim::GpuRuntime& runtime() { return *runtime_; }
  [[nodiscard]] transport::Fabric& fabric() { return fabric_; }
  [[nodiscard]] sim::Barrier& barrier() { return barrier_; }

  /// Enable collective graph chaining: installs the fabric's transfer tap
  /// pointing at `ctl` (also attaching it to the channel) so the
  /// collectives capture/replay whole invocations. Null detaches. The
  /// controller must outlive the attachment; destroy this World (or detach)
  /// before destroying the controller.
  void set_chain_controller(pipeline::ChainController* ctl);
  [[nodiscard]] pipeline::ChainController* chain_controller() const {
    return chain_ctl_;
  }

 private:
  gpusim::GpuRuntime* runtime_;
  transport::Fabric fabric_;
  sim::Barrier barrier_;
  pipeline::ChainController* chain_ctl_ = nullptr;
  std::vector<std::unique_ptr<Communicator>> comms_;
};

class Communicator {
 public:
  Communicator(World& world, int rank, topo::DeviceId device);
  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return world_->size(); }
  [[nodiscard]] topo::DeviceId device() const { return device_; }
  [[nodiscard]] World& world() { return *world_; }

  // -- point-to-point -----------------------------------------------------
  [[nodiscard]] sim::Task<void> send(const gpusim::DeviceBuffer& buf,
                                     std::size_t offset, std::size_t bytes,
                                     int dst, int tag);
  [[nodiscard]] sim::Task<void> recv(gpusim::DeviceBuffer& buf,
                                     std::size_t offset, std::size_t bytes,
                                     int src, int tag);
  /// Nonblocking variants: the returned Process is the request handle.
  sim::Process isend(const gpusim::DeviceBuffer& buf, std::size_t offset,
                     std::size_t bytes, int dst, int tag);
  sim::Process irecv(gpusim::DeviceBuffer& buf, std::size_t offset,
                     std::size_t bytes, int src, int tag);
  [[nodiscard]] sim::Task<void> wait_all(std::vector<sim::Process> requests);

  /// Combined send+recv (deadlock-free pairwise exchange step).
  [[nodiscard]] sim::Task<void> sendrecv(const gpusim::DeviceBuffer& sendbuf,
                                         std::size_t send_off,
                                         std::size_t send_bytes, int dst,
                                         gpusim::DeviceBuffer& recvbuf,
                                         std::size_t recv_off,
                                         std::size_t recv_bytes, int src,
                                         int tag);

  // -- utility ---------------------------------------------------------------
  [[nodiscard]] sim::Task<void> barrier();
  /// Same-device copy through this rank's private stream.
  [[nodiscard]] sim::Task<void> local_copy(gpusim::DeviceBuffer& dst,
                                           std::size_t dst_off,
                                           const gpusim::DeviceBuffer& src,
                                           std::size_t src_off,
                                           std::size_t bytes);
  /// Model a local reduction over `bytes` of data at 75 GB/s, the compute
  /// part of Allreduce (paper Observation 3: compute overhead caps its
  /// gains).
  [[nodiscard]] sim::Task<void> reduce_compute(std::size_t bytes);

  /// Per-communicator collective sequence number; every rank calling the
  /// same collective in the same order derives the same tag block.
  [[nodiscard]] int next_collective_tag();

 private:
  World* world_;
  int rank_;
  topo::DeviceId device_;
  gpusim::StreamId local_stream_;
  int collective_seq_ = 0;
};

}  // namespace mpath::mpisim
