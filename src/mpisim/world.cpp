#include "mpath/mpisim/world.hpp"

#include <stdexcept>

#include "mpath/pipeline/channels.hpp"
#include "mpath/pipeline/collective_graph.hpp"

namespace mpath::mpisim {

/// Local reduction throughput (bytes/s) of reduce_compute.
constexpr double kReduceBps = 75e9;

World::World(gpusim::GpuRuntime& runtime, gpusim::DataChannel& channel,
             int nranks)
    : runtime_(&runtime),
      fabric_(runtime, channel),
      barrier_(runtime.engine(),
               static_cast<std::size_t>(
                   nranks > 0
                       ? nranks
                       : static_cast<int>(runtime.topology().gpus().size()))) {
  const auto gpus = runtime.topology().gpus();
  if (gpus.empty()) {
    throw std::invalid_argument("World: topology has no GPUs");
  }
  const int n = nranks > 0 ? nranks : static_cast<int>(gpus.size());
  for (int r = 0; r < n; ++r) {
    const topo::DeviceId dev = gpus[static_cast<std::size_t>(r) % gpus.size()];
    fabric_.add_worker(r, dev);
    comms_.push_back(std::make_unique<Communicator>(*this, r, dev));
  }
}

World::~World() {
  // The fabric (and its tap into the controller) dies with this World;
  // detach the channel's side too so a controller outliving the World is
  // not reachable through a channel reused by another World.
  if (chain_ctl_ != nullptr) set_chain_controller(nullptr);
}

void World::set_chain_controller(pipeline::ChainController* ctl) {
  auto* mdc = dynamic_cast<pipeline::ModelDrivenChannel*>(&fabric_.channel());
  if (ctl != nullptr && mdc == nullptr) {
    throw std::invalid_argument(
        "World::set_chain_controller: channel is not model-driven");
  }
  chain_ctl_ = ctl;
  if (mdc != nullptr) mdc->attach_chain(ctl);
  if (ctl != nullptr) {
    fabric_.set_transfer_tap(transport::TransferTap(
        [ctl](const transport::TransferSite& site) { ctl->on_transfer(site); }));
  } else {
    fabric_.set_transfer_tap({});
  }
}

Communicator& World::comm(int rank) {
  if (rank < 0 || rank >= size()) {
    throw std::out_of_range("World::comm: bad rank");
  }
  return *comms_[static_cast<std::size_t>(rank)];
}

std::vector<sim::Process> World::launch(RankMain& rank_main) {
  std::vector<sim::Process> procs;
  procs.reserve(comms_.size());
  for (auto& c : comms_) {
    procs.push_back(
        engine().spawn(rank_main(*c), "rank" + std::to_string(c->rank())));
  }
  return procs;
}

void World::run(RankMain rank_main) {
  // `rank_main` lives in this frame until engine().run() returns, which is
  // what keeps the rank coroutines' closure state valid while suspended.
  auto procs = launch(rank_main);
  engine().run();
  // run() throws on unjoined failures; reaching here means all ranks
  // completed cleanly.
}

Communicator::Communicator(World& world, int rank, topo::DeviceId device)
    : world_(&world),
      rank_(rank),
      device_(device),
      local_stream_(world.runtime().create_stream(device)) {}

sim::Task<void> Communicator::send(const gpusim::DeviceBuffer& buf,
                                   std::size_t offset, std::size_t bytes,
                                   int dst, int tag) {
  co_await world_->fabric().worker(rank_).send(dst, buf, offset, bytes, tag);
}

sim::Task<void> Communicator::recv(gpusim::DeviceBuffer& buf,
                                   std::size_t offset, std::size_t bytes,
                                   int src, int tag) {
  co_await world_->fabric().worker(rank_).recv(src, buf, offset, bytes, tag);
}

sim::Process Communicator::isend(const gpusim::DeviceBuffer& buf,
                                 std::size_t offset, std::size_t bytes,
                                 int dst, int tag) {
  return world_->engine().spawn(send(buf, offset, bytes, dst, tag),
                                "isend");
}

sim::Process Communicator::irecv(gpusim::DeviceBuffer& buf,
                                 std::size_t offset, std::size_t bytes,
                                 int src, int tag) {
  return world_->engine().spawn(recv(buf, offset, bytes, src, tag), "irecv");
}

sim::Task<void> Communicator::wait_all(std::vector<sim::Process> requests) {
  for (auto& r : requests) {
    co_await r.join();
  }
}

sim::Task<void> Communicator::sendrecv(
    const gpusim::DeviceBuffer& sendbuf, std::size_t send_off,
    std::size_t send_bytes, int dst, gpusim::DeviceBuffer& recvbuf,
    std::size_t recv_off, std::size_t recv_bytes, int src, int tag) {
  std::vector<sim::Process> reqs;
  reqs.push_back(isend(sendbuf, send_off, send_bytes, dst, tag));
  reqs.push_back(irecv(recvbuf, recv_off, recv_bytes, src, tag));
  co_await wait_all(std::move(reqs));
}

sim::Task<void> Communicator::barrier() {
  co_await world_->barrier().arrive();
}

sim::Task<void> Communicator::local_copy(gpusim::DeviceBuffer& dst,
                                         std::size_t dst_off,
                                         const gpusim::DeviceBuffer& src,
                                         std::size_t src_off,
                                         std::size_t bytes) {
  world_->runtime().memcpy_async(dst, dst_off, src, src_off, bytes,
                                 local_stream_);
  co_await world_->runtime().synchronize(local_stream_);
}

sim::Task<void> Communicator::reduce_compute(std::size_t bytes) {
  co_await world_->engine().delay(static_cast<double>(bytes) / kReduceBps);
}

int Communicator::next_collective_tag() {
  // 64 tags per collective invocation, far above any algorithm's step
  // count; base offset keeps collective tags clear of user P2P tags.
  constexpr int kCollectiveTagBase = 1 << 20;
  return kCollectiveTagBase + 64 * collective_seq_++;
}

}  // namespace mpath::mpisim
