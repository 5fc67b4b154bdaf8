// collective-chain: a 4-rank training-loop iteration on beluga, model-driven
// (3_GPUs) with collective graph chaining. One unit (and one step) is one
// iteration: allreduce-rhd 32 MiB, alltoall-bruck 32 MiB, allgather-ring
// 4 MiB and bcast-binomial 128 KiB per rank, the same sizes every step.
#include <cstdio>
#include <map>
#include <optional>
#include <tuple>

#include "common.hpp"
#include "mpath/mpisim/collectives.hpp"
#include "mpath/topo/paths.hpp"

namespace perfbench {
namespace {

namespace mi = mpath::mpisim;

constexpr int kRanks = 4;
constexpr std::uint64_t kAllreduce = 32 * kMiB;
constexpr std::uint64_t kAlltoall = 32 * kMiB;
constexpr std::uint64_t kAllgather = 4 * kMiB;
constexpr std::uint64_t kBcast = 128 * kKiB;
/// Capture steps: part of set-up, not timed.
constexpr int kCaptureSteps = 2;
/// Timed steps whose simulated results feed the simulated metrics and are
/// compared against the unchained and direct twins.
constexpr std::int64_t kSimSteps = 32;
/// Steps every run completes, however long they take. The process grows by
/// ~3.5 KiB per step (the runtime's IPC handle cache keeps an entry for
/// every scratch buffer a collective opens), and peak_rss_mib is read right
/// after these steps, so that growth shows at a fixed amount of work.
constexpr std::int64_t kMinSteps = 32 * kSimSteps;

/// The step's message schedule on 4 ranks, summed over ranks:
///   allreduce-rhd   halving sends N/2 then N/4, doubling N/4 then N/2
///                   (1.5 N and 4 messages per rank);
///   alltoall-bruck  two rounds of two blocks (N/4 each) per rank;
///   allgather-ring  three rounds of one block (N/4) per rank;
///   bcast-binomial  three messages of N.
constexpr std::uint64_t kStepMessages = 16 + 8 + 12 + 3;
constexpr std::uint64_t kStepBytes =
    kRanks * (kAllreduce * 3 / 2) + kRanks * 2 * 2 * (kAlltoall / kRanks) +
    kRanks * 3 * (kAllgather / kRanks) + 3 * kBcast;

/// Persistent per-rank buffers, reused every iteration like a training
/// loop's.
struct RankBuffers {
  explicit RankBuffers(mt::DeviceId dev)
      : reduce(dev, kAllreduce, mg::Payload::Simulated),
        a2a_send(dev, kAlltoall, mg::Payload::Simulated),
        a2a_recv(dev, kAlltoall, mg::Payload::Simulated),
        gather(dev, kAllgather, mg::Payload::Simulated),
        bcast(dev, kBcast, mg::Payload::Simulated) {}
  mg::DeviceBuffer reduce;
  mg::DeviceBuffer a2a_send;
  mg::DeviceBuffer a2a_recv;
  mg::DeviceBuffer gather;
  mg::DeviceBuffer bcast;
};

class Iteration {
 public:
  explicit Iteration(mi::World& world) {
    for (int r = 0; r < world.size(); ++r) {
      bufs_.push_back(std::make_unique<RankBuffers>(world.comm(r).device()));
    }
  }

  mi::World::RankMain rank_main() {
    return mi::World::RankMain([this](mi::Communicator& comm) {
      return run(comm, *bufs_[static_cast<std::size_t>(comm.rank())]);
    });
  }

 private:
  static ms::Task<void> run(mi::Communicator& comm, RankBuffers& b) {
    // Barriers keep one collective in flight at a time, so each one is a
    // chainable invocation.
    co_await mi::allreduce_sum(comm, b.reduce);
    co_await comm.barrier();
    co_await mi::alltoall(comm, b.a2a_send, b.a2a_recv, kAlltoall / kRanks);
    co_await comm.barrier();
    co_await mi::allgather(comm, b.gather, kAllgather / kRanks);
    co_await comm.barrier();
    co_await mi::broadcast(comm, b.bcast, kBcast, 0);
  }

  std::vector<std::unique_ptr<RankBuffers>> bufs_;
};

/// Forwards to the model-driven channel and scores each multi-path
/// transfer's simulated time against the model's prediction for it.
/// Awaiting the inner task adds no engine events, so the timeline is the
/// channel's own.
class ScoringChannel final : public mg::DataChannel {
 public:
  ScoringChannel(mg::DataChannel& inner, ms::Engine& engine,
                 const mm::PathConfigurator& cfg, const mt::Topology& topo,
                 std::uint64_t min_multipath)
      : inner_(inner), engine_(engine), cfg_(cfg), topo_(topo),
        min_multipath_(min_multipath) {}

  ms::Task<void> transfer(mg::DeviceBuffer& dst, std::size_t dst_offset,
                          const mg::DeviceBuffer& src, std::size_t src_offset,
                          std::size_t bytes) override {
    const double t0 = engine_.now();
    co_await inner_.transfer(dst, dst_offset, src, src_offset, bytes);
    if (scoring_ && bytes >= min_multipath_) {
      err_.add(predicted(src.device(), dst.device(), bytes),
               engine_.now() - t0);
    }
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  void set_scoring(bool on) { scoring_ = on; }
  [[nodiscard]] const ErrorMean& error() const { return err_; }

 private:
  double predicted(mt::DeviceId src, mt::DeviceId dst, std::uint64_t bytes) {
    const auto key = std::make_tuple(src, dst, bytes);
    auto it = predictions_.find(key);
    if (it == predictions_.end()) {
      const auto paths = mt::enumerate_paths(topo_, src, dst,
                                             mt::PathPolicy::three_gpus());
      it = predictions_
               .emplace(key, cfg_.compute_config(src, dst, bytes, paths)
                                 .predicted_time)
               .first;
    }
    return it->second;
  }

  mg::DataChannel& inner_;
  ms::Engine& engine_;
  const mm::PathConfigurator& cfg_;
  const mt::Topology& topo_;
  std::uint64_t min_multipath_;
  bool scoring_ = false;
  ErrorMean err_;
  std::map<std::tuple<mt::DeviceId, mt::DeviceId, std::uint64_t>, double>
      predictions_;
};

class CollectiveChain final : public Workload {
 public:
  CollectiveChain(const Options& opt, Tracer& tracer)
      : opt_(opt), tracer_(tracer) {}

  [[nodiscard]] LayerUse layers() const override {
    return {.transport = true, .graphs = -1, .joint = false, .chain = true,
            .configurator_misses = false};
  }

  void setup() override {
    iteration_.reset();
    stack_.reset();
    cal_.emplace(build_system(tracer_, "beluga"));
    cfg_ = std::make_unique<mm::PathConfigurator>(cal_->registry);
    bc::StackOptions so = options();
    so.collective_graphs = true;
    {
      auto span = tracer_.open("benchcore.SimStack.model_driven");
      stack_.emplace(bc::SimStack::model_driven(
          cal_->system, *cfg_, mt::PathPolicy::three_gpus(), so));
    }
    iteration_ = std::make_unique<Iteration>(stack_->world());
    instants_.clear();
    for (int s = 0; s < kCaptureSteps; ++s) run_step();
    base_ = read_counters(*stack_, *cfg_);
    events_ = 0;
    capacity_ = link_capacities(*stack_);
    link0_ = snapshot_links(*stack_);
  }

  [[nodiscard]] StepOutcome step(std::int64_t index) override {
    const Counters before = read_counters(*stack_, *cfg_);
    events_ += run_step();
    const Counters d = read_counters(*stack_, *cfg_) - before;
    if (index + 1 == kSimSteps) link1_ = snapshot_links(*stack_);
    std::string failure;
    if (d.msgs != kStepMessages || d.fabric_bytes != kStepBytes) {
      failure = "fabric traffic differs from the collective schedule";
    } else if (d.pipe_bytes != d.fabric_bytes) {
      failure = "pipeline bytes differ from the bytes requested";
    } else if (stack_->network().active_flow_count() != 0) {
      failure = "flows left active";
    }
    if (!failure.empty()) {
      std::fprintf(stderr, "collective-chain step %lld: %s\n",
                   static_cast<long long>(index), failure.c_str());
      return {1, 1};
    }
    return {1, 0};
  }

  [[nodiscard]] std::int64_t cycle() const override { return kSimSteps; }
  [[nodiscard]] std::int64_t min_steps() const override { return kMinSteps; }

  [[nodiscard]] Counters counters() override {
    Counters c = read_counters(*stack_, *cfg_) - base_;
    c.events = events_;
    return c;
  }

  [[nodiscard]] Finish finish() override {
    Finish f;
    const Counters c = counters();
    const double md_span = link1_.t - link0_.t;
    f.sim_gbps = static_cast<double>(kStepBytes * kSimSteps) / md_span / 1e9;
    f.link_util_max = link_util_max(link0_, link1_, capacity_);
    f.multipath_transfers = c.chain_replayed + c.chain_passthrough;
    f.chain_captures = stack_->chain()->stats().captures;
    const std::size_t compared = kCaptureSteps + kSimSteps;

    // Unchained twin, built by hand so a scoring channel can sit between
    // the transport and the model-driven channel: its per-step completion
    // instants must match the chained run bit for bit.
    {
      const mt::System system = cal_->system;
      ms::Engine engine;
      ms::FluidNetwork net(engine);
      mg::GpuRuntime rt(system, engine, net, opt_.seed);
      mp::PipelineEngine pipe(rt, bc::StackOptions{}.staging_buffers_per_device,
                              mg::Payload::Simulated);
      mm::PathConfigurator cfg(cal_->registry);
      mp::ModelDrivenChannel md(pipe, cfg, mt::PathPolicy::three_gpus());
      ScoringChannel scoring(md, engine, cfg, system.topology,
                             md.options().min_multipath_bytes);
      mi::World world(rt, scoring);
      Iteration iteration(world);
      for (std::size_t s = 0; s < compared; ++s) {
        scoring.set_scoring(s >= kCaptureSteps);
        world.run(iteration.rank_main());
        if (engine.now() != instants_[s]) {
          f.failures.push_back("chained step " + std::to_string(s) +
                               " diverged from the unchained timeline");
          break;
        }
      }
      f.pred_err_pct = scoring.error().pct();
    }
    // Direct-only twin on the same inputs.
    {
      bc::SimStack direct = bc::SimStack::direct(cal_->system, options());
      Iteration iteration(direct.world());
      double t0 = 0.0;
      for (std::size_t s = 0; s < compared; ++s) {
        if (s == kCaptureSteps) t0 = direct.engine().now();
        direct.world().run(iteration.rank_main());
      }
      f.speedup_vs_direct = (direct.engine().now() - t0) / md_span;
    }
    // Leak check: dropping the chains returns every reserved event.
    stack_->chain()->clear();
    f.events_leaked = stack_->runtime().events_outstanding();
    if (f.events_leaked != 0) f.failures.push_back("runtime events leaked");
    const std::string failure =
        materialized_transfer_check(*cal_, MaterializedCheck{}, opt_.seed);
    if (!failure.empty()) f.failures.push_back(failure);
    iteration_.reset();
    stack_.reset();
    return f;
  }

 private:
  [[nodiscard]] bc::StackOptions options() const {
    bc::StackOptions so;
    so.seed = opt_.seed;
    return so;
  }

  std::uint64_t run_step() {
    mi::World::RankMain rank_main = iteration_->rank_main();
    const std::uint64_t events =
        drive(tracer_, "mpisim.World.run", *stack_, *cfg_,
              [&] { (void)stack_->world().launch(rank_main); });
    if (instants_.size() < kCaptureSteps + kSimSteps) {
      instants_.push_back(stack_->engine().now());
    }
    return events;
  }

  Options opt_;
  Tracer& tracer_;
  std::optional<CalibratedSystem> cal_;
  std::unique_ptr<mm::PathConfigurator> cfg_;
  std::optional<bc::SimStack> stack_;
  std::unique_ptr<Iteration> iteration_;
  std::vector<double> instants_;
  Counters base_;
  std::uint64_t events_ = 0;
  std::vector<double> capacity_;
  LinkSnapshot link0_;
  LinkSnapshot link1_;
};

}  // namespace

std::unique_ptr<Workload> make_collective_chain(const Options& opt,
                                                Tracer& tracer) {
  return std::make_unique<CollectiveChain>(opt, tracer);
}

}  // namespace perfbench
