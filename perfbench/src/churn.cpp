// churn-32: 32 closed-loop workers on one beluga stack, each moving 4 MiB
// from GPU w%4 to GPU (w+1)%4 through one model-driven channel (3_GPUs)
// with compiled-graph replay on. One unit is one transfer; one step is one
// round of 32 workers x 4 transfers. No transport, no mpisim.
#include <array>
#include <cstdio>
#include <optional>

#include "common.hpp"
#include "mpath/pipeline/graph.hpp"

namespace perfbench {
namespace {

constexpr int kWorkers = 32;
constexpr int kRepeats = 4;
constexpr std::uint64_t kBytes = 4 * kMiB;
constexpr int kWarmupSteps = 2;
/// Steps whose simulated results feed the simulated metrics.
constexpr std::int64_t kSimSteps = 48;

/// One round of the workers on one stack, with per-transfer simulated
/// durations reported back when `durations` is non-null.
class Round {
 public:
  Round(bc::SimStack& stack, std::vector<std::unique_ptr<mg::DeviceBuffer>>& bufs)
      : stack_(stack), bufs_(bufs) {}

  void spawn(std::vector<double>* durations) {
    completed_ = 0;
    failed_ = 0;
    for (int w = 0; w < kWorkers; ++w) {
      stack_.engine().spawn(worker(w, durations), "worker");
    }
  }
  [[nodiscard]] int completed() const { return completed_; }
  [[nodiscard]] int failed() const { return failed_; }

 private:
  ms::Task<void> worker(int w, std::vector<double>* durations) {
    auto& src = *bufs_[2 * static_cast<std::size_t>(w)];
    auto& dst = *bufs_[2 * static_cast<std::size_t>(w) + 1];
    for (int r = 0; r < kRepeats; ++r) {
      const double t0 = stack_.engine().now();
      try {
        co_await stack_.channel().transfer(dst, 0, src, 0, kBytes);
        ++completed_;
        if (durations != nullptr) {
          (*durations)[static_cast<std::size_t>(w * kRepeats + r)] =
              stack_.engine().now() - t0;
        }
      } catch (const mg::TransferError&) {
        ++failed_;
      }
    }
  }

  bc::SimStack& stack_;
  std::vector<std::unique_ptr<mg::DeviceBuffer>>& bufs_;
  int completed_ = 0;
  int failed_ = 0;
};

std::vector<std::unique_ptr<mg::DeviceBuffer>> make_buffers(
    const mt::Topology& topo) {
  const auto gpus = topo.gpus();
  std::vector<std::unique_ptr<mg::DeviceBuffer>> bufs;
  for (int w = 0; w < kWorkers; ++w) {
    const std::size_t a = static_cast<std::size_t>(w) % gpus.size();
    bufs.push_back(std::make_unique<mg::DeviceBuffer>(
        gpus[a], kBytes, mg::Payload::Simulated));
    bufs.push_back(std::make_unique<mg::DeviceBuffer>(
        gpus[(a + 1) % gpus.size()], kBytes, mg::Payload::Simulated));
  }
  return bufs;
}

class Churn32 final : public Workload {
 public:
  Churn32(const Options& opt, Tracer& tracer) : opt_(opt), tracer_(tracer) {}
  ~Churn32() override { release(); }

  [[nodiscard]] LayerUse layers() const override {
    return {.transport = false, .graphs = 1, .joint = false, .chain = false,
            .configurator_misses = false};
  }

  void setup() override {
    release();
    cal_.emplace(build_system(tracer_, "beluga"));
    cfg_ = std::make_unique<mm::PathConfigurator>(cal_->registry);
    cache_ = std::make_unique<mp::GraphCache>();
    {
      auto span = tracer_.open("benchcore.SimStack.model_driven");
      stack_.emplace(bc::SimStack::model_driven(
          cal_->system, *cfg_, mt::PathPolicy::three_gpus(), options()));
    }
    bufs_ = make_buffers(cal_->system.topology);
    const auto gpus = cal_->system.topology.gpus();
    for (std::size_t a = 0; a < gpus.size(); ++a) {
      solo_[a] = predict(tracer_, *cfg_, cal_->system.topology, gpus[a],
                         gpus[(a + 1) % gpus.size()], kBytes,
                         mt::PathPolicy::three_gpus())
                     .predicted_time;
    }
    Round round(*stack_, bufs_);
    for (int s = 0; s < kWarmupSteps; ++s) {
      round.spawn(nullptr);
      (void)stack_->engine().run();
    }
    base_ = read_counters(*stack_, *cfg_);
    events_ = 0;
    err_ = {};
    capacity_ = link_capacities(*stack_);
    link0_ = snapshot_links(*stack_);
    sim_bytes_ = 0;
  }

  [[nodiscard]] StepOutcome step(std::int64_t index) override {
    const bool sim = index < kSimSteps;
    durations_.assign(kWorkers * kRepeats, 0.0);
    const std::uint64_t bytes_before = pipeline_bytes(stack_->pipeline_engine());
    Round round(*stack_, bufs_);
    events_ += drive(tracer_, "sim.Engine.run", *stack_, *cfg_,
                     [&] { round.spawn(sim ? &durations_ : nullptr); });
    const std::uint64_t moved =
        pipeline_bytes(stack_->pipeline_engine()) - bytes_before;
    StepOutcome out{kWorkers * kRepeats,
                    static_cast<std::uint64_t>(round.failed())};
    std::string failure;
    if (round.completed() + round.failed() != kWorkers * kRepeats) {
      failure = "workers did not finish their transfers";
    } else if (moved != kBytes * static_cast<std::uint64_t>(round.completed())) {
      failure = "pipeline bytes differ from the bytes requested";
    } else if (stack_->network().active_flow_count() != 0) {
      failure = "flows left active";
    }
    if (!failure.empty()) {
      std::fprintf(stderr, "churn-32 step %lld: %s\n",
                   static_cast<long long>(index), failure.c_str());
      out.failed = out.units;
    }
    if (sim) {
      const auto gpus = cal_->system.topology.gpus();
      for (int w = 0; w < kWorkers; ++w) {
        for (int r = 0; r < kRepeats; ++r) {
          const double dt = durations_[static_cast<std::size_t>(w * kRepeats + r)];
          if (dt > 0.0) err_.add(solo_[static_cast<std::size_t>(w) % gpus.size()], dt);
        }
      }
      sim_bytes_ += moved;
      if (index + 1 == kSimSteps) link1_ = snapshot_links(*stack_);
    }
    return out;
  }

  [[nodiscard]] std::int64_t cycle() const override { return 16; }
  [[nodiscard]] std::int64_t min_steps() const override { return kSimSteps; }

  [[nodiscard]] Counters counters() override {
    Counters c = read_counters(*stack_, *cfg_) - base_;
    c.events = events_;
    return c;
  }

  [[nodiscard]] Finish finish() override {
    Finish f;
    const double md_span = link1_.t - link0_.t;
    f.sim_gbps = static_cast<double>(sim_bytes_) / md_span / 1e9;
    f.pred_err_pct = err_.pct();
    f.link_util_max = link_util_max(link0_, link1_, capacity_);
    const Counters c = counters();
    f.multipath_transfers = c.execs;
    // Leak check: once the cache drops its templates every event is back.
    cache_->clear();
    f.events_leaked = stack_->runtime().events_outstanding();
    if (f.events_leaked != 0) f.failures.push_back("runtime events leaked");

    // Direct-only twin on the same inputs, outside the timed phase.
    {
      bc::SimStack direct = bc::SimStack::direct(cal_->system, options());
      auto bufs = make_buffers(cal_->system.topology);
      Round round(direct, bufs);
      double t0 = 0.0;
      for (std::int64_t s = 0; s < kWarmupSteps + kSimSteps; ++s) {
        if (s == kWarmupSteps) t0 = direct.engine().now();
        round.spawn(nullptr);
        (void)direct.engine().run();
      }
      f.speedup_vs_direct = (direct.engine().now() - t0) / md_span;
    }
    MaterializedCheck check;
    check.graphs = true;
    const std::string failure =
        materialized_transfer_check(*cal_, check, opt_.seed);
    if (!failure.empty()) f.failures.push_back(failure);
    release();
    return f;
  }

 private:
  [[nodiscard]] bc::StackOptions options() const {
    bc::StackOptions so;
    so.seed = opt_.seed;
    so.model.graphs = cache_.get();
    return so;
  }

  /// Templates borrow runtime events: clear the cache before the stack.
  void release() {
    if (cache_) cache_->clear();
    stack_.reset();
    cache_.reset();
  }

  Options opt_;
  Tracer& tracer_;
  std::optional<CalibratedSystem> cal_;
  std::unique_ptr<mm::PathConfigurator> cfg_;
  std::unique_ptr<mp::GraphCache> cache_;
  std::optional<bc::SimStack> stack_;
  std::vector<std::unique_ptr<mg::DeviceBuffer>> bufs_;
  std::array<double, 4> solo_{};
  std::vector<double> durations_;
  Counters base_;
  std::uint64_t events_ = 0;
  ErrorMean err_;
  std::vector<double> capacity_;
  LinkSnapshot link0_;
  LinkSnapshot link1_;
  std::uint64_t sim_bytes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_churn32(const Options& opt, Tracer& tracer) {
  return std::make_unique<Churn32>(opt, tracer);
}

}  // namespace perfbench
