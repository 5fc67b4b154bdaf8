// tenants-faulted: open loop in simulated time. A seeded Poisson arrival
// trace is replayed on a fresh scheduled stack (TransferScheduler, joint
// theta) with recovery and path health on, while a seeded FaultInjector
// plan degrades, severs and restores GPU links. One unit is one arrival;
// one step is one trace, and a run cycles through 64 seeded traces.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>

#include "common.hpp"
#include "mpath/pipeline/scheduler.hpp"
#include "mpath/sim/fault.hpp"
#include "mpath/util/rng.hpp"

namespace perfbench {
namespace {

constexpr int kArrivals = 128;
constexpr double kMeanGap = 30e-6;
/// Distinct traces a run cycles through; the simulated metrics pool them.
constexpr int kTraces = 64;
/// Re-plans one arrival may make before it ends in TransferError. At this
/// load watchdogs also fire on links that are only crowded, and at the
/// library default of 3 about one seed in ten ended an arrival in
/// TransferError. A timed-out attempt lasts at least the 1 ms watchdog
/// floor, so running out of this budget takes 33 ms of simulated time in
/// flight, well beyond the longest trace seen.
constexpr int kMaxReplans = 32;

struct Arrival {
  double t = 0.0;  ///< due instant, simulated seconds
  mt::DeviceId src = 0;
  mt::DeviceId dst = 0;
  std::uint64_t bytes = 0;
};

/// Poisson arrivals over random GPU pairs. Every trace offers the same
/// bytes: 16 arrivals of each power of two from 512 KiB to 64 MiB, in a
/// seeded order, so traces differ in timing and pairs but not in load.
std::vector<Arrival> make_trace(const mt::Topology& topo,
                                mpath::util::Rng& rng) {
  constexpr int kLog2Min = 19;
  constexpr int kSizes = 8;
  std::vector<std::uint64_t> sizes;
  for (int i = 0; i < kArrivals; ++i) {
    sizes.push_back(std::uint64_t{1} << (kLog2Min + i % kSizes));
  }
  for (std::int64_t i = kArrivals - 1; i > 0; --i) {
    std::swap(sizes[static_cast<std::size_t>(i)],
              sizes[static_cast<std::size_t>(rng.uniform_int(0, i))]);
  }
  const auto gpus = topo.gpus();
  const auto n = static_cast<std::int64_t>(gpus.size());
  std::vector<Arrival> trace;
  double clock = 0.0;
  for (int i = 0; i < kArrivals; ++i) {
    clock += -kMeanGap * std::log1p(-rng.uniform(0.0, 1.0));
    const auto s = rng.uniform_int(0, n - 1);
    auto d = rng.uniform_int(0, n - 2);
    if (d >= s) ++d;
    trace.push_back({clock, gpus[static_cast<std::size_t>(s)],
                     gpus[static_cast<std::size_t>(d)],
                     sizes[static_cast<std::size_t>(i)]});
  }
  return trace;
}

/// GPU-to-GPU fluid links, the fault plan's targets.
std::vector<ms::LinkId> gpu_links(bc::SimStack& stack) {
  const mt::Topology& topo = stack.system().topology;
  std::vector<ms::LinkId> links;
  for (const mt::Edge& e : topo.edges()) {
    if (!e.is_memory_channel &&
        topo.device(e.from).kind == mt::DeviceKind::Gpu &&
        topo.device(e.to).kind == mt::DeviceKind::Gpu) {
      links.push_back(stack.runtime().binding().link_for_edge(e.id));
    }
  }
  return links;
}

/// Simulated outcome of one trace replay.
struct TraceResult {
  int completed = 0;
  int failed = 0;
  std::uint64_t bytes_completed = 0;
  double last_done = 0.0;
  std::uint64_t events = 0;
  std::string first_error;  ///< what() of the first TransferError
  [[nodiscard]] double makespan(const std::vector<Arrival>& trace) const {
    return last_done - trace.front().t;
  }
  friend bool operator==(const TraceResult&, const TraceResult&) = default;
};

ms::Task<void> arrive(bc::SimStack& stack, const Arrival& a,
                      mg::DeviceBuffer& src, mg::DeviceBuffer& dst,
                      TraceResult& result) {
  co_await stack.engine().delay(a.t);
  try {
    co_await stack.channel().transfer(dst, 0, src, 0, a.bytes);
    ++result.completed;
    result.bytes_completed += a.bytes;
  } catch (const mg::TransferError& e) {
    if (result.failed++ == 0) result.first_error = e.what();
  }
  result.last_done = std::max(result.last_done, stack.engine().now());
}

class TenantsFaulted final : public Workload {
 public:
  TenantsFaulted(const Options& opt, Tracer& tracer)
      : opt_(opt), tracer_(tracer) {}

  [[nodiscard]] LayerUse layers() const override {
    return {.transport = false, .graphs = 0, .joint = true, .chain = false,
            .configurator_misses = false};
  }

  void setup() override {
    cal_.emplace(build_system(tracer_, "beluga"));
    mpath::util::Rng rng(opt_.seed);
    traces_.clear();
    for (int k = 0; k < kTraces; ++k) {
      Trace& t = traces_.emplace_back();
      t.arrivals = make_trace(cal_->system.topology, rng);
      t.seed = rng.engine()();
      for (const Arrival& a : t.arrivals) {
        t.bufs.push_back(std::make_unique<mg::DeviceBuffer>(
            a.src, a.bytes, mg::Payload::Simulated));
        t.bufs.push_back(std::make_unique<mg::DeviceBuffer>(
            a.dst, a.bytes, mg::Payload::Simulated));
      }
    }
    totals_ = {};
    errors_.clear();
    bytes_completed_ = 0;
    makespan_ = 0.0;
    util_max_ = 0.0;
  }

  [[nodiscard]] StepOutcome step(std::int64_t index) override {
    const std::size_t k = static_cast<std::size_t>(index) % traces_.size();
    Trace& trace = traces_[k];
    mm::PathConfigurator cfg(cal_->registry);
    std::optional<bc::SimStack> stack;
    {
      auto span = tracer_.open("benchcore.SimStack.model_driven_scheduled");
      stack.emplace(bc::SimStack::model_driven_scheduled(
          cal_->system, cfg, mt::PathPolicy::three_gpus(), {},
          options(trace, /*recovery=*/true)));
    }
    const std::vector<double> capacity = link_capacities(*stack);
    ms::FaultInjector faults(stack->engine(), stack->network());
    {
      const std::vector<ms::LinkId> links = gpu_links(*stack);
      auto span = tracer_.open("sim.FaultInjector.random_plan");
      faults.random_plan(links, fault_plan(trace), trace.seed);
    }
    const TraceResult r = replay(trace, *stack, cfg);
    Counters c = read_counters(*stack, cfg);
    c.events = r.events;
    totals_ += c;

    std::string failure;
    const mp::TransferScheduler& sched = *stack->scheduler();
    if (r.completed + r.failed != kArrivals) {
      failure = "arrivals unaccounted for";
    } else if (sched.live_count() != 0 ||
               sched.stats().footprint_mismatches != 0) {
      failure = "scheduler ledger did not return to baseline";
    } else if (stack->network().active_flow_count() != 0) {
      failure = "flows left active";
    } else if (stack->runtime().events_outstanding() != 0) {
      failure = "events leaked";
    } else if (c.pipe_bytes < r.bytes_completed) {
      failure = "pipeline carried fewer bytes than were delivered";
    } else if (trace.first && !(*trace.first == r)) {
      failure = "trace did not reproduce its first replay";
    }
    if (!trace.first && r.failed > 0) {
      std::fprintf(stderr,
                   "tenants-faulted trace %zu: %d arrivals ended in "
                   "TransferError; first: %s\n",
                   k, r.failed, r.first_error.c_str());
    }
    if (!trace.first) {
      trace.first = r;
      bytes_completed_ += r.bytes_completed;
      makespan_ += r.makespan(trace.arrivals);
      for (const auto& rec : sched.history()) {
        // A re-planned record keeps the prediction it was solved with
        // against the severed link; score first plans only.
        if (rec.completed() && rec.replans == 0) {
          errors_.push_back(100.0 * std::abs(rec.predicted_s - rec.actual_s()) /
                            rec.actual_s());
        }
      }
      const LinkSnapshot end = snapshot_links(*stack);
      util_max_ = std::max(
          util_max_,
          link_util_max({std::vector<double>(end.bytes.size(), 0.0), 0.0},
                        end, capacity));
    }
    if (!failure.empty()) {
      std::fprintf(stderr, "tenants-faulted trace %lld: %s\n",
                   static_cast<long long>(index), failure.c_str());
      return {kArrivals, kArrivals};
    }
    return {kArrivals, static_cast<std::uint64_t>(r.failed)};
  }

  /// One replay of every trace, so every trace weighs the same.
  [[nodiscard]] std::int64_t cycle() const override { return kTraces; }
  [[nodiscard]] std::int64_t min_steps() const override { return kTraces; }

  [[nodiscard]] Counters counters() override { return totals_; }

  [[nodiscard]] Finish finish() override {
    Finish f;
    f.sim_gbps = static_cast<double>(bytes_completed_) / makespan_ / 1e9;
    // Median, not mean: a transfer admitted against a severed link is
    // predicted to take whole seconds, so the mean would count fault
    // overlaps rather than measure the model.
    std::sort(errors_.begin(), errors_.end());
    f.pred_err_pct = errors_.empty() ? 0.0 : errors_[errors_.size() / 2];
    f.link_util_max = util_max_;
    f.multipath_transfers = totals_.admitted;
    // A direct stack has no recovery, so the speedup compares the same
    // traces without the fault plan on both sides.
    double direct = 0.0;
    double md = 0.0;
    for (Trace& t : traces_) {
      direct += fault_free_makespan(t, false);
      md += fault_free_makespan(t, true);
    }
    f.speedup_vs_direct = direct / md;
    MaterializedCheck check;
    check.scheduled = true;
    check.recovery = true;
    const std::string failure =
        materialized_transfer_check(*cal_, check, opt_.seed);
    if (!failure.empty()) f.failures.push_back(failure);
    return f;
  }

 private:
  struct Trace {
    std::vector<Arrival> arrivals;
    std::uint64_t seed = 0;  ///< stack jitter and fault plan
    std::vector<std::unique_ptr<mg::DeviceBuffer>> bufs;
    std::optional<TraceResult> first;
  };

  [[nodiscard]] static bc::StackOptions options(const Trace& trace,
                                                bool recovery) {
    bc::StackOptions so;
    so.seed = trace.seed;
    so.model.recovery.enabled = recovery;
    so.model.health.enabled = recovery;
    so.model.recovery.max_replans = kMaxReplans;
    return so;
  }

  /// Faults land while the trace is in flight; severs outlive the 1 ms
  /// watchdog floor, so recovery re-plans around them, and every fault is
  /// restored.
  [[nodiscard]] static ms::FaultInjector::RandomPlanOptions fault_plan(
      const Trace& trace) {
    ms::FaultInjector::RandomPlanOptions p;
    p.start = 0.0;
    p.horizon = trace.arrivals.back().t;
    p.faults = 6;
    p.min_factor = 0.1;
    p.max_factor = 0.5;
    p.sever_probability = 0.3;
    p.restore_probability = 1.0;
    p.min_duration = 1.5e-3;
    p.max_duration = 4e-3;
    return p;
  }

  TraceResult replay(Trace& trace, bc::SimStack& stack,
                     const mm::PathConfigurator& cfg) {
    TraceResult r;
    r.events = drive(tracer_, "sim.Engine.run", stack, cfg, [&] {
      for (std::size_t i = 0; i < trace.arrivals.size(); ++i) {
        stack.engine().spawn(arrive(stack, trace.arrivals[i],
                                    *trace.bufs[2 * i], *trace.bufs[2 * i + 1],
                                    r),
                             "arrival");
      }
    });
    return r;
  }

  double fault_free_makespan(Trace& trace, bool model_driven) {
    mm::PathConfigurator cfg(cal_->registry);
    bc::SimStack stack =
        model_driven ? bc::SimStack::model_driven_scheduled(
                           cal_->system, cfg, mt::PathPolicy::three_gpus(), {},
                           options(trace, true))
                     : bc::SimStack::direct(cal_->system, options(trace, false));
    return replay(trace, stack, cfg).makespan(trace.arrivals);
  }

  Options opt_;
  Tracer& tracer_;
  std::optional<CalibratedSystem> cal_;
  std::vector<Trace> traces_;
  Counters totals_;
  std::vector<double> errors_;
  std::uint64_t bytes_completed_ = 0;
  double makespan_ = 0.0;
  double util_max_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_tenants_faulted(const Options& opt,
                                               Tracer& tracer) {
  return std::make_unique<TenantsFaulted>(opt, tracer);
}

}  // namespace perfbench
