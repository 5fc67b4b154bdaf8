// osu-p2p: a closed loop over the paper's OMB osu_bw grid. One unit (and
// one step) is one cell: a fresh direct stack and a fresh model-driven
// stack each run the protocol, and the model predicts the cell.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "common.hpp"
#include "mpath/mpisim/world.hpp"
#include "mpath/util/rng.hpp"

namespace perfbench {
namespace {

namespace mi = mpath::mpisim;

constexpr int kAckTag = 9999;
constexpr std::uint64_t kAckBytes = 4;
constexpr int kWarmup = 1;

struct Cell {
  std::size_t system = 0;
  mt::PathPolicy policy;
  int window = 1;
  std::uint64_t bytes = 0;
  [[nodiscard]] int iterations() const { return window == 1 ? 4 : 2; }
  /// Bytes the protocol moves through the channel: payload plus acks.
  [[nodiscard]] std::uint64_t channel_bytes() const {
    const auto iters = static_cast<std::uint64_t>(kWarmup + iterations());
    return iters * (bytes * static_cast<std::uint64_t>(window) + kAckBytes);
  }
};

struct OsuResult {
  double elapsed = 0.0;  ///< simulated seconds of the timed iterations
  std::uint64_t events = 0;
};

/// OMB osu_bw, rank 0 -> rank 1: the sender posts `window` isends per
/// iteration, the receiver mirrors them with irecvs and acks.
OsuResult osu_bw(Tracer& tracer, bc::SimStack& stack,
                 const mm::PathConfigurator& cfg, const Cell& cell) {
  OsuResult r;
  const int iters = kWarmup + cell.iterations();
  mi::World::RankMain rank_main(
      [&r, &cell, iters](mi::Communicator& comm) -> ms::Task<void> {
        if (comm.rank() > 1) co_return;
        const bool sender = comm.rank() == 0;
        const int peer = sender ? 1 : 0;
        mg::DeviceBuffer buf(comm.device(), cell.bytes,
                             mg::Payload::Simulated);
        mg::DeviceBuffer ack(comm.device(), kAckBytes);
        double start = 0.0;
        for (int it = 0; it < iters; ++it) {
          if (it == kWarmup) start = comm.world().engine().now();
          std::vector<ms::Process> reqs;
          for (int w = 0; w < cell.window; ++w) {
            reqs.push_back(sender ? comm.isend(buf, 0, cell.bytes, peer, w)
                                  : comm.irecv(buf, 0, cell.bytes, peer, w));
          }
          co_await comm.wait_all(std::move(reqs));
          if (sender) {
            co_await comm.recv(ack, 0, kAckBytes, peer, kAckTag);
          } else {
            co_await comm.send(ack, 0, kAckBytes, peer, kAckTag);
          }
        }
        if (sender) r.elapsed = comm.world().engine().now() - start;
      });
  r.events = drive(tracer, "mpisim.World.run", stack, cfg,
                   [&] { (void)stack.world().launch(rank_main); });
  return r;
}

/// Per-cell invariants; returns an empty string when all hold.
std::string check_stack(bc::SimStack& stack, const Cell& cell) {
  if (stack.world().fabric().bytes_sent() != cell.channel_bytes()) {
    return "fabric bytes differ from the OSU schedule";
  }
  if (pipeline_bytes(stack.pipeline_engine()) != cell.channel_bytes()) {
    return "pipeline bytes differ from the bytes requested";
  }
  if (stack.runtime().events_outstanding() != 0) return "events leaked";
  if (stack.network().active_flow_count() != 0) return "flows left active";
  return {};
}

class OsuP2P final : public Workload {
 public:
  OsuP2P(const Options& opt, Tracer& tracer) : opt_(opt), tracer_(tracer) {}

  [[nodiscard]] LayerUse layers() const override {
    return {.transport = true, .graphs = 0, .joint = false, .chain = false,
            .configurator_misses = true};
  }

  void setup() override {
    systems_.clear();
    systems_.push_back(build_system(tracer_, "beluga"));
    systems_.push_back(build_system(tracer_, "narval"));
    cells_.clear();
    const std::vector<mt::PathPolicy> policies = {
        mt::PathPolicy::two_gpus(), mt::PathPolicy::three_gpus(),
        mt::PathPolicy::three_gpus_with_host()};
    for (std::size_t s = 0; s < systems_.size(); ++s) {
      for (const mt::PathPolicy& p : policies) {
        for (int window : {1, 16}) {
          for (std::uint64_t mib = 2; mib <= 512; mib *= 2) {
            cells_.push_back({s, p, window, mib * kMiB});
          }
        }
      }
    }
    mpath::util::Rng rng(opt_.seed);
    std::shuffle(cells_.begin(), cells_.end(), rng.engine());
    first_pass_.assign(cells_.size(), {});
    totals_ = {};
    speedup_log_ = 0.0;
    err_ = {};
    md_bytes_ = 0;
    md_seconds_ = 0.0;
    util_max_ = 0.0;
    multipath_ = 0;
    // Warmup: one small cell on throwaway stacks.
    Cell warm{0, mt::PathPolicy::two_gpus(), 1, 2 * kMiB};
    mm::PathConfigurator cfg(systems_[0].registry);
    auto stack = bc::SimStack::model_driven(systems_[0].system, cfg,
                                            warm.policy, stack_options(0));
    (void)osu_bw(tracer_, stack, cfg, warm);
  }

  [[nodiscard]] StepOutcome step(std::int64_t index) override {
    const std::size_t n = cells_.size();
    const std::size_t c = static_cast<std::size_t>(index) % n;
    const Cell& cell = cells_[c];
    const CalibratedSystem& cal = systems_[cell.system];
    const bc::StackOptions so = stack_options(c);
    mm::PathConfigurator cfg(cal.registry);

    std::optional<bc::SimStack> direct;
    {
      auto span = tracer_.open("benchcore.SimStack.direct");
      direct.emplace(bc::SimStack::direct(cal.system, so));
    }
    const OsuResult d = osu_bw(tracer_, *direct, cfg, cell);
    std::string failure = check_stack(*direct, cell);
    add_totals(*direct, cfg, d.events);
    direct.reset();

    std::optional<bc::SimStack> md;
    {
      auto span = tracer_.open("benchcore.SimStack.model_driven");
      md.emplace(bc::SimStack::model_driven(cal.system, cfg, cell.policy, so));
    }
    const OsuResult m = osu_bw(tracer_, *md, cfg, cell);
    if (failure.empty()) failure = check_stack(*md, cell);
    add_totals(*md, cfg, m.events);

    const auto gpus = cal.system.topology.gpus();
    const mm::TransferConfig pred = predict(tracer_, cfg, cal.system.topology,
                                            gpus[0], gpus[1], cell.bytes,
                                            cell.policy);

    if (static_cast<std::size_t>(index) < n) {
      first_pass_[c] = {d.elapsed, m.elapsed};
      const double timed_bytes = static_cast<double>(
          cell.bytes * static_cast<std::uint64_t>(cell.window *
                                                  cell.iterations()));
      speedup_log_ += std::log(d.elapsed / m.elapsed);
      if (cell.bytes > 4 * kMiB) {
        // Time per byte: the model's one transfer against the cell's
        // simulated aggregate bandwidth, as in the paper's Figure 5.
        err_.add(1.0 / pred.predicted_bandwidth(), m.elapsed / timed_bytes);
      }
      md_bytes_ += pipeline_bytes(md->pipeline_engine());
      md_seconds_ += md->engine().now();
      const LinkSnapshot end = snapshot_links(*md);
      const LinkSnapshot start{std::vector<double>(end.bytes.size(), 0.0), 0.0};
      util_max_ = std::max(util_max_,
                           link_util_max(start, end, link_capacities(*md)));
    } else if (failure.empty() && (first_pass_[c].first != d.elapsed ||
                                   first_pass_[c].second != m.elapsed)) {
      failure = "cell did not reproduce its first-pass simulated times";
    }
    multipath_ += static_cast<std::uint64_t>(cell.window *
                                             (kWarmup + cell.iterations()));
    if (!failure.empty()) {
      std::fprintf(stderr, "osu-p2p cell %zu: %s\n", c, failure.c_str());
      return {1, 1};
    }
    return {1, 0};
  }

  /// One pass over the grid, so every cell weighs the same.
  [[nodiscard]] std::int64_t cycle() const override {
    return static_cast<std::int64_t>(cells_.size());
  }
  [[nodiscard]] std::int64_t min_steps() const override { return cycle(); }

  [[nodiscard]] Counters counters() override { return totals_; }

  [[nodiscard]] Finish finish() override {
    Finish f;
    const auto n = static_cast<double>(cells_.size());
    f.sim_gbps = static_cast<double>(md_bytes_) / md_seconds_ / 1e9;
    f.speedup_vs_direct = std::exp(speedup_log_ / n);
    f.pred_err_pct = err_.pct();
    f.link_util_max = util_max_;
    f.multipath_transfers = multipath_;
    MaterializedCheck check;
    check.policy = mt::PathPolicy::three_gpus_with_host();
    check.must_use = {mt::PathKind::GpuStaged, mt::PathKind::HostStaged};
    const std::string failure =
        materialized_transfer_check(systems_[0], check, opt_.seed);
    if (!failure.empty()) f.failures.push_back(failure);
    return f;
  }

 private:
  [[nodiscard]] bc::StackOptions stack_options(std::size_t cell) const {
    bc::StackOptions so;
    so.seed = opt_.seed * 1000003 + cell;
    return so;
  }

  void add_totals(bc::SimStack& stack, const mm::PathConfigurator& cfg,
                  std::uint64_t events) {
    Counters c = read_counters(stack, cfg);
    c.events = events;
    totals_ += c;
  }

  Options opt_;
  Tracer& tracer_;
  std::vector<CalibratedSystem> systems_;
  std::vector<Cell> cells_;
  std::vector<std::pair<double, double>> first_pass_;  ///< direct, md
  Counters totals_;
  double speedup_log_ = 0.0;
  ErrorMean err_;
  std::uint64_t md_bytes_ = 0;
  double md_seconds_ = 0.0;
  double util_max_ = 0.0;
  std::uint64_t multipath_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_osu_p2p(const Options& opt, Tracer& tracer) {
  return std::make_unique<OsuP2P>(opt, tracer);
}

}  // namespace perfbench
