// DataChannel implementations over the pipeline engine:
//   * SinglePathChannel — the UCX default: everything on the direct path
//     (the paper's baseline),
//   * ModelDrivenChannel — Fig. 2a Steps 3-5: invoke the performance model
//     per transfer, execute the optimal configuration (the paper's
//     "Dynamic Path Distribution"),
//   * StaticPlanChannel — a fixed fraction/chunk assignment found offline
//     by exhaustive search (the paper's "Static Path Distribution", [35]).
// All three write a plan the one way Algorithm 1 does, as model::PathShare
// records, and hand that list to PipelineEngine::execute (or replay a
// template compiled from it).
#pragma once

#include <chrono>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "mpath/gpusim/channel.hpp"
#include "mpath/model/configurator.hpp"
#include "mpath/model/recalibrator.hpp"
#include "mpath/pipeline/engine.hpp"
#include "mpath/pipeline/health.hpp"

namespace mpath::pipeline {

class TransferScheduler;
class GraphCache;
class ChainController;

class SinglePathChannel final : public gpusim::DataChannel {
 public:
  explicit SinglePathChannel(PipelineEngine& engine) : engine_(&engine) {}

  [[nodiscard]] sim::Task<void> transfer(gpusim::DeviceBuffer& dst,
                                         std::size_t dst_offset,
                                         const gpusim::DeviceBuffer& src,
                                         std::size_t src_offset,
                                         std::size_t bytes) override;
  [[nodiscard]] std::string name() const override { return "direct"; }

 private:
  PipelineEngine* engine_;
};

/// Degradation-aware recovery policy: every path of a transfer runs under a
/// watchdog whose deadline is the model-predicted per-path time T_i times
/// escalated_slack() (floored at 1 ms, so noise cannot trip tiny shares);
/// on timeout the failed path is dropped from the candidate set, theta is
/// re-solved over the survivors for the undelivered remainder, and the
/// remainder is re-issued as a fresh plan. After `max_replans` failed
/// attempts (or when no path survives) the transfer throws
/// gpusim::TransferError with partial-progress accounting. Disabled, a
/// transfer runs once with no watchdog.
struct RecoveryOptions {
  bool enabled = false;
  int max_replans = 3;
};

/// Watchdog slack of a transfer's first attempt: deadline = slack * T_i.
inline constexpr double kWatchdogSlack = 4.0;
/// Per-retry slack escalation: re-plan r of one transfer uses
/// kWatchdogSlack * min(kRetryBackoff^r, kMaxRetrySlackFactor). A flapping
/// path then has to misbehave for exponentially longer to burn each
/// remaining re-plan, instead of tripping max_replans in one burst.
inline constexpr double kRetryBackoff = 2.0;
inline constexpr double kMaxRetrySlackFactor = 8.0;

/// Watchdog slack for re-plan number `replans` (0 = the initial plan, so
/// the first attempt always runs at exactly kWatchdogSlack).
[[nodiscard]] double escalated_slack(int replans);

/// Monotonic counters describing recovery activity on a channel.
struct RecoveryStats {
  std::uint64_t path_timeouts = 0;      ///< watchdogs that fired
  std::uint64_t replans = 0;            ///< remainder re-plans issued
  std::uint64_t transfers_recovered = 0;  ///< completed after >= 1 re-plan
  std::uint64_t transfers_failed = 0;   ///< ended in TransferError
  double recovery_time_s = 0.0;  ///< sim time from first timeout to finish
};

/// Transfers below this size skip multi-path and go direct (matching the
/// runtime integration, which leaves small messages on the default path).
inline constexpr std::size_t kMinMultipathBytes = 256 * 1024;

struct ModelDrivenOptions {
  /// Transfers below this size skip the model and go direct. With recovery
  /// on they still take a single-path model plan, whose prediction sets
  /// their watchdog deadline.
  std::size_t min_multipath_bytes = kMinMultipathBytes;
  RecoveryOptions recovery;
  /// Path probation/readmission policy. Requires recovery.enabled (health
  /// is driven by the watchdog outcomes); ignored otherwise.
  HealthOptions health;
  /// When set, every model-driven transfer whose first attempt ran its plan
  /// as configured (no watchdog fired, no probe slice carved out) feeds its
  /// (predicted, actual) pair back for online alpha/beta refinement. The
  /// recalibrator must outlive the channel. Null (default) keeps the model
  /// static — paper-faithful mode.
  model::Recalibrator* recalibrator = nullptr;
  /// Compiled-plan replay: when set, multi-path transfers consult this
  /// template cache first. A hit replays the precompiled op list (skipping
  /// the theta solve, plan construction, and per-chunk setup); a miss
  /// compiles the fresh plan into a template for next time. Replay falls
  /// back to the uncompiled path whenever it could diverge from it: the
  /// template is mid-replay, one of its paths is unhealthy, link
  /// capacities changed since compile, or the scheduler sees contention
  /// the compiled split did not. The cache must outlive the channel and be
  /// destroyed before the engine's runtime. Null (default) disables
  /// compiled replay entirely.
  GraphCache* graphs = nullptr;
};

/// Monotonic counters describing compiled-graph usage on a channel.
struct GraphUseStats {
  std::uint64_t compiles = 0;          ///< templates built (cache misses)
  std::uint64_t replays = 0;           ///< cache-hit fast-path executions
  std::uint64_t replays_fresh = 0;     ///< executions right after a compile
  std::uint64_t busy_fallbacks = 0;    ///< template mid-replay
  std::uint64_t health_fallbacks = 0;  ///< a template path is unhealthy
  std::uint64_t epoch_fallbacks = 0;   ///< link capacities changed
  std::uint64_t contended_rejects = 0; ///< scheduler refused admit_replay
  /// Host wall-nanoseconds spent in the channel's *synchronous* planning
  /// sections: every plan source (configure, admission, recovery re-plan
  /// and watchdog set-up, template compile, chain claim) plus departure and
  /// chain record bookkeeping. Never spans a co_await, so it measures the
  /// per-transfer host-side cost a real (non-simulated) stack would pay on
  /// the CPU — the thing graph replay exists to amortise — with simulated
  /// device/network event processing excluded.
  std::uint64_t plan_ns = 0;
};

class ModelDrivenChannel final : public gpusim::DataChannel {
 public:
  ModelDrivenChannel(PipelineEngine& engine,
                     model::PathConfigurator& configurator,
                     topo::PathPolicy policy, ModelDrivenOptions options = {});

  /// Scheduled variant: every multi-path transfer is admitted through
  /// `scheduler` (joint contention-aware planning); recovery re-plans go
  /// through TransferScheduler::replan so they see live contention too.
  /// The scheduler must outlive the channel and share `configurator`.
  ModelDrivenChannel(PipelineEngine& engine, TransferScheduler& scheduler,
                     model::PathConfigurator& configurator,
                     topo::PathPolicy policy, ModelDrivenOptions options = {});

  /// One loop per transfer: plan (chain claim, cached template, admission
  /// or solo), then replay or execute. With recovery on every path runs
  /// under a watchdog, and a timed-out remainder is re-planned over the
  /// surviving paths; with it off the loop runs once, unwatched.
  [[nodiscard]] sim::Task<void> transfer(gpusim::DeviceBuffer& dst,
                                         std::size_t dst_offset,
                                         const gpusim::DeviceBuffer& src,
                                         std::size_t src_offset,
                                         std::size_t bytes) override;
  [[nodiscard]] std::string name() const override { return "model-driven"; }

  [[nodiscard]] const topo::PathPolicy& policy() const { return policy_; }
  [[nodiscard]] const RecoveryStats& recovery_stats() const { return stats_; }
  [[nodiscard]] const ModelDrivenOptions& options() const { return options_; }
  /// The node-level scheduler this channel admits through (null when
  /// constructed without one — solo planning, legacy behaviour).
  [[nodiscard]] TransferScheduler* scheduler() const { return scheduler_; }
  /// The channel-lifetime path-health state machine (tracks nothing and
  /// changes nothing unless options().health.enabled with recovery on).
  [[nodiscard]] const PathHealthManager& health() const { return health_; }
  /// Compiled-graph activity (all zero unless options().graphs is set).
  [[nodiscard]] const GraphUseStats& graph_stats() const {
    return graph_stats_;
  }
  /// Attach (or detach, with null) a collective chain controller: every
  /// transfer then consumes the controller's pending step — replaying a
  /// chained template when one is claimable, and reporting its
  /// configuration back during capture. The controller must outlive the
  /// attachment.
  void attach_chain(ChainController* chain) { chain_ = chain; }
  /// The attached chain controller (null when collective chaining is off).
  [[nodiscard]] ChainController* chain() const { return chain_; }

 private:
  friend class ChainController;
  using PlanClock = std::chrono::steady_clock;
  /// Share vectors kept between solo transfers, one list node each, so a
  /// plan takes and returns one without allocating.
  using SpareShares = std::list<std::vector<model::PathShare>>;
  /// One planned execution: what a plan source hands the transfer loop.
  struct Plan;

  [[nodiscard]] const std::vector<topo::PathPlan>& candidate_paths(
      topo::DeviceId src, topo::DeviceId dst);
  /// Calibration version templates are stamped with (0 = no store).
  [[nodiscard]] std::uint64_t graph_cal_version() const;

  /// The replay gate's verdict on a template: kReplay, or why not.
  enum class Gate : std::uint8_t {
    kReplay,
    kBusy,        ///< mid-replay (templates are not reentrant)
    kUnhealthy,   ///< a candidate path is not healthy
    kStaleEpoch,  ///< compiled under superseded link capacities
    kContended,   ///< admit_replay refused it
  };
  /// The one replay gate, for GraphCache hits and chain claims alike: `g`
  /// may replay for (src, dst, bytes) over `paths` when it is not busy,
  /// every path is healthy, it was compiled under the current capacity
  /// epoch, and — on a scheduled channel — admit_replay accepts it. On
  /// kReplay the ticket and config land in `plan`; otherwise `plan` is
  /// untouched and the caller counts the cause.
  [[nodiscard]] Gate replay_gate(const TransferGraph& g, topo::DeviceId src,
                                 topo::DeviceId dst, std::uint64_t bytes,
                                 std::span<const topo::PathPlan> paths,
                                 Plan& plan);

  // -- plan sources -----------------------------------------------------------
  // Each fills {graph, ticket, config, reproducible} without suspending. In
  // order on a transfer's first attempt: chain claim
  // (ChainController::claim_step), cached template, admission or solo.
  /// A cached template that passes the replay gate; evicts it when one of
  /// its paths is unhealthy or its capacity epoch is stale. False: take the
  /// next source.
  [[nodiscard]] bool plan_cached(topo::DeviceId src, topo::DeviceId dst,
                                 std::uint64_t bytes,
                                 const std::vector<topo::PathPlan>& paths,
                                 Plan& plan);
  /// Scheduler admission or solo Algorithm 1 over `paths`, whose first
  /// entry is the anchor; a `replan` of a remainder goes through the
  /// scheduler's replan on the admitted ticket, or solo computes its config
  /// without caching it. The plan is reproducible only for a `canonical`
  /// request — the whole message over the full candidate set with no probe
  /// pending — that admission (if any) found uncontended; a reproducible
  /// plan compiles a template when the channel has a GraphCache.
  void plan_fresh(topo::DeviceId src, topo::DeviceId dst, std::uint64_t bytes,
                  std::span<const topo::PathPlan> paths, bool replan,
                  bool canonical, Plan& plan);
  /// Compile `config` into a template, stamp it with the current capacity
  /// epoch, and insert it into the cache.
  [[nodiscard]] std::shared_ptr<TransferGraph> compile_template(
      topo::DeviceId src, topo::DeviceId dst,
      const model::TransferConfig& config);

  PipelineEngine* engine_;
  ChainController* chain_ = nullptr;
  model::PathConfigurator* configurator_;
  TransferScheduler* scheduler_ = nullptr;
  topo::PathPolicy policy_;
  ModelDrivenOptions options_;
  PathHealthManager health_;
  RecoveryStats stats_;
  GraphUseStats graph_stats_;
  SpareShares spare_shares_;  ///< empty, each with its capacity
  // Candidate path cache per (src, dst).
  std::map<std::pair<topo::DeviceId, topo::DeviceId>,
           std::vector<topo::PathPlan>>
      path_cache_;
};

/// Offline-tuned fixed distribution: each share's `theta` of every message
/// rides its `plan` path with `chunks` pipeline depth; the other fields are
/// ignored. The direct path comes first and the fractions sum to ~1.
/// StaticPlanChannel sends messages below kMinMultipathBytes direct.
using StaticPlan = std::vector<model::PathShare>;

/// Why StaticPlanChannel refuses `plan`, or null when it takes it: the plan
/// is empty, its first path is not the direct one, a fraction is not a
/// number >= 0, a chunk count is below 1, or the fractions do not sum to 1
/// within 1e-6.
[[nodiscard]] const char* static_plan_error(const StaticPlan& plan);

class StaticPlanChannel final : public gpusim::DataChannel {
 public:
  StaticPlanChannel(PipelineEngine& engine, StaticPlan plan);

  [[nodiscard]] sim::Task<void> transfer(gpusim::DeviceBuffer& dst,
                                         std::size_t dst_offset,
                                         const gpusim::DeviceBuffer& src,
                                         std::size_t src_offset,
                                         std::size_t bytes) override;
  [[nodiscard]] std::string name() const override { return "static"; }

 private:
  PipelineEngine* engine_;
  StaticPlan plan_;
};

}  // namespace mpath::pipeline
