#include "mpath/pipeline/channels.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mpath/pipeline/collective_graph.hpp"
#include "mpath/pipeline/graph.hpp"
#include "mpath/pipeline/scheduler.hpp"
#include "mpath/util/small_vec.hpp"

namespace mpath::pipeline {

namespace {

/// Nanoseconds since `t0`, for GraphUseStats::plan_ns sections. Callers
/// must never let a section span a co_await: suspended wall time belongs
/// to other coroutines and the event loop, not to this transfer's planner.
std::uint64_t plan_ns_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// The whole of a `bytes` message on the direct path, in one chunk.
model::PathShare direct_share(std::uint64_t bytes) {
  return {topo::PathPlan{topo::PathKind::Direct, topo::kInvalidDevice}, 1.0,
          bytes, 1, 0.0, {}};
}

/// Single path for a small segment: prefer the Direct survivor when one is
/// alive (lowest latency, no staging buffers); otherwise fall back to the
/// first survivor, which is the best-ranked staged path in enumeration
/// order. Without the scan, a dead direct path would silently route small
/// remainders over whichever survivor happened to sit first.
std::span<const topo::PathPlan> small_segment_path(
    const std::vector<topo::PathPlan>& alive) {
  for (const topo::PathPlan& p : alive) {
    if (p.kind == topo::PathKind::Direct) return {&p, 1};
  }
  return {alive.data(), 1};
}

/// Watchdog deadline floor, so that noise on tiny shares cannot trip a
/// healthy path.
constexpr double kMinDeadlineS = 1e-3;

}  // namespace

/// The template to replay (when null, the attempt runs config.paths), the
/// ticket the transfer departs when it finishes, a by-value snapshot of
/// the chosen configuration (empty for a sub-threshold direct transfer;
/// an attempt's probe slices are appended to it), and whether a later
/// identical transfer would pick it again — the bar a template or a
/// captured chain step must meet to compile. A transfer that
/// unwinds before departing fails its ticket, so the scheduler stops
/// water-filling against it. Without a scheduler, whose admissions hand
/// over configs of their own, the snapshot's share vector is one of
/// `spares`, taken for the plan's lifetime and given back empty with its
/// capacity, so copying a cached config into it allocates nothing once the
/// channel has seen as many plans at once before.
struct ModelDrivenChannel::Plan {
  Plan(TransferScheduler* s, SpareShares& spares)
      : sched(s), spare(s == nullptr ? &spares : nullptr) {
    if (spare == nullptr) return;
    if (spare->empty()) spare->emplace_back();
    shares.splice(shares.begin(), *spare, spare->begin());
    config.paths.swap(shares.front());
  }
  Plan(const Plan&) = delete;
  Plan& operator=(const Plan&) = delete;
  ~Plan() {
    if (ticket != TransferScheduler::kInvalidTicket) sched->fail(ticket);
    if (spare == nullptr) return;
    config.paths.clear();
    config.paths.swap(shares.front());
    spare->splice(spare->begin(), shares);
  }

  TransferScheduler* sched;
  SpareShares* spare;  ///< null on a scheduled channel
  SpareShares shares;  ///< the one spare vector this plan holds
  std::shared_ptr<TransferGraph> graph;
  TransferScheduler::TicketId ticket = TransferScheduler::kInvalidTicket;
  model::TransferConfig config;
  bool reproducible = false;
};

double escalated_slack(int replans) {
  return kWatchdogSlack *
         std::min(std::pow(kRetryBackoff, replans), kMaxRetrySlackFactor);
}

sim::Task<void> SinglePathChannel::transfer(gpusim::DeviceBuffer& dst,
                                            std::size_t dst_offset,
                                            const gpusim::DeviceBuffer& src,
                                            std::size_t src_offset,
                                            std::size_t bytes) {
  const model::PathShare direct = direct_share(bytes);
  (void)co_await engine_->execute(dst, dst_offset, src, src_offset,
                                  std::span(&direct, 1));
}

ModelDrivenChannel::ModelDrivenChannel(PipelineEngine& engine,
                                       model::PathConfigurator& configurator,
                                       topo::PathPolicy policy,
                                       ModelDrivenOptions options)
    : engine_(&engine),
      configurator_(&configurator),
      policy_(policy),
      options_(options),
      health_(options.health) {}

ModelDrivenChannel::ModelDrivenChannel(PipelineEngine& engine,
                                       TransferScheduler& scheduler,
                                       model::PathConfigurator& configurator,
                                       topo::PathPolicy policy,
                                       ModelDrivenOptions options)
    : engine_(&engine),
      configurator_(&configurator),
      scheduler_(&scheduler),
      policy_(policy),
      options_(options),
      health_(options.health) {}

const std::vector<topo::PathPlan>& ModelDrivenChannel::candidate_paths(
    topo::DeviceId src, topo::DeviceId dst) {
  const auto key = std::make_pair(src, dst);
  auto it = path_cache_.find(key);
  if (it == path_cache_.end()) {
    it = path_cache_
             .emplace(key, topo::enumerate_paths(engine_->runtime().topology(),
                                                 src, dst, policy_))
             .first;
  }
  return it->second;
}

std::uint64_t ModelDrivenChannel::graph_cal_version() const {
  const model::CalibrationStore* cal = configurator_->calibration();
  return cal != nullptr ? cal->version() : 0;
}

sim::Task<void> ModelDrivenChannel::transfer(gpusim::DeviceBuffer& dst,
                                             std::size_t dst_offset,
                                             const gpusim::DeviceBuffer& src,
                                             std::size_t src_offset,
                                             std::size_t bytes) {
  // Collective chain interplay: the transport tap staged what this message
  // is — a capture-iteration step (record its config afterwards) or a
  // replayable step of a sealed chain (claim its template through the
  // replay gate and skip configuration entirely). Taken before the first
  // co_await, while the staged step still describes this message.
  ChainController::Pending pend;
  if (chain_ != nullptr) pend = chain_->take_pending();
  sim::Engine& eng = engine_->runtime().engine();
  const double t0 = eng.now();
  const RecoveryOptions& rec = options_.recovery;
  const bool use_health = rec.enabled && options_.health.enabled;
  const topo::DeviceId sdev = src.device();
  const topo::DeviceId ddev = dst.device();

  // Without health tracking, `alive` is the PR 2 survivor set: paths whose
  // watchdog fires are removed for the rest of this transfer. It is copied
  // from the candidates on the first timeout, so a fault-free transfer
  // allocates nothing. With health tracking, the candidate set is
  // re-partitioned per attempt from the channel-lifetime state machine, so
  // a path can come back within (and across) transfers.
  std::vector<topo::PathPlan> alive;
  std::vector<topo::PathPlan> active;
  std::vector<topo::PathPlan> probe_due;
  std::vector<std::string> dead_names;

  // Undelivered message segments (offsets relative to the transfer). The
  // initial segment is the whole message; a partially delivered path
  // contributes its undelivered suffix back to the queue.
  struct Seg {
    std::size_t off;
    std::uint64_t bytes;
  };
  util::SmallVec<Seg, 4> todo{Seg{0, bytes}};
  int replans = 0;
  double first_timeout = -1.0;
  // One plan across attempts: re-plans keep the first admission's ticket.
  Plan plan(scheduler_, spare_shares_);

  // With recovery off nothing is watched, so no attempt can time out and
  // the loop runs exactly once.
  while (!todo.empty()) {
    const PlanClock::time_point plan_t0 = PlanClock::now();
    const Seg seg = todo.back();
    todo.pop_back();
    // The plan sources in order: chain claim (first attempt only), cached
    // template, fresh planning. An unclaimable step (busy template, unhealthy
    // path, contended step, passthrough, or the chain just died) plans like
    // any other transfer.
    if (replans == 0 && pend.replay) {
      plan.graph = chain_->claim_step(pend, plan);
    }
    if (plan.graph != nullptr) {
      // Claimed chain step: no configuration to do.
    } else if (!rec.enabled && bytes < options_.min_multipath_bytes) {
      // No watchdog needs a prediction: a small message skips the model.
    } else {
      const std::vector<topo::PathPlan>& candidates =
          candidate_paths(sdev, ddev);
      const std::vector<topo::PathPlan>* pool =
          replans == 0 ? &candidates : &alive;
      if (use_health) {
        health_.partition(sdev, ddev, candidates, eng.now(), &active,
                          &probe_due);
        if (active.empty()) {
          // Nothing healthy. Plan over whatever is due a probe; if even
          // those are cooling down, force the full candidate set rather
          // than stall — the attempt stays bounded by max_replans.
          active = probe_due.empty() ? candidates : std::move(probe_due);
          probe_due.clear();
        }
        pool = &active;
      }
      // Small segments stay single-path (on the Direct survivor when
      // alive, else the first survivor): their watchdog still needs the
      // model's prediction.
      const bool multipath = seg.bytes >= options_.min_multipath_bytes;
      const std::span<const topo::PathPlan> use =
          multipath ? std::span<const topo::PathPlan>(*pool)
                    : small_segment_path(*pool);
      // Compiled fast path, first whole-message attempt only: replans have
      // shrunken candidate sets and partial segments, which a frozen
      // template cannot express. The lookup runs whenever the request shape
      // fits — plan_cached vetoes (and evicts) templates with any
      // non-healthy candidate, so a hit guarantees the health-partitioned
      // pool IS the full candidate set and no probe carving is pending.
      const bool whole = replans == 0 && multipath;
      if (!(whole && plan_cached(sdev, ddev, seg.bytes, candidates, plan))) {
        // Only a plan over the whole candidate set with no probe slices is
        // what a later identical transfer would pick: a template is keyed
        // under (and replays) the full-tuple plan only — a subset config
        // would compile an unfindable template.
        plan_fresh(sdev, ddev, seg.bytes, use, replans > 0,
                   whole && probe_due.empty() &&
                       pool->size() == candidates.size(),
                   plan);
      }
    }
    PathWatchList watch;
    bool probed = false;  // this attempt carries probe slices
    if (rec.enabled) {
      // Watchdog deadline: the model-predicted completion time of a share
      // times this attempt's slack, whose base factor escalates per re-plan
      // (bounded exponential backoff); with health tracking each path
      // compounds its own failure-streak multiplier on top.
      const double slack = escalated_slack(replans);
      const auto deadline = [&](const topo::PathPlan& p, double predicted) {
        const double mult =
            use_health ? health_.slack_multiplier(sdev, ddev, p) : 1.0;
        return PathWatch{std::max(kMinDeadlineS, slack * mult * predicted)};
      };
      watch.reserve(plan.config.paths.size());
      for (const model::PathShare& share : plan.config.paths) {
        watch.push_back(share.bytes > 0
                            ? deadline(share.plan, share.predicted_time)
                            : PathWatch{});
      }
      // Probe slices: paths on probation ride along with a small cut of
      // the anchor's share, appended to the config as shares of their own,
      // so outcome i is always share i. A probe that delivers readmits its
      // path into the planned set from the next attempt on; one that times
      // out only costs its own (floored) deadline, never the planned paths'
      // bytes. (Never reached on a replayed attempt: the replay gate
      // requires every template path healthy.)
      if (plan.graph == nullptr && use_health &&
          seg.bytes >= options_.min_multipath_bytes) {
        std::vector<model::PathShare>& shares = plan.config.paths;
        const std::uint64_t pb = health_.probe_bytes(seg.bytes);
        for (const topo::PathPlan& pp : probe_due) {
          // Keep the anchor meaningfully larger than what it donates.
          if (shares.front().bytes < 2 * pb) break;
          shares.front().bytes -= pb;
          // A single-path config puts all pb bytes on its one share.
          const model::TransferConfig probe_cfg =
              configurator_->compute_config(
                  sdev, ddev, pb, std::span<const topo::PathPlan>(&pp, 1));
          shares.push_back(probe_cfg.paths[0]);
          watch.push_back(deadline(pp, probe_cfg.predicted_time));
          probed = true;
          health_.on_probe_issued(sdev, ddev, pp);
        }
      }
    }
    graph_stats_.plan_ns += plan_ns_since(plan_t0);
    // Concurrent transfers interleave at the co_await: afterwards read this
    // transfer's own plan, never the configurator's cache.
    TransferOutcome out;
    if (plan.graph != nullptr) {
      out = co_await engine_->replay(std::move(plan.graph), dst,
                                     dst_offset + seg.off, src,
                                     src_offset + seg.off, watch);
    } else {
      // The sub-threshold shortcut planned no config: one direct share.
      const model::PathShare direct = direct_share(bytes);
      const std::span<const model::PathShare> shares =
          plan.config.paths.empty()
              ? std::span(&direct, 1)
              : std::span<const model::PathShare>(plan.config.paths);
      out = co_await engine_->execute(dst, dst_offset + seg.off, src,
                                      src_offset + seg.off, shares, watch);
    }
    if (out.complete) {
      if (todo.empty() && plan.ticket != TransferScheduler::kInvalidTicket) {
        const PlanClock::time_point depart_t0 = PlanClock::now();
        scheduler_->depart(
            std::exchange(plan.ticket, TransferScheduler::kInvalidTicket));
        graph_stats_.plan_ns += plan_ns_since(depart_t0);
      }
      if (replans == 0 && !probed && options_.recalibrator != nullptr &&
          !plan.config.paths.empty()) {
        // Feed (predicted, actual) back for online alpha/beta refinement.
        // Only a first attempt that ran its config as planned counts: one
        // that tripped a watchdog stalled on a fault (the health machine's
        // job, not drift), one that carried probe slices ran with its
        // anchor's share cut short, and the sub-threshold shortcut's direct
        // share is no model plan.
        options_.recalibrator->observe(sdev, ddev, plan.config,
                                       eng.now() - t0);
      }
      if (use_health) {
        for (const model::PathShare& share : plan.config.paths) {
          if (share.bytes > 0) health_.on_success(sdev, ddev, share.plan,
                                                  eng.now());
        }
      }
      continue;
    }

    if (first_timeout < 0.0) {
      first_timeout = eng.now();
      if (!use_health) alive = candidate_paths(sdev, ddev);
    }
    // Mark timed-out paths (dropped from `alive`, or demoted in the health
    // state machine) and queue the undelivered remainder of every slice —
    // including probe slices, whose bytes came out of the anchor's share.
    std::size_t path_off = seg.off;
    for (std::size_t i = 0; i < out.paths.size(); ++i) {
      const PathOutcome& po = out.paths[i];
      const topo::PathPlan dead = plan.config.paths[i].plan;
      if (po.timed_out) {
        ++stats_.path_timeouts;
        dead_names.push_back(
            topo::describe(dead, engine_->runtime().topology()));
        if (use_health) {
          health_.on_timeout(sdev, ddev, dead, eng.now());
        } else {
          std::erase_if(alive, [&dead](const topo::PathPlan& p) {
            return p.kind == dead.kind && p.stage == dead.stage;
          });
        }
      } else if (use_health && po.bytes > 0 &&
                 po.bytes_delivered >= po.bytes) {
        // Fully delivered its slice even though the transfer as a whole
        // needs a re-plan: that path is healthy (probes readmit here). A
        // slice cancelled mid-flight by the abort proves nothing and
        // changes no state.
        health_.on_success(sdev, ddev, dead, eng.now());
      }
      if (po.bytes_delivered < po.bytes) {
        todo.push_back(Seg{path_off + po.bytes_delivered,
                           po.bytes - po.bytes_delivered});
      }
      path_off += po.bytes;
    }
    ++replans;
    if ((!use_health && alive.empty()) || replans > rec.max_replans) {
      ++stats_.transfers_failed;
      std::uint64_t undelivered = 0;
      for (const Seg& s : todo) undelivered += s.bytes;
      std::string detail = "dead paths:";
      for (const std::string& n : dead_names) detail += " " + n;
      gpusim::TransferError::Info info;
      info.detail = detail;
      info.bytes_requested = bytes;
      info.bytes_delivered = bytes - static_cast<std::size_t>(undelivered);
      info.elapsed_s = eng.now() - t0;
      info.retries = replans;
      throw gpusim::TransferError(
          "ModelDrivenChannel: transfer failed (" + detail + "; " +
              std::to_string(info.bytes_delivered) + "/" +
              std::to_string(bytes) + " bytes delivered)",
          std::move(info));
    }
    ++stats_.replans;
  }
  if (first_timeout >= 0.0) {
    ++stats_.transfers_recovered;
    stats_.recovery_time_s += eng.now() - first_timeout;
  }
  if (pend.capture) {
    // Capture bookkeeping — the last leave seals the chain and compiles
    // every step's template, so this section carries the one-off capture
    // cost the steady-state claim path amortises away. A step compiles
    // only when GraphCache would compile the same plan; a re-plan leaves
    // the plan unreproducible.
    const PlanClock::time_point record_t0 = PlanClock::now();
    chain_->record_step(pend, plan.reproducible ? &plan.config : nullptr);
    graph_stats_.plan_ns += plan_ns_since(record_t0);
  }
}

ModelDrivenChannel::Gate ModelDrivenChannel::replay_gate(
    const TransferGraph& g, topo::DeviceId src, topo::DeviceId dst,
    std::uint64_t bytes, std::span<const topo::PathPlan> paths, Plan& plan) {
  // Templates are not reentrant (a replay's ops share the template's
  // events); a second identical transfer in flight takes the uncompiled
  // path.
  if (g.busy()) return Gate::kBusy;
  if (options_.health.enabled) {
    // A candidate on probation: the classic path would plan around it, so
    // the compiled split is stale.
    for (const topo::PathPlan& p : g.key_paths()) {
      if (health_.state(src, dst, p) != PathHealth::kHealthy) {
        return Gate::kUnhealthy;
      }
    }
  }
  if (scheduler_ == nullptr) {
    plan.config = g.config();
  } else {
    // Link capacities changed since compile (sever/degrade/restore): the
    // joint solve could pick a different split now.
    if (g.capacity_epoch() != scheduler_->stats().capacity_events) {
      return Gate::kStaleEpoch;
    }
    // An admitted replay skips the joint solve and plan construction
    // entirely.
    TransferScheduler::Admission adm =
        scheduler_->admit_replay(src, dst, bytes, paths, g.config());
    if (adm.ticket == TransferScheduler::kInvalidTicket) {
      return Gate::kContended;
    }
    plan.ticket = adm.ticket;
    plan.config = std::move(adm.config);
  }
  plan.reproducible = true;
  return Gate::kReplay;
}

bool ModelDrivenChannel::plan_cached(topo::DeviceId src, topo::DeviceId dst,
                                     std::uint64_t bytes,
                                     const std::vector<topo::PathPlan>& paths,
                                     Plan& plan) {
  if (options_.graphs == nullptr) return false;
  std::shared_ptr<TransferGraph> g =
      options_.graphs->lookup(src, dst, bytes, paths, graph_cal_version());
  if (g == nullptr) return false;
  switch (replay_gate(*g, src, dst, bytes, paths, plan)) {
    case Gate::kReplay:
      ++graph_stats_.replays;
      plan.graph = std::move(g);
      return true;
    case Gate::kBusy:
      ++graph_stats_.busy_fallbacks;
      return false;
    case Gate::kUnhealthy:
      // Drop the template; a healthy one is compiled once the path
      // recovers (or the split without it gets compiled fresh).
      ++graph_stats_.health_fallbacks;
      (void)options_.graphs->remove(src, dst, bytes, paths);
      return false;
    case Gate::kStaleEpoch:
      ++graph_stats_.epoch_fallbacks;  // recompile under the new capacities
      (void)options_.graphs->remove(src, dst, bytes, paths);
      return false;
    case Gate::kContended:
      ++graph_stats_.contended_rejects;
      return false;
  }
  return false;
}

void ModelDrivenChannel::plan_fresh(topo::DeviceId src, topo::DeviceId dst,
                                    std::uint64_t bytes,
                                    std::span<const topo::PathPlan> paths,
                                    bool replan, bool canonical, Plan& plan) {
  if (scheduler_ == nullptr) {
    // Solo configure, copied out of the configurator's cache into the
    // plan's spare vector: a clear_cache() or a recalibrated re-plan during
    // the transfer must not invalidate what it executes. A re-plan's
    // remainder is a request no later transfer makes, so it is computed
    // without being cached.
    if (replan) {
      plan.config = configurator_->compute_config(src, dst, bytes, paths);
    } else {
      plan.config = configurator_->configure_over(src, dst, bytes, paths);
    }
    plan.reproducible = canonical;  // deterministic given calibration
  } else if (!replan) {
    // Scheduler admission. An uncontended joint solve is the solo
    // configuration — reproducible; a contended one depends on the live
    // flows at this exact instant.
    TransferScheduler::Admission adm =
        scheduler_->admit(src, dst, bytes, paths);
    plan.ticket = adm.ticket;
    plan.config = std::move(adm.config);
    plan.reproducible = canonical && adm.uncontended;
  } else {
    // A recovery re-plan keeps the first admission's ticket.
    plan.config = scheduler_->replan(plan.ticket, bytes, paths);
    plan.reproducible = false;
  }
  // Only reproducible plans compile: a later lookup (and admit_replay) then
  // registers exactly what a fresh plan would.
  if (plan.reproducible && options_.graphs != nullptr) {
    plan.graph = compile_template(src, dst, plan.config);
  }
}

std::shared_ptr<TransferGraph> ModelDrivenChannel::compile_template(
    topo::DeviceId src, topo::DeviceId dst,
    const model::TransferConfig& config) {
  std::shared_ptr<TransferGraph> g =
      engine_->compile_graph(src, dst, config);
  ++graph_stats_.compiles;
  ++graph_stats_.replays_fresh;  // a fresh template runs right away
  if (scheduler_ != nullptr) {
    g->set_capacity_epoch(scheduler_->stats().capacity_events);
  }
  options_.graphs->insert(g, graph_cal_version());
  return g;
}

const char* static_plan_error(const StaticPlan& plan) {
  if (plan.empty()) return "empty plan";
  if (plan.front().plan.kind != topo::PathKind::Direct) {
    return "first path must be direct";
  }
  // Both fraction checks are written so that a NaN fails them.
  double sum = 0.0;
  for (const model::PathShare& share : plan) {
    if (!(share.theta >= 0.0)) return "fraction must be a number >= 0";
    if (share.chunks < 1) return "chunks must be >= 1";
    sum += share.theta;
  }
  if (!(std::abs(sum - 1.0) <= 1e-6)) return "fractions must sum to 1";
  return nullptr;
}

StaticPlanChannel::StaticPlanChannel(PipelineEngine& engine, StaticPlan plan)
    : engine_(&engine), plan_(std::move(plan)) {
  if (const char* error = static_plan_error(plan_)) {
    throw std::invalid_argument(std::string("StaticPlanChannel: ") + error);
  }
}

sim::Task<void> StaticPlanChannel::transfer(gpusim::DeviceBuffer& dst,
                                            std::size_t dst_offset,
                                            const gpusim::DeviceBuffer& src,
                                            std::size_t src_offset,
                                            std::size_t bytes) {
  if (bytes < kMinMultipathBytes) {
    const model::PathShare direct = direct_share(bytes);
    (void)co_await engine_->execute(dst, dst_offset, src, src_offset,
                                    std::span(&direct, 1));
    co_return;
  }
  util::SmallVec<model::PathShare, 4> shares(plan_);
  std::uint64_t assigned = 0;
  for (std::size_t i = 1; i < shares.size(); ++i) {
    shares[i].bytes = static_cast<std::uint64_t>(
        std::floor(shares[i].theta * static_cast<double>(bytes)));
    assigned += shares[i].bytes;
  }
  // The direct path absorbs the rounding remainder, as in Algorithm 1.
  shares[0].bytes = bytes - assigned;
  (void)co_await engine_->execute(dst, dst_offset, src, src_offset, shares);
}

}  // namespace mpath::pipeline
