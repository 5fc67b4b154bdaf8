#include "mpath/sim/fault.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "mpath/sim/trace.hpp"
#include "mpath/util/rng.hpp"

namespace mpath::sim {

/// Target-selection weight of a fully idle link in random plans, relative
/// to the utilization term allocated/capacity.
constexpr double kIdleWeight = 0.25;

double FaultInjector::capture_baseline(LinkId link) {
  const auto it = baseline_.find(link);
  if (it != baseline_.end()) return it->second;
  const double cap = net_->link(link).capacity_bps;  // validates the id
  baseline_.emplace(link, cap);
  return cap;
}

double FaultInjector::baseline(LinkId link) const {
  const auto it = baseline_.find(link);
  if (it != baseline_.end()) return it->second;
  return net_->link(link).capacity_bps;
}

void FaultInjector::schedule(Time t, LinkId link, double bps) {
  if (t < engine_->now()) {
    throw std::invalid_argument("FaultInjector: event time is in the past");
  }
  if (!(std::isfinite(bps) && bps >= 0.0)) {  // NaN fails too
    throw std::invalid_argument("FaultInjector: capacity of " +
                                net_->link(link).name +
                                " must be finite and >= 0");
  }
  ++scheduled_;
  engine_->schedule_callback(t, [this, link, bps] {
    net_->set_link_capacity(link, bps);
    applied_.push_back(Applied{engine_->now(), link, bps});
    if (tracer_ != nullptr) {
      tracer_->add_instant("faults",
                           net_->link(link).name + " -> " +
                               std::to_string(bps) + " B/s",
                           engine_->now());
    }
  });
}

void FaultInjector::set_capacity_at(Time t, LinkId link, double bps) {
  capture_baseline(link);
  schedule(t, link, bps);
}

void FaultInjector::degrade_at(Time t, LinkId link, double factor) {
  if (!(std::isfinite(factor) && factor >= 0.0)) {  // NaN fails too
    throw std::invalid_argument("FaultInjector: degrade factor of " +
                                net_->link(link).name +
                                " must be finite and >= 0");
  }
  schedule(t, link, capture_baseline(link) * factor);
}

void FaultInjector::sever_at(Time t, LinkId link) { degrade_at(t, link, 0.0); }

void FaultInjector::restore_at(Time t, LinkId link) {
  schedule(t, link, capture_baseline(link));
}

void FaultInjector::flap(LinkId link, Time first_down, Time down_for,
                         Time up_for, int cycles) {
  if (down_for <= 0.0 || up_for <= 0.0) {
    throw std::invalid_argument("FaultInjector: flap periods must be > 0");
  }
  Time t = first_down;
  for (int c = 0; c < cycles; ++c) {
    sever_at(t, link);
    restore_at(t + down_for, link);
    t += down_for + up_for;
  }
}

void FaultInjector::random_plan(std::span<const LinkId> links,
                                const RandomPlanOptions& opts,
                                std::uint64_t seed) {
  if (links.empty()) {
    throw std::invalid_argument("FaultInjector: random plan needs links");
  }
  if (!(std::isfinite(opts.max_factor) && opts.min_factor >= 0.0 &&
        opts.max_factor >= opts.min_factor)) {
    throw std::invalid_argument("FaultInjector: bad degrade factor range");
  }
  if (opts.min_duration < 0.0 || opts.max_duration < opts.min_duration) {
    throw std::invalid_argument("FaultInjector: bad restore duration range");
  }
  for (LinkId l : links) capture_baseline(l);  // validates ids at call time
  // Fault *times* are fixed up front by the seed, but each fault's *target*
  // is drawn only when it fires, weighted by the links' utilization
  // (allocated/capacity) at that instant plus a floor of kIdleWeight — so
  // soaks preferentially stress the links actually carrying traffic while
  // idle links stay reachable. The RNG is shared across the plan's
  // callbacks and consumed in deterministic event order, so one seed still
  // yields one schedule.
  // The plan state is bundled behind one shared_ptr so each fault callback
  // captures {this, ctx} and stays inside EventFn's inline-storage budget.
  struct PlanCtx {
    util::Rng rng;
    std::vector<LinkId> targets;
    RandomPlanOptions opts;
    std::vector<double> cumulative;  // scratch, reused across faults
  };
  auto ctx = std::make_shared<PlanCtx>(
      PlanCtx{util::Rng(seed),
              std::vector<LinkId>(links.begin(), links.end()), opts, {}});
  for (int i = 0; i < opts.faults; ++i) {
    const Time t = opts.start + ctx->rng.uniform(0.0, opts.horizon);
    if (t < engine_->now()) {
      throw std::invalid_argument("FaultInjector: event time is in the past");
    }
    engine_->schedule_callback(t, [this, ctx] {
      double total = 0.0;
      ctx->cumulative.clear();
      ctx->cumulative.reserve(ctx->targets.size());
      for (LinkId l : ctx->targets) {
        const double cap = net_->link(l).capacity_bps;
        const double util =
            cap > 0.0 ? net_->link_allocated_rate(l) / cap : 0.0;
        total += kIdleWeight + util;
        ctx->cumulative.push_back(total);
      }
      const double draw = ctx->rng.uniform(0.0, total);
      std::size_t pick = static_cast<std::size_t>(
          std::lower_bound(ctx->cumulative.begin(), ctx->cumulative.end(),
                           draw) -
          ctx->cumulative.begin());
      if (pick >= ctx->targets.size()) pick = ctx->targets.size() - 1;
      const LinkId link = ctx->targets[pick];
      const bool sever =
          ctx->rng.uniform(0.0, 1.0) < ctx->opts.sever_probability;
      const double factor =
          sever ? 0.0
                : ctx->rng.uniform(ctx->opts.min_factor, ctx->opts.max_factor);
      degrade_at(engine_->now(), link, factor);
      if (ctx->rng.uniform(0.0, 1.0) < ctx->opts.restore_probability) {
        restore_at(engine_->now() + ctx->rng.uniform(ctx->opts.min_duration,
                                                     ctx->opts.max_duration),
                   link);
      }
    });
  }
}

}  // namespace mpath::sim
