#include "mpath/pipeline/health.hpp"

#include <algorithm>
#include <stdexcept>

namespace mpath::pipeline {

HealthOptions PathHealthManager::validated(const HealthOptions& options) {
  if (!(options.dead_cooldown_s >= 0.0)) {
    throw std::invalid_argument(
        "PathHealthManager: dead_cooldown_s must be >= 0");
  }
  if (!(options.dead_cooldown_s <= kMaxCooldownS)) {
    throw std::invalid_argument(
        "PathHealthManager: dead_cooldown_s must be <= kMaxCooldownS");
  }
  return options;
}

void PathHealthManager::partition(topo::DeviceId src, topo::DeviceId dst,
                                  const std::vector<topo::PathPlan>& candidates,
                                  double now,
                                  std::vector<topo::PathPlan>* active,
                                  std::vector<topo::PathPlan>* probes) const {
  active->clear();
  probes->clear();
  for (const topo::PathPlan& plan : candidates) {
    const auto it = entries_.find(key_of(src, dst, plan));
    if (it == entries_.end()) {
      active->push_back(plan);
    } else if (now >= it->second.next_probe_t) {
      probes->push_back(plan);
    }
    // Unhealthy and not yet due: excluded from this transfer entirely.
  }
}

void PathHealthManager::on_probe_issued(topo::DeviceId src,
                                        topo::DeviceId dst,
                                        const topo::PathPlan& plan) {
  Entry& e = entries_[key_of(src, dst, plan)];
  e.state = PathHealth::kProbation;
  ++stats_.probes_launched;
}

void PathHealthManager::on_timeout(topo::DeviceId src, topo::DeviceId dst,
                                   const topo::PathPlan& plan, double now) {
  ++stats_.timeouts;
  Entry& e = entries_[key_of(src, dst, plan)];
  if (e.state == PathHealth::kProbation) ++stats_.probes_failed;
  ++e.fail_streak;
  e.slack_mult = std::min(e.slack_mult * kHealthBackoff, kMaxPathSlackFactor);
  if (e.fail_streak >= kDeadAfter) {
    if (e.state != PathHealth::kDead) ++stats_.deaths;
    e.state = PathHealth::kDead;
    // Exponential readmission cooldown: first death waits dead_cooldown_s,
    // each further failed readmission probe doubles it (bounded).
    e.cooldown_s = e.cooldown_s <= 0.0
                       ? options_.dead_cooldown_s
                       : std::min(e.cooldown_s * kHealthBackoff, kMaxCooldownS);
    e.next_probe_t = now + e.cooldown_s;
  } else {
    e.state = PathHealth::kSuspect;
    e.next_probe_t = now;  // due a probe at the next partition
  }
}

void PathHealthManager::on_success(topo::DeviceId src, topo::DeviceId dst,
                                   const topo::PathPlan& plan,
                                   double /*now*/) {
  const auto it = entries_.find(key_of(src, dst, plan));
  if (it == entries_.end()) return;
  if (it->second.state == PathHealth::kProbation) {
    // A probe slice delivered: the readmission mechanism worked.
    ++stats_.probes_succeeded;
    ++stats_.readmissions;
  } else {
    // A merely-suspect (or force-included dead) path delivered a regular
    // share before any probe was issued. It clears its tracked state, but
    // no probe proved anything — counting it as a readmission would
    // overstate the probation machinery.
    ++stats_.suspect_clears;
  }
  // Back to pristine healthy: streak, slack escalation and cooldown all
  // reset — a readmitted path is trusted like any other.
  entries_.erase(it);
}

double PathHealthManager::slack_multiplier(topo::DeviceId src,
                                           topo::DeviceId dst,
                                           const topo::PathPlan& plan) const {
  const auto it = entries_.find(key_of(src, dst, plan));
  return it != entries_.end() ? it->second.slack_mult : 1.0;
}

std::uint64_t PathHealthManager::probe_bytes(std::uint64_t total) const {
  const auto want = static_cast<std::uint64_t>(
      kProbeFraction * static_cast<double>(total));
  return std::min(total, std::clamp(want, kMinProbeBytes, kMaxProbeBytes));
}

PathHealth PathHealthManager::state(topo::DeviceId src, topo::DeviceId dst,
                                    const topo::PathPlan& plan) const {
  const auto it = entries_.find(key_of(src, dst, plan));
  return it != entries_.end() ? it->second.state : PathHealth::kHealthy;
}

}  // namespace mpath::pipeline
