#include "mpath/model/configurator.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>

#include "mpath/topo/paths.hpp"
#include "mpath/topo/topology.hpp"

namespace mpath::model {

/// Operating range used to fit global phi constants (Eq. 19) when
/// phi_per_message is false.
constexpr double kPhiFitNMin = 2.0 * (1 << 20);
constexpr double kPhiFitNMax = 512.0 * (1 << 20);
/// Contention factors are measured in the large-message regime; below
/// this size the per-hop composition is more faithful, so factors are
/// ignored.
constexpr std::uint64_t kOmegaOverrideMinBytes = 16u << 20;

PathConfigurator::PathConfigurator(const ModelRegistry& registry,
                                   ConfiguratorOptions options)
    : registry_(&registry), options_(options) {}

const TransferConfig& PathConfigurator::configure(
    topo::DeviceId src, topo::DeviceId dst, std::uint64_t bytes,
    std::span<const topo::PathPlan> paths) {
  if (!paths.empty() && paths.front().kind != topo::PathKind::Direct) {
    throw std::invalid_argument(
        "PathConfigurator: the direct path must be the first candidate");
  }
  return configure_over(src, dst, bytes, paths);
}

const TransferConfig& PathConfigurator::configure_over(
    topo::DeviceId src, topo::DeviceId dst, std::uint64_t bytes,
    std::span<const topo::PathPlan> paths) {
  if (paths.empty()) {
    throw std::invalid_argument("PathConfigurator: no candidate paths");
  }
  if (bytes == 0) {
    throw std::invalid_argument("PathConfigurator: zero-byte transfer");
  }
  const std::uint64_t cal_version =
      calibration_ != nullptr ? calibration_->version() : 0;
  if (const TransferConfig* hit =
          cache_.find(src, dst, bytes, paths, cal_version)) {
    return *hit;
  }
  return cache_.insert(src, dst, bytes, paths, cal_version,
                       compute_config(src, dst, bytes, paths));
}

std::vector<double> PathConfigurator::shared_edge_derates(
    topo::DeviceId src, topo::DeviceId dst,
    std::span<const topo::PathPlan> paths) const {
  const std::size_t p = paths.size();
  std::vector<double> derates(p, 1.0);
  if (topology_ == nullptr || p < 2) return derates;
  // Resolve every candidate's hop routes once, then count how many DISTINCT
  // candidates use each edge. An edge inside a single path (e.g. the DRAM
  // channel crossed by both hops of a host-staged path) is not shared in
  // this sense — intra-path contention is already the staged composition's
  // job; what per-path composition misses is two candidates streaming
  // concurrently over one link, which max-min arbitration then splits.
  std::vector<std::vector<std::vector<topo::EdgeId>>> routes;
  routes.reserve(p);
  for (const auto& plan : paths) {
    routes.push_back(topo::path_hop_routes(*topology_, src, dst, plan));
  }
  std::map<topo::EdgeId, std::pair<std::size_t, int>> users;  // last path, n
  for (std::size_t i = 0; i < p; ++i) {
    for (const auto& hop : routes[i]) {
      for (const topo::EdgeId e : hop) {
        auto [it, inserted] = users.try_emplace(e, i, 1);
        if (!inserted && it->second.first != i) {
          it->second = {i, it->second.second + 1};
        }
      }
    }
  }
  const std::span<const topo::Edge> edges = topology_->edges();
  for (std::size_t i = 0; i < p; ++i) {
    double solo_bottleneck = 0.0;    // min cap_e, links private
    double shared_bottleneck = 0.0;  // min cap_e / users_e, links split
    bool first = true;
    for (const auto& hop : routes[i]) {
      for (const topo::EdgeId e : hop) {
        const double cap = edges[e].capacity_bps;
        if (cap <= 0.0) continue;
        const double share = cap / static_cast<double>(users.at(e).second);
        if (first) {
          solo_bottleneck = cap;
          shared_bottleneck = share;
          first = false;
        } else {
          solo_bottleneck = std::min(solo_bottleneck, cap);
          shared_bottleneck = std::min(shared_bottleneck, share);
        }
      }
    }
    if (!first && shared_bottleneck < solo_bottleneck) {
      derates[i] = solo_bottleneck / shared_bottleneck;
    }
  }
  return derates;
}

PreparedTransfer PathConfigurator::prepare(
    topo::DeviceId src, topo::DeviceId dst, std::uint64_t bytes,
    std::span<const topo::PathPlan> paths) const {
  const double n = static_cast<double>(bytes);
  const std::size_t p = paths.size();

  PreparedTransfer out;
  // Lines 7-15: resolve link parameters for every candidate path, then
  // overlay any learned per-path calibration. Paths with no snapshot entry
  // are left untouched (no arithmetic at all), so a detached or empty
  // store keeps this bit-identical to the offline-calibrated model.
  // The shared pointer keeps the snapshot alive for the duration of this
  // call even if a publication retires it meanwhile.
  const CalibrationStore::SnapshotPtr snap =
      calibration_ != nullptr ? calibration_->snapshot() : nullptr;
  const CalibrationSnapshot* cal = snap.get();
  out.params.reserve(p);
  for (const auto& plan : paths) {
    PathParams pp = registry_->path_params(src, dst, plan);
    if (cal != nullptr) {
      if (const PathCalibration* c = cal->find(src, dst, plan)) {
        pp.first.alpha *= c->alpha_scale;
        pp.first.beta *= c->beta_scale;
        if (pp.second) {
          pp.second->alpha *= c->alpha_scale;
          pp.second->beta *= c->beta_scale;
        }
      }
    }
    out.params.push_back(std::move(pp));
  }

  // Line 19: topology constants; lines 16-21: per-path (Omega, Delta).
  out.phis.resize(p);
  out.terms.resize(p);
  // Shared-edge composition (requires an attached topology): candidates
  // whose hop routes meet on one fluid edge — a transit-routed direct path
  // and a staged copy crossing the same link of a parallel duplicate pair —
  // each see only their max-min share of that edge, not the full capacity
  // the per-path bottleneck assumes.
  const std::vector<double> derates = shared_edge_derates(src, dst, paths);
  const double theta_hint = 1.0 / static_cast<double>(p);
  for (std::size_t i = 0; i < p; ++i) {
    if (options_.pipelining) {
      const double fit_lo = options_.phi_per_message ? n : kPhiFitNMin;
      const double fit_hi = options_.phi_per_message ? n : kPhiFitNMax;
      out.phis[i] =
          PhiFitter::fit_for_path(out.params[i], fit_lo, fit_hi, theta_hint);
      out.terms[i] = terms_pipelined(out.params[i], out.phis[i]);
    } else {
      out.terms[i] = terms_unpipelined(out.params[i]);
    }
    // Contention-aware extension: derate this path's effective bandwidth
    // by the measured intra-path contention factor (>= 1). Applied only in
    // the large-message regime where the factor was measured.
    if (bytes >= kOmegaOverrideMinBytes) {
      if (const auto f = registry_->contention_factor(src, dst, paths[i])) {
        out.terms[i].omega *= *f;
      }
    }
    // Structural (topology-derived) cross-path sharing applies at every
    // message size: the arbitration split exists as soon as both paths
    // stream, unlike the measured large-message contention factors above.
    if (derates[i] > 1.0) {
      out.terms[i].omega *= derates[i];
    }
    // Per-message protocol prefix (rendezvous, ack): paid before any path
    // moves data, so it shifts every path's Delta equally.
    out.terms[i].delta += registry_->protocol_alpha();
    // Line 18: paths are initiated sequentially by the host; later paths
    // inherit the accumulated issue latency of earlier ones.
    out.terms[i].delta += static_cast<double>(i) * registry_->issue_alpha();
  }
  return out;
}

TransferConfig PathConfigurator::compute_config(
    topo::DeviceId src, topo::DeviceId dst, std::uint64_t bytes,
    std::span<const topo::PathPlan> paths) const {
  const PreparedTransfer prepared = prepare(src, dst, bytes, paths);
  // Lines 22-26: closed-form theta over the (possibly reduced) active set.
  const ThetaSolution sol =
      ThetaSolver::solve(prepared.terms, static_cast<double>(bytes));
  return config_from_theta(prepared, bytes, paths, sol);
}

TransferConfig PathConfigurator::config_from_theta(
    const PreparedTransfer& prepared, std::uint64_t bytes,
    std::span<const topo::PathPlan> paths, const ThetaSolution& sol) const {
  const double n = static_cast<double>(bytes);
  const std::size_t p = paths.size();
  const std::vector<PathParams>& params = prepared.params;
  const std::vector<PhiConstants>& phis = prepared.phis;
  const std::vector<PathTerms>& terms = prepared.terms;

  TransferConfig config;
  config.total_bytes = bytes;
  config.paths.resize(p);

  // Lines 25 + 27-29: integer byte shares; any rounding remainder goes to
  // the anchor (first) path.
  std::uint64_t assigned = 0;
  for (std::size_t i = 0; i < p; ++i) {
    PathShare& share = config.paths[i];
    share.plan = paths[i];
    share.terms = terms[i];
    share.theta = sol.theta[i];
    if (i != 0) {
      share.bytes = static_cast<std::uint64_t>(
          std::floor(sol.theta[i] * n));
      assigned += share.bytes;
    }
  }
  config.paths[0].bytes = bytes - assigned;
  // Refresh theta of the direct path after remainder assignment.
  config.paths[0].theta =
      static_cast<double>(config.paths[0].bytes) / n;

  // Chunk counts (line 20) for the final shares.
  for (std::size_t i = 0; i < p; ++i) {
    PathShare& share = config.paths[i];
    if (share.bytes == 0 || !params[i].staged() || !options_.pipelining) {
      share.chunks = 1;
    } else {
      const double k =
          options_.chunk_mode == ChunkMode::ExactSqrt
              ? ChunkOptimizer::exact_chunks(params[i], share.theta, n)
              : ChunkOptimizer::linear_chunks(params[i], phis[i],
                                              share.theta, n);
      share.chunks = ChunkOptimizer::clamp_chunks(k, kMaxChunks);
    }
    share.predicted_time =
        share.bytes > 0 ? terms[i].time(share.theta, n) : 0.0;
    config.predicted_time =
        std::max(config.predicted_time, share.predicted_time);
  }
  return config;
}

}  // namespace mpath::model
