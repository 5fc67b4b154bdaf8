#include "mpath/model/theta.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace mpath::model {

ThetaSolution ThetaSolver::solve(std::span<const PathTerms> paths,
                                 double n_bytes) {
  if (paths.empty()) {
    throw std::invalid_argument("ThetaSolver: no paths");
  }
  if (n_bytes <= 0.0) {
    throw std::invalid_argument("ThetaSolver: message size must be positive");
  }
  for (const PathTerms& p : paths) {
    if (p.omega <= 0.0) {
      throw std::invalid_argument("ThetaSolver: Omega must be positive");
    }
  }

  std::vector<std::size_t> active(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) active[i] = i;

  ThetaSolution sol;
  sol.theta.assign(paths.size(), 0.0);

  while (true) {
    // Closed form Eq. 24 on the active set.
    double inv_sum = 0.0;   // S = sum 1/Omega
    double delta_sum = 0.0; // D = sum Delta/Omega
    for (std::size_t i : active) {
      inv_sum += 1.0 / paths[i].omega;
      delta_sum += paths[i].delta / paths[i].omega;
    }
    double most_negative = 0.0;
    std::size_t drop_pos = active.size();
    for (std::size_t pos = 0; pos < active.size(); ++pos) {
      const std::size_t i = active[pos];
      const double theta_i =
          (1.0 - paths[i].delta / n_bytes * inv_sum + delta_sum / n_bytes) /
          (paths[i].omega * inv_sum);
      sol.theta[i] = theta_i;
      // The direct path (index 0) is never excluded (Algorithm 1).
      if (i != 0 && theta_i < most_negative) {
        most_negative = theta_i;
        drop_pos = pos;
      }
    }
    if (drop_pos == active.size()) break;
    sol.theta[active[drop_pos]] = 0.0;
    active.erase(active.begin() + static_cast<std::ptrdiff_t>(drop_pos));
    if (active.size() == 1) {
      // Only the direct path remains.
      std::fill(sol.theta.begin(), sol.theta.end(), 0.0);
      sol.theta[active[0]] = 1.0;
      break;
    }
  }

  // Numerical cleanup: clamp dust, then hand any leftover share to the
  // direct path (index 0) only, per Algorithm 1. Renormalizing *all*
  // shares would scale every staged path's n·θ·Ω term while leaving its Δ
  // fixed, silently moving the solution off the equal-time point whenever
  // clamping removed mass; adjusting only θ₀ keeps the staged shares at
  // their closed-form equal-time values.
  double total = 0.0;
  for (double& t : sol.theta) {
    if (t < 0.0) t = 0.0;
    total += t;
  }
  if (total <= 0.0) {
    sol.theta[0] = 1.0;
  } else if (sol.theta[0] + (1.0 - total) >= 0.0) {
    sol.theta[0] += 1.0 - total;
  } else {
    // Degenerate: the direct path's share cannot absorb the deficit (its
    // own closed-form θ₀ was negative). Fall back to renormalization so
    // the result is at least a valid distribution.
    for (double& t : sol.theta) t /= total;
  }

  sol.active.clear();
  for (std::size_t i = 0; i < sol.theta.size(); ++i) {
    if (sol.theta[i] > 0.0) sol.active.push_back(i);
  }
  sol.predicted_time = evaluate(paths, sol.theta, n_bytes);
  return sol;
}

double ThetaSolver::evaluate(std::span<const PathTerms> paths,
                             std::span<const double> theta, double n_bytes) {
  if (paths.size() != theta.size()) {
    throw std::invalid_argument("ThetaSolver::evaluate: size mismatch");
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (theta[i] <= 0.0) continue;  // unused path costs nothing
    worst = std::max(worst, paths[i].time(theta[i], n_bytes));
  }
  return worst;
}

std::span<const double> JointThetaSolver::maxmin_rates(
    std::span<const FixedFlow* const> flows, std::span<const JointLink> links) {
  const std::size_t nl = links.size();
  const std::size_t nf = flows.size();
  // Per-flow rate caps are modeled as one private virtual link per flow
  // (capacity = cap, one traversal); the water-fill then only ever reasons
  // about links. Virtual links live at indices [nl, nl + nf).
  residual_.resize(nl + nf);
  unfrozen_.resize(nl + nf);
  share_.resize(nl + nf);
  background_.resize(nl);
  member_begin_.assign(nl + 1, 0);
  for (std::size_t l = 0; l < nl; ++l) {
    if (links[l].capacity_bps <= 0.0) {
      throw std::invalid_argument(
          "JointThetaSolver: link capacity must be positive");
    }
    if (links[l].background_flows < 0.0) {
      throw std::invalid_argument(
          "JointThetaSolver: negative background flows");
    }
    residual_[l] = links[l].capacity_bps;
    background_[l] = links[l].background_flows;
    unfrozen_[l] = background_[l];
  }
  for (std::size_t f = 0; f < nf; ++f) {
    if (flows[f]->cap_bps <= 0.0) {
      throw std::invalid_argument("JointThetaSolver: flow cap must be positive");
    }
    for (std::uint32_t l : flows[f]->links) {
      if (l >= nl) {
        throw std::invalid_argument("JointThetaSolver: link index out of range");
      }
      unfrozen_[l] += 1.0;
      ++member_begin_[l + 1];
    }
    residual_[nl + f] = flows[f]->cap_bps;
    unfrozen_[nl + f] = 1.0;
  }
  // Member lists, filled in flow order so each link's list is ascending:
  // freezing a bottleneck's members then subtracts from every residual in
  // the same order as a scan over all flows would.
  for (std::size_t l = 0; l < nl; ++l) member_begin_[l + 1] += member_begin_[l];
  member_fill_.assign(member_begin_.begin(), member_begin_.end() - 1);
  members_.resize(member_begin_[nl]);
  for (std::size_t f = 0; f < nf; ++f) {
    for (std::uint32_t l : flows[f]->links) {
      members_[member_fill_[l]++] = static_cast<std::uint32_t>(f);
    }
  }
  candidates_.clear();
  for (std::size_t l = 0; l < nl + nf; ++l) {
    if (unfrozen_[l] <= 0.0) continue;
    share_[l] = residual_[l] / unfrozen_[l];
    candidates_.push_back(static_cast<std::uint32_t>(l));
  }

  rates_.assign(nf, 0.0);
  frozen_.assign(nf, 0);
  std::size_t left = nf;
  const auto freeze = [&](std::size_t f, double share) {
    frozen_[f] = 1;
    rates_[f] = share;
    for (std::uint32_t l : flows[f]->links) {
      residual_[l] -= share;
      unfrozen_[l] -= 1.0;
      share_[l] = residual_[l] / unfrozen_[l];
    }
    residual_[nl + f] -= share;
    unfrozen_[nl + f] -= 1.0;
    --left;
  };
  while (left > 0) {
    // Bottleneck link: smallest fair share, ties to the lowest index (the
    // same scan order as FluidNetwork::reference_rates, so cap-free inputs
    // agree with the fluid oracle bit for bit). Links whose weight is all
    // frozen leave the candidate list for good; the rest keep their order.
    double best_share = std::numeric_limits<double>::infinity();
    std::size_t best = nl + nf;
    std::size_t kept = 0;
    for (const std::uint32_t l : candidates_) {
      if (unfrozen_[l] <= 0.0) continue;
      candidates_[kept++] = l;
      if (share_[l] < best_share) {
        best_share = share_[l];
        best = l;
      }
    }
    candidates_.resize(kept);
    if (best == nl + nf) break;  // only frozen weight left
    best_share = std::max(best_share, 0.0);
    if (best >= nl) {
      freeze(best - nl, best_share);
      continue;
    }
    for (std::uint32_t m = member_begin_[best]; m < member_begin_[best + 1];
         ++m) {
      const std::uint32_t f = members_[m];
      if (frozen_[f]) continue;  // a repeated traversal, or frozen earlier
      freeze(f, best_share);
    }
    if (background_[best] > 0.0) {
      // The link's background flows freeze at the same share; they traverse
      // only this link, so their whole footprint settles here.
      residual_[best] -= best_share * background_[best];
      unfrozen_[best] -= background_[best];
      background_[best] = 0.0;
      share_[best] = residual_[best] / unfrozen_[best];
    }
    // All of the link's weight is frozen now. A non-dyadic background
    // (say 0.3) can leave a rounding residue in unfrozen_ instead of 0,
    // which would keep the link a candidate with nothing left to freeze.
    unfrozen_[best] = 0.0;
  }
  return rates_;
}

JointSolution JointThetaSolver::solve(std::span<const JointTransfer> transfers,
                                      std::span<const FixedFlow* const> fixed,
                                      std::span<const JointLink> links) {
  std::size_t total_paths = 0;
  for (const JointTransfer& t : transfers) {
    if (t.paths.empty()) {
      throw std::invalid_argument("JointThetaSolver: transfer with no paths");
    }
    if (t.n_bytes <= 0.0) {
      throw std::invalid_argument(
          "JointThetaSolver: message size must be positive");
    }
    for (const JointPath& p : t.paths) {
      if (p.terms.omega <= 0.0) {
        throw std::invalid_argument("JointThetaSolver: Omega must be positive");
      }
    }
    total_paths += t.paths.size();
  }

  JointSolution sol;
  sol.transfers.resize(transfers.size());
  sol.path_rates.resize(transfers.size());

  // Active set per (transfer, path): starts full, shrinks monotonically as
  // per-transfer solves exclude paths (mirroring Algorithm 1's drop-only
  // exclusion), so the loop converges in at most total_paths + 1 rounds.
  // Every candidate path water-fills as a flow capped at its solo
  // bandwidth 1/Omega.
  active_.resize(transfers.size());
  path_flows_.resize(total_paths);
  std::size_t flow_index = 0;
  for (std::size_t k = 0; k < transfers.size(); ++k) {
    active_[k].clear();
    for (const JointPath& p : transfers[k].paths) {
      active_[k].push_back(1);
      FixedFlow& f = path_flows_[flow_index++];
      f.links = p.links;
      f.cap_bps = 1.0 / p.terms.omega;
    }
  }

  const int max_rounds = static_cast<int>(total_paths) + 1;
  std::span<const double> rates;
  for (int round = 0; round < max_rounds; ++round) {
    ++sol.iterations;
    // 1. Water-fill: fixed flows first, then every active candidate path.
    round_flows_.assign(fixed.begin(), fixed.end());
    flow_index = 0;
    for (std::size_t k = 0; k < transfers.size(); ++k) {
      for (std::size_t i = 0; i < transfers[k].paths.size(); ++i) {
        if (active_[k][i]) round_flows_.push_back(&path_flows_[flow_index]);
        ++flow_index;
      }
    }
    rates = maxmin_rates(round_flows_, links);

    // 2. Per-transfer equal-time solve with the water-filled effective
    //    inverse bandwidths.
    bool changed = false;
    std::size_t cursor = fixed.size();
    for (std::size_t k = 0; k < transfers.size(); ++k) {
      const JointTransfer& t = transfers[k];
      reduced_.clear();
      reduced_idx_.clear();
      sol.path_rates[k].clear();
      sol.path_rates[k].resize(t.paths.size());
      for (std::size_t i = 0; i < t.paths.size(); ++i) {
        if (!active_[k][i]) continue;
        const double cap = 1.0 / t.paths[i].terms.omega;
        const double rate = rates[cursor++];
        sol.path_rates[k][i] = rate;
        PathTerms eff = t.paths[i].terms;
        // Uncontended paths keep their solo Omega verbatim (not the
        // double-rounded 1/(1/Omega)), so K=1 reproduces Eq. 24 exactly.
        if (rate < cap && rate > 0.0) eff.omega = 1.0 / rate;
        reduced_.push_back(eff);
        reduced_idx_.push_back(i);
      }
      const ThetaSolution rsol = ThetaSolver::solve(reduced_, t.n_bytes);
      ThetaSolution& out = sol.transfers[k];
      out.theta.assign(t.paths.size(), 0.0);
      out.active.clear();
      out.predicted_time = rsol.predicted_time;
      for (std::size_t j = 0; j < reduced_idx_.size(); ++j) {
        const std::size_t i = reduced_idx_[j];
        out.theta[i] = rsol.theta[j];
        if (rsol.theta[j] > 0.0) {
          out.active.push_back(i);
        } else if (i != 0 && active_[k][i]) {
          // Excluded under contention: the path frees its link shares for
          // everyone else. The anchor (index 0) is never dropped.
          active_[k][i] = 0;
          changed = true;
        }
        if (rsol.theta[j] <= 0.0) sol.path_rates[k][i] = 0.0;
      }
    }
    if (!changed) break;
  }
  sol.fixed_rates.assign(rates.begin(),
                         rates.begin() + static_cast<std::ptrdiff_t>(
                                             fixed.size()));
  return sol;
}

double ThetaSolver::time_spread(std::span<const PathTerms> paths,
                                std::span<const double> theta,
                                double n_bytes) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  bool any = false;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (theta[i] <= 0.0) continue;
    const double t = paths[i].time(theta[i], n_bytes);
    lo = std::min(lo, t);
    hi = std::max(hi, t);
    any = true;
  }
  return any ? hi - lo : 0.0;
}

}  // namespace mpath::model
