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

std::vector<double> JointThetaSolver::maxmin_rates(
    std::span<const FixedFlow> flows, std::span<const JointLink> links) {
  const std::size_t nl = links.size();
  const std::size_t nf = flows.size();
  // Per-flow rate caps are modeled as one private virtual link per flow
  // (capacity = cap, one traversal); the water-fill then only ever reasons
  // about links. Virtual links live at indices [nl, nl + nf).
  std::vector<double> residual(nl + nf);
  std::vector<double> unfrozen(nl + nf, 0.0);
  std::vector<double> background(nl, 0.0);
  for (std::size_t l = 0; l < nl; ++l) {
    if (links[l].capacity_bps <= 0.0) {
      throw std::invalid_argument(
          "JointThetaSolver: link capacity must be positive");
    }
    if (links[l].background_flows < 0.0) {
      throw std::invalid_argument(
          "JointThetaSolver: negative background flows");
    }
    residual[l] = links[l].capacity_bps;
    background[l] = links[l].background_flows;
    unfrozen[l] = background[l];
  }
  for (std::size_t f = 0; f < nf; ++f) {
    if (flows[f].cap_bps <= 0.0) {
      throw std::invalid_argument("JointThetaSolver: flow cap must be positive");
    }
    for (std::uint32_t l : flows[f].links) {
      if (l >= nl) {
        throw std::invalid_argument("JointThetaSolver: link index out of range");
      }
      unfrozen[l] += 1.0;
    }
    residual[nl + f] = flows[f].cap_bps;
    unfrozen[nl + f] = 1.0;
  }

  std::vector<double> rates(nf, 0.0);
  std::vector<char> frozen(nf, 0);
  std::size_t left = nf;
  while (left > 0) {
    // Bottleneck link: smallest fair share, ties to the lowest index (the
    // same scan order as FluidNetwork::reference_rates, so cap-free inputs
    // agree with the fluid oracle bit for bit).
    double best_share = std::numeric_limits<double>::infinity();
    std::size_t best = residual.size();
    for (std::size_t l = 0; l < residual.size(); ++l) {
      if (unfrozen[l] <= 0.0) continue;
      const double share = residual[l] / unfrozen[l];
      if (share < best_share) {
        best_share = share;
        best = l;
      }
    }
    if (best == residual.size()) break;  // only frozen weight left
    best_share = std::max(best_share, 0.0);
    for (std::size_t f = 0; f < nf; ++f) {
      if (frozen[f]) continue;
      const bool crosses =
          (best == nl + f) ||
          (best < nl &&
           std::find(flows[f].links.begin(), flows[f].links.end(),
                     static_cast<std::uint32_t>(best)) != flows[f].links.end());
      if (!crosses) continue;
      frozen[f] = 1;
      rates[f] = best_share;
      for (std::uint32_t l : flows[f].links) {
        residual[l] -= best_share;
        unfrozen[l] -= 1.0;
      }
      residual[nl + f] -= best_share;
      unfrozen[nl + f] -= 1.0;
      --left;
    }
    if (best < nl && background[best] > 0.0) {
      // The link's background flows freeze at the same share; they traverse
      // only this link, so their whole footprint settles here.
      residual[best] -= best_share * background[best];
      unfrozen[best] -= background[best];
      background[best] = 0.0;
    }
  }
  return rates;
}

JointSolution JointThetaSolver::solve(std::span<const JointTransfer> transfers,
                                      std::span<const FixedFlow> fixed,
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
  std::vector<util::SmallVec<char, 4>> active(transfers.size());
  for (std::size_t k = 0; k < transfers.size(); ++k) {
    active[k].resize(transfers[k].paths.size());
    for (char& a : active[k]) a = 1;
  }

  std::vector<FixedFlow> flows(fixed.begin(), fixed.end());
  std::vector<PathTerms> reduced;
  std::vector<std::size_t> reduced_idx;
  const int max_rounds = static_cast<int>(total_paths) + 1;
  std::vector<double> rates;
  for (int round = 0; round < max_rounds; ++round) {
    ++sol.iterations;
    // 1. Water-fill: fixed flows first, then every active candidate path
    //    (capped at its solo bandwidth 1/Omega).
    flows.resize(fixed.size());
    for (std::size_t k = 0; k < transfers.size(); ++k) {
      for (std::size_t i = 0; i < transfers[k].paths.size(); ++i) {
        if (!active[k][i]) continue;
        FixedFlow f;
        f.links = transfers[k].paths[i].links;
        f.cap_bps = 1.0 / transfers[k].paths[i].terms.omega;
        flows.push_back(std::move(f));
      }
    }
    rates = maxmin_rates(flows, links);

    // 2. Per-transfer equal-time solve with the water-filled effective
    //    inverse bandwidths.
    bool changed = false;
    std::size_t cursor = fixed.size();
    for (std::size_t k = 0; k < transfers.size(); ++k) {
      const JointTransfer& t = transfers[k];
      reduced.clear();
      reduced_idx.clear();
      sol.path_rates[k].clear();
      sol.path_rates[k].resize(t.paths.size());
      for (std::size_t i = 0; i < t.paths.size(); ++i) {
        if (!active[k][i]) continue;
        const double cap = 1.0 / t.paths[i].terms.omega;
        const double rate = rates[cursor++];
        sol.path_rates[k][i] = rate;
        PathTerms eff = t.paths[i].terms;
        // Uncontended paths keep their solo Omega verbatim (not the
        // double-rounded 1/(1/Omega)), so K=1 reproduces Eq. 24 exactly.
        if (rate < cap && rate > 0.0) eff.omega = 1.0 / rate;
        reduced.push_back(eff);
        reduced_idx.push_back(i);
      }
      const ThetaSolution rsol = ThetaSolver::solve(reduced, t.n_bytes);
      ThetaSolution& out = sol.transfers[k];
      out.theta.assign(t.paths.size(), 0.0);
      out.active.clear();
      out.predicted_time = rsol.predicted_time;
      for (std::size_t j = 0; j < reduced_idx.size(); ++j) {
        const std::size_t i = reduced_idx[j];
        out.theta[i] = rsol.theta[j];
        if (rsol.theta[j] > 0.0) {
          out.active.push_back(i);
        } else if (i != 0 && active[k][i]) {
          // Excluded under contention: the path frees its link shares for
          // everyone else. The anchor (index 0) is never dropped.
          active[k][i] = 0;
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
