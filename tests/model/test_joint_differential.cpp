// Differential test of the joint solver's water-fill.
//
// JointThetaSolver::maxmin_rates freezes flows through per-link member
// lists and scans a compacted list of candidate links with cached shares.
// It must reproduce the plain linear scan it replaced bit for bit: the same
// bottleneck each round (smallest share, ties to the lowest index), the
// same flows frozen in the same order, and therefore the same floating-point
// subtractions on every residual. The linear scan is kept below, verbatim,
// as the reference, together with the joint solve built on it. Both are
// compared with memcmp over seeded random instances with exact ties between
// link shares and between flow caps, repeated link traversals, fractional
// and zero background, and empty flow sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "mpath/model/theta.hpp"
#include "mpath/util/rng.hpp"

namespace mm = mpath::model;
using mpath::model::FixedFlow;
using mpath::model::JointLink;
using mpath::model::JointPath;
using mpath::model::JointSolution;
using mpath::model::JointTransfer;
using mpath::model::PathTerms;
using mpath::model::ThetaSolution;
using mpath::model::ThetaSolver;

namespace {

// ---------------------------------------------------------------------------
// Reference: the water-fill and joint solve as they were before the
// member-list kernel, unchanged apart from being free functions.
// ---------------------------------------------------------------------------

std::vector<double> maxmin_rates(
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

JointSolution solve(std::span<const JointTransfer> transfers,
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
  std::vector<mpath::util::SmallVec<char, 4>> active(transfers.size());
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

// ---------------------------------------------------------------------------
// Seeded instances.
// ---------------------------------------------------------------------------

struct Instance {
  std::vector<JointLink> links;
  std::vector<FixedFlow> flows;
};

/// Capacities and caps come from small value sets most of the time, so
/// link shares and flow caps tie exactly and the tie-break decides.
double pick(mpath::util::Rng& rng, std::span<const double> values,
            double lo, double hi) {
  if (rng.uniform(0.0, 1.0) < 0.8) {
    return values[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(values.size()) - 1))];
  }
  return rng.uniform(lo, hi);
}

Instance make_instance(mpath::util::Rng& rng) {
  static constexpr double kCapacities[] = {46e9, 46e9, 23e9, 92e9, 100e9,
                                           12e9};
  static constexpr double kBackground[] = {0.0, 0.0, 0.0, 0.0, 1.0,
                                           2.0, 0.5, 0.25, 1.5, 3.0};
  static constexpr double kCaps[] = {46e9, 23e9, 11.5e9, 40e9, 12e9,
                                     1e12, 92e9};
  Instance in;
  const auto nl = rng.uniform_int(1, 24);
  // Skewed toward small sets (mean ~57 flows), up to 170.
  const double u = rng.uniform(0.0, 1.0);
  const auto nf = static_cast<std::int64_t>(171.0 * u * u);
  for (std::int64_t l = 0; l < nl; ++l) {
    // Fractional background stays a multiple of 1/8, like the integer
    // weights the fluid network reports, so a link's unfrozen weight
    // reaches exactly 0. (With weights such as 0.3 both kernels can be left
    // with a rounding residue of weight and no flow to freeze, and loop.)
    const double background =
        rng.uniform(0.0, 1.0) < 0.8
            ? kBackground[static_cast<std::size_t>(rng.uniform_int(0, 9))]
            : static_cast<double>(rng.uniform_int(1, 31)) / 8.0;
    in.links.push_back({pick(rng, kCapacities, 1e9, 120e9), background});
  }
  for (std::int64_t f = 0; f < nf; ++f) {
    FixedFlow flow;
    const auto hops = rng.uniform_int(0, 4);
    for (std::int64_t h = 0; h < hops; ++h) {
      // Sometimes the previous link again: a repeated traversal.
      if (h > 0 && rng.uniform(0.0, 1.0) < 0.1) {
        flow.links.push_back(flow.links.back());
      } else {
        flow.links.push_back(
            static_cast<std::uint32_t>(rng.uniform_int(0, nl - 1)));
      }
    }
    flow.cap_bps = pick(rng, kCaps, 0.5e9, 200e9);
    in.flows.push_back(std::move(flow));
  }
  return in;
}

std::vector<const FixedFlow*> pointers(const std::vector<FixedFlow>& flows) {
  std::vector<const FixedFlow*> out;
  for (const FixedFlow& f : flows) out.push_back(&f);
  return out;
}

template <typename T>
bool same_bits(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool same_solution(const JointSolution& a, const JointSolution& b) {
  if (a.iterations != b.iterations ||
      a.transfers.size() != b.transfers.size() ||
      !same_bits<double>(a.fixed_rates, b.fixed_rates)) {
    return false;
  }
  for (std::size_t k = 0; k < a.transfers.size(); ++k) {
    const ThetaSolution& x = a.transfers[k];
    const ThetaSolution& y = b.transfers[k];
    if (!same_bits<double>(x.theta, y.theta) ||
        !same_bits<std::size_t>(x.active, y.active) ||
        !same_bits<double>({&x.predicted_time, 1}, {&y.predicted_time, 1}) ||
        !same_bits<double>(a.path_rates[k], b.path_rates[k])) {
      return false;
    }
  }
  return true;
}

}  // namespace

TEST(JointDifferential, WaterFillMatchesLinearScanBitForBit) {
  constexpr int kInstances = 100'000;
  mpath::util::Rng rng(0x5eed'0f'f111ULL);
  // One solver for every instance: buffers grown by a large instance must
  // not leak into a smaller one.
  mm::JointThetaSolver solver;
  int mismatches = 0;
  int ties = 0;
  for (int i = 0; i < kInstances; ++i) {
    const Instance in = make_instance(rng);
    const std::vector<double> want = maxmin_rates(in.flows, in.links);
    const std::vector<const FixedFlow*> flows = pointers(in.flows);
    const std::span<const double> got = solver.maxmin_rates(flows, in.links);
    for (std::size_t f = 1; f < want.size(); ++f) {
      if (want[f] == want[f - 1]) {
        ++ties;
        break;
      }
    }
    if (!same_bits<double>(want, got) && ++mismatches <= 3) {
      ADD_FAILURE() << "instance " << i << ": " << in.flows.size()
                    << " flows over " << in.links.size() << " links differ";
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << kInstances << " instances";
  // The instances must exercise the tie-break, or it goes untested.
  EXPECT_GT(ties, kInstances / 4);
}

TEST(JointDifferential, EmptyInputsMatch) {
  mm::JointThetaSolver solver;
  const std::vector<JointLink> links{{46e9, 0.0}, {46e9, 1.5}};
  EXPECT_TRUE(solver.maxmin_rates({}, links).empty());
  EXPECT_TRUE(maxmin_rates({}, links).empty());
  // A flow with no links is limited by its cap alone.
  FixedFlow free;
  free.cap_bps = 7e9;
  const std::vector<const FixedFlow*> one{&free};
  const auto got = solver.maxmin_rates(one, links);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 7e9);
}

TEST(JointDifferential, SolveMatchesReferenceSolve) {
  constexpr int kInstances = 10'000;
  mpath::util::Rng rng(0xd1ff'5017ULL);
  mm::JointThetaSolver solver;
  int mismatches = 0;
  for (int i = 0; i < kInstances; ++i) {
    const Instance in = make_instance(rng);
    const auto nl = static_cast<std::int64_t>(in.links.size());
    // 1-3 arriving transfers of 1-4 candidate paths each.
    const auto k = rng.uniform_int(1, 3);
    std::vector<std::vector<JointPath>> paths(static_cast<std::size_t>(k));
    std::vector<JointTransfer> transfers;
    for (auto& candidates : paths) {
      const auto n = rng.uniform_int(1, 4);
      for (std::int64_t p = 0; p < n; ++p) {
        JointPath jp;
        jp.terms.omega = 1.0 / rng.uniform(5e9, 50e9);
        jp.terms.delta = rng.uniform(1e-6, 80e-6);
        const auto hops = rng.uniform_int(0, 3);
        for (std::int64_t h = 0; h < hops; ++h) {
          jp.links.push_back(
              static_cast<std::uint32_t>(rng.uniform_int(0, nl - 1)));
        }
        candidates.push_back(std::move(jp));
      }
      transfers.push_back(
          {static_cast<double>(std::uint64_t{1} << rng.uniform_int(19, 29)),
           candidates});
    }
    const JointSolution want = solve(transfers, in.flows, in.links);
    const std::vector<const FixedFlow*> fixed = pointers(in.flows);
    const JointSolution got = solver.solve(transfers, fixed, in.links);
    if (!same_solution(want, got) && ++mismatches <= 3) {
      ADD_FAILURE() << "instance " << i << ": " << transfers.size()
                    << " transfers against " << in.flows.size()
                    << " fixed flows differ";
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << kInstances << " instances";
}
