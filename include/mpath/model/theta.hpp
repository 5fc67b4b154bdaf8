// Optimal message-fraction solver (paper Section 3.2-3.4).
//
// Theorem 1: the split minimizing T = max_i T_i equalizes per-path times.
// With linear terms T_i = theta_i * n * Omega_i + Delta_i, the closed form
// is Eq. 24 (which subsumes Eq. 8 and Eq. 11):
//
//   theta_i = 1/(Omega_i * S) * (1 - Delta_i/n * S + D/n),
//     where S = sum_j 1/Omega_j and D = sum_j Delta_j/Omega_j.
//
// For small n, high-Delta paths get negative fractions: such paths cannot
// help and are excluded (Algorithm 1 allows every path except the direct
// one to be dropped), then the solve repeats on the active set.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "mpath/model/params.hpp"
#include "mpath/util/small_vec.hpp"

namespace mpath::model {

struct ThetaSolution {
  /// Message fractions per input path; excluded paths have theta == 0.
  std::vector<double> theta;
  /// Predicted transfer time (equalized time of the active paths).
  double predicted_time = 0.0;
  /// Indices of paths that received a positive share.
  std::vector<std::size_t> active;
};

class ThetaSolver {
 public:
  /// Solve for fractions over `paths` for a message of n_bytes. Index 0 is
  /// treated as the direct path and is never excluded. Requires at least
  /// one path and n_bytes > 0.
  [[nodiscard]] static ThetaSolution solve(std::span<const PathTerms> paths,
                                           double n_bytes);

  /// Theorem 1 helper: max_i |T_i - T_j| over active paths, for tests and
  /// the theorem-validation benchmark.
  [[nodiscard]] static double time_spread(std::span<const PathTerms> paths,
                                          std::span<const double> theta,
                                          double n_bytes);

  /// Evaluate T = max_i T_i for an arbitrary (not necessarily optimal)
  /// fraction vector; used by grid-search baselines.
  [[nodiscard]] static double evaluate(std::span<const PathTerms> paths,
                                       std::span<const double> theta,
                                       double n_bytes);
};

// ---------------------------------------------------------------------------
// Joint (K-transfer) planning.
//
// Under concurrent transfers the fluid network arbitrates shared links
// max-min fairly, so a path's effective bandwidth is its max-min share, not
// its solo bandwidth — planning each transfer with Eq. 24 alone makes every
// predicted T_i wrong and the theta splits fight each other. The joint
// solver couples the closed form with a capped max-min water-fill:
//
//   repeat:
//     1. water-fill all active paths of all transfers over the shared links
//        (each path rate-capped at its solo bandwidth 1/Omega_i, each link
//        at its capacity); in-flight transfers participate as fixed flows,
//     2. per transfer, re-run the Eq. 24 equal-time solve with the
//        water-filled effective inverse bandwidths Omega_i' = 1/rate_i,
//     3. drop paths whose theta went non-positive (they free their link
//        shares) and repeat until the active sets stabilize.
//
// With K = 1 and a transfer whose paths do not exceed any shared link (true
// for every shipped topology preset), every rate water-fills to its solo
// cap, Omega' == Omega bit-for-bit, and the result is exactly the
// single-transfer closed form — Eq. 24 is the K=1 special case.
// ---------------------------------------------------------------------------

/// One shared resource (fluid link) in a joint solve.
struct JointLink {
  double capacity_bps = 0.0;
  /// Uncapped flows on this link owned by nobody in the solve (traffic that
  /// bypasses the scheduler); they consume max-min shares but are not
  /// planned or reported.
  double background_flows = 0.0;
};

/// One candidate path of one transfer in a joint solve.
struct JointPath {
  PathTerms terms;  ///< solo-calibrated (Omega, Delta)
  /// Indices into the JointLink array for every link the path occupies
  /// while streaming (both hops of a pipelined staged path). Repeats count
  /// as extra traversals. May be empty (path constrained by its solo
  /// bandwidth only).
  util::SmallVec<std::uint32_t, 4> links;
};

/// A transfer whose split is to be solved. paths[0] is the anchor (direct)
/// path: never excluded, absorbs the closed-form remainder.
struct JointTransfer {
  double n_bytes = 0.0;
  std::span<const JointPath> paths;
};

/// An in-flight path of an already-planned transfer: its split is fixed, but
/// it still consumes max-min shares on the links it occupies.
struct FixedFlow {
  util::SmallVec<std::uint32_t, 4> links;
  double cap_bps = 0.0;  ///< solo path bandwidth (rate never exceeds this)
};

struct JointSolution {
  /// Per input transfer, the equal-time split under contention. theta and
  /// predicted_time use the water-filled effective terms.
  std::vector<ThetaSolution> transfers;
  /// Final water-fill rate (B/s) per (transfer, path); excluded paths get 0.
  std::vector<util::SmallVec<double, 4>> path_rates;
  /// Final water-fill rate per fixed flow, aligned with the input order.
  std::vector<double> fixed_rates;
  int iterations = 0;  ///< water-fill / re-solve rounds until stable
};

/// The joint solver keeps its working buffers between calls, so a caller
/// that owns one instance (the scheduler) water-fills without allocating
/// once the buffers have grown to the largest input seen; a solve still
/// allocates the JointSolution it returns. One instance must not be used
/// from two threads at once.
class JointThetaSolver {
 public:
  /// Jointly solve K transfers sharing `links`, with `fixed` in-flight
  /// flows as unmovable contention (held by pointer, so a caller can pass
  /// flows it keeps elsewhere without copying them). Requires every
  /// transfer to satisfy the single-transfer preconditions (non-empty
  /// paths, positive Omega and n_bytes) and every link capacity to be
  /// positive. Deterministic: bottleneck ties break on the lowest link
  /// index.
  [[nodiscard]] JointSolution solve(std::span<const JointTransfer> transfers,
                                    std::span<const FixedFlow* const> fixed,
                                    std::span<const JointLink> links);

  /// The capped max-min water-fill alone (exposed for tests and for
  /// departure-time rate refreshes): rates for `flows`, each capped at its
  /// cap_bps, sharing `links` max-min fairly with the links' background
  /// flows. Matches FluidNetwork::reference_rates on cap-free inputs. The
  /// result views this solver's buffers and is valid until its next call.
  [[nodiscard]] std::span<const double> maxmin_rates(
      std::span<const FixedFlow* const> flows,
      std::span<const JointLink> links);

 private:
  // Water-fill state over real links [0, nl) and one virtual cap link per
  // flow [nl, nl + nf).
  std::vector<double> residual_;
  std::vector<double> unfrozen_;
  std::vector<double> share_;  ///< residual_ / unfrozen_, kept current
  std::vector<double> background_;
  std::vector<double> rates_;
  std::vector<char> frozen_;
  /// Links that may still bottleneck (unfrozen weight left), ascending.
  std::vector<std::uint32_t> candidates_;
  /// Flows crossing each real link, ascending, one entry per traversal:
  /// link l's members are members_[member_begin_[l] .. member_begin_[l+1]).
  std::vector<std::uint32_t> member_begin_;
  std::vector<std::uint32_t> member_fill_;
  std::vector<std::uint32_t> members_;
  // solve() state.
  std::vector<FixedFlow> path_flows_;  ///< every candidate path as a flow
  std::vector<const FixedFlow*> round_flows_;
  std::vector<util::SmallVec<char, 4>> active_;
  std::vector<PathTerms> reduced_;
  std::vector<std::size_t> reduced_idx_;
};

}  // namespace mpath::model
