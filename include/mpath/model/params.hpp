// Model parameters and per-path derived terms.
//
// Implements the notation of the paper's Table 1 and the term derivations
// of Sections 3.1-3.4:
//   * LinkParams         — Hockney (alpha, beta) of one link      (Eq. 1)
//   * PathParams         — a candidate path: one or two links + the
//                          staging synchronization overhead epsilon (Eq. 2)
//   * PathTerms          — the (Omega_i, Delta_i) pair such that
//                          T_i = theta_i * n * Omega_i + Delta_i   (Eq. 21)
// Three term derivations are provided:
//   * direct             — Omega = 1/beta,        Delta = alpha
//   * staged unpipelined — Omega = 1/b + 1/b',    Delta = a + a' + eps (S3.3)
//   * staged pipelined   — the phi-linearized Eq. 22 of Section 3.4
#pragma once

#include <optional>
#include <stdexcept>

#include "mpath/topo/paths.hpp"

namespace mpath::model {

/// Hockney parameters of one link: T(n) = alpha + n / beta.
struct LinkParams {
  double alpha = 0.0;  ///< startup latency, seconds
  double beta = 1.0;   ///< asymptotic bandwidth, bytes/second

  [[nodiscard]] double time(double n_bytes) const {
    return alpha + n_bytes / beta;
  }
};

/// A candidate path in model terms (paper Eq. 2). Direct paths have no
/// second link and zero epsilon.
struct PathParams {
  topo::PathPlan plan;
  LinkParams first;                  ///< src -> stage (or src -> dst)
  std::optional<LinkParams> second;  ///< stage -> dst, staged paths only
  double epsilon = 0.0;              ///< sync overhead at the staging device

  [[nodiscard]] bool staged() const { return second.has_value(); }
};

/// Linear per-path cost terms: T_i = theta_i * n * Omega_i + Delta_i.
struct PathTerms {
  double omega = 0.0;  ///< effective inverse bandwidth, s/byte
  double delta = 0.0;  ///< effective fixed overhead, s

  [[nodiscard]] double time(double theta, double n_bytes) const {
    return theta * n_bytes * omega + delta;
  }
  friend bool operator==(const PathTerms&, const PathTerms&) = default;
};

/// Topology constants phi for the chunk-count linearization (paper Eq. 19).
/// phi1 applies when the first link is the bottleneck (beta < beta'),
/// phi2 when the second is.
struct PhiConstants {
  double phi1 = 1.0;
  double phi2 = 1.0;
};

/// Direct path:      Omega = 1/beta, Delta = alpha (Eq. 8 special case).
/// Staged (no pipe): Omega = 1/beta + 1/beta', Delta = alpha+alpha'+epsilon
/// (Section 3.3).
[[nodiscard]] PathTerms terms_unpipelined(const PathParams& p);

/// Staged with pipelining, phi-linearized (Eq. 22). For direct paths this
/// falls back to terms_unpipelined. Throws std::invalid_argument if phi
/// constants are non-positive.
[[nodiscard]] PathTerms terms_pipelined(const PathParams& p,
                                        const PhiConstants& phi);

/// Exact (non-linearized) pipelined path time with the optimal real-valued
/// chunk count substituted (Eqs. 17/18); used to quantify the phi
/// linearization error in the ablation benchmarks.
[[nodiscard]] double exact_pipelined_time(const PathParams& p, double theta,
                                          double n_bytes);

}  // namespace mpath::model
