// Algorithm 1 of the paper: populate_path_config.
//
// Given (src, dst, message size, candidate paths), compute the optimal
// multi-path configuration — per-path byte shares and chunk counts — from
// the fitted model parameters, with a configuration cache in front. The
// cache is a PlanCache keyed by the request tuple and unbounded: it holds
// one entry per distinct request until clear_cache(). Recovery re-plans,
// whose remainders never recur, call compute_config() and add none.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mpath/model/calibration_store.hpp"
#include "mpath/model/chunking.hpp"
#include "mpath/model/plan_cache.hpp"
#include "mpath/model/registry.hpp"
#include "mpath/model/theta.hpp"

namespace mpath::model {

/// Upper bound on a staged path's pipeline chunk count.
inline constexpr int kMaxChunks = 64;

struct ConfiguratorOptions {
  /// Model pipelined staged transfers (Section 3.4). When false, staged
  /// paths are modeled as two sequential transfers (Section 3.3) and always
  /// use one chunk.
  bool pipelining = true;
  /// How chunk counts are derived for staged paths (at most kMaxChunks).
  ChunkMode chunk_mode = ChunkMode::LinearPhi;
  /// The paper's topology constants have the form c*f(n). When true
  /// (default), phi is refit at each request's message size — the tangent
  /// construction phi(n) = 1/sqrt(X(theta_hint, n)), which keeps Eq. 19
  /// exact at the operating point while remaining linear in theta. When
  /// false, one global phi is least-squares fit over the 2 MiB..512 MiB
  /// operating range (ablation: substantially less accurate).
  bool phi_per_message = true;
};

/// The model-side half of Algorithm 1 (lines 7-21): per-path link
/// parameters, topology constants, and fully adjusted (Omega, Delta) terms
/// for one transfer request, before any theta solve. Exposed so the joint
/// scheduler can run its own contention-aware solve over these terms and
/// still share the config-building code with the solo path.
struct PreparedTransfer {
  std::vector<PathParams> params;
  std::vector<PhiConstants> phis;  ///< empty slots when not pipelining
  std::vector<PathTerms> terms;
};

/// One path's slice of the transfer.
struct PathShare {
  topo::PathPlan plan;
  double theta = 0.0;          ///< fraction of the message
  std::uint64_t bytes = 0;     ///< rounded byte share
  int chunks = 1;              ///< pipeline chunk count k_i
  double predicted_time = 0.0; ///< model time for this share
  PathTerms terms;             ///< (Omega, Delta) used for this path
  friend bool operator==(const PathShare&, const PathShare&) = default;
};

struct TransferConfig {
  std::vector<PathShare> paths;  ///< same order as the input candidates
  std::uint64_t total_bytes = 0;
  double predicted_time = 0.0;   ///< max over active paths
  /// Predicted aggregate bandwidth n / T, bytes per second.
  [[nodiscard]] double predicted_bandwidth() const {
    return predicted_time > 0.0
               ? static_cast<double>(total_bytes) / predicted_time
               : 0.0;
  }
  /// Exact, field by field (a persisted model must reproduce its configs).
  friend bool operator==(const TransferConfig&,
                         const TransferConfig&) = default;
};

class PathConfigurator {
 public:
  /// `registry` must hold parameters for every hop of every candidate path
  /// passed to configure(); both references must outlive the configurator.
  PathConfigurator(const ModelRegistry& registry,
                   ConfiguratorOptions options = {});

  /// Attach (or detach, with nullptr) a calibration store. prepare() then
  /// applies the current snapshot's per-path {alpha_scale, beta_scale} on
  /// top of the registry parameters; paths with no learned entry are left
  /// untouched, so an empty store is bit-identical to running without one.
  /// Cached configs are stamped with the snapshot version they were
  /// computed under and recomputed (not trusted) after a publication.
  /// The store must outlive the configurator.
  void set_calibration(const CalibrationStore* store) { calibration_ = store; }
  [[nodiscard]] const CalibrationStore* calibration() const {
    return calibration_;
  }

  /// Attach (or detach, with nullptr) the topology the candidate paths are
  /// routed over. prepare() then derates paths whose hop routes share a
  /// fluid edge with another candidate: per-path composition alone treats
  /// each candidate's bottleneck as private, but when e.g. a transit-routed
  /// direct path and a staged copy both cross the same link of a parallel
  /// duplicate pair, max-min arbitration splits that link between them.
  /// Without a topology (default) the composition is unchanged — the legacy
  /// per-path model. The topology must outlive the configurator.
  void set_topology(const topo::Topology* topo) { topology_ = topo; }
  [[nodiscard]] const topo::Topology* topology() const { return topology_; }

  /// Algorithm 1: returns the cached or freshly computed optimal
  /// configuration. `paths` must be non-empty with the direct path first.
  /// The reference stays valid until clear_cache(), or until the same
  /// request is configured again under a newer calibration snapshot.
  [[nodiscard]] const TransferConfig& configure(
      topo::DeviceId src, topo::DeviceId dst, std::uint64_t bytes,
      std::span<const topo::PathPlan> paths);

  /// Like configure(), but over an arbitrary non-empty path subset: the
  /// first candidate plays the anchor role (absorbs the rounding remainder
  /// and is never excluded by the theta solver) regardless of its kind.
  /// Used by the recovery re-planner when the direct path itself is dead
  /// and the remainder must be re-split over the surviving paths.
  [[nodiscard]] const TransferConfig& configure_over(
      topo::DeviceId src, topo::DeviceId dst, std::uint64_t bytes,
      std::span<const topo::PathPlan> paths);

  /// Pure read path: compute the optimal configuration WITHOUT touching
  /// the cache or its hit counters. This is the snapshot-shareable
  /// entry point for parallel sweeps — many threads may call it
  /// concurrently on one const PathConfigurator over an immutable
  /// ModelRegistry, and it returns bit-identical results to configure()
  /// on a cold cache (same arithmetic, same order).
  [[nodiscard]] TransferConfig compute_config(
      topo::DeviceId src, topo::DeviceId dst, std::uint64_t bytes,
      std::span<const topo::PathPlan> paths) const;

  /// Algorithm 1 lines 7-21 only: resolve parameters and adjusted terms,
  /// no theta solve. Pure (cache untouched).
  [[nodiscard]] PreparedTransfer prepare(
      topo::DeviceId src, topo::DeviceId dst, std::uint64_t bytes,
      std::span<const topo::PathPlan> paths) const;

  /// Algorithm 1 lines 22-29 from an externally supplied theta solution
  /// (e.g. the joint scheduler's contention-aware solve): integer byte
  /// shares with the remainder on paths[0], chunk counts, and per-path
  /// predicted times from `prepared.terms`. Pure (cache untouched).
  /// compute_config(...) == config_from_theta(prepare(...), solve(...)).
  [[nodiscard]] TransferConfig config_from_theta(
      const PreparedTransfer& prepared, std::uint64_t bytes,
      std::span<const topo::PathPlan> paths, const ThetaSolution& sol) const;

  [[nodiscard]] std::uint64_t cache_hits() const { return cache_.stats().hits; }
  [[nodiscard]] std::uint64_t cache_misses() const {
    return cache_.stats().misses;
  }
  /// Cached entries that matched their tuple but were computed under an
  /// older calibration snapshot; each recomputes under the current one.
  [[nodiscard]] std::uint64_t cache_invalidations() const {
    return cache_.stats().invalidations;
  }
  [[nodiscard]] std::size_t cache_size() const { return cache_.size(); }
  void clear_cache() { cache_.clear(); }

  [[nodiscard]] const ConfiguratorOptions& options() const { return options_; }

 private:
  /// Shared-edge bandwidth derates for one request's candidate set: 1.0
  /// for paths whose hop routes touch no edge used by another candidate,
  /// else bottleneck(cap_e) / bottleneck(cap_e / users_e) >= 1.
  [[nodiscard]] std::vector<double> shared_edge_derates(
      topo::DeviceId src, topo::DeviceId dst,
      std::span<const topo::PathPlan> paths) const;

  const ModelRegistry* registry_;
  ConfiguratorOptions options_;
  const CalibrationStore* calibration_ = nullptr;
  const topo::Topology* topology_ = nullptr;
  PlanCache<TransferConfig> cache_;
};

}  // namespace mpath::model
