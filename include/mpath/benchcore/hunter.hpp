// Mispredict hunter: fan seeded random scenarios (topo/fuzz.hpp) across
// the parallel sweep harness, compare the model's predicted bandwidth
// against the simulated fabric (the fluid network's max-min solver, which
// the solver tests audit against its whole-network oracle), measure the
// chosen theta-policy's regret against the best enumerated policy, and
// flag threshold exceeders (model/accuracy.hpp).
//
// Flagged scenarios can be greedily minimized — drop transfers, GPUs and
// link groups, halve messages, downgrade policies, while the flag still
// reproduces — and frozen as JSON into tests/corpus/, which the corpus
// replay test re-runs on every CI build.
//
// Determinism: scenario i of a hunt depends only on (seed, i) via
// util::mix_seed, every evaluation runs on a private SimStack with
// jitter_rel = 0, and results come back in index order — so fuzz_hunt's
// CSV is byte-identical for any --jobs value.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mpath/benchcore/sweep.hpp"
#include "mpath/model/accuracy.hpp"
#include "mpath/topo/fuzz.hpp"
#include "mpath/topo/paths.hpp"

namespace mpath::fuzz {

/// One point-to-point transfer inside a scenario.
struct TransferCase {
  topo::DeviceId src = 0;
  topo::DeviceId dst = 0;
  std::uint64_t bytes = 0;
  topo::PathPolicy policy;
};

/// A self-contained reproducible scenario: a topology spec plus the
/// transfers to evaluate on it. Serializable — this is the corpus format.
struct Scenario {
  std::uint64_t seed = 0;  ///< generator seed; 0 for hand-planted cases
  std::string note;        ///< human context for frozen corpus entries
  /// Mispredict kind this scenario was flagged (and minimized) for; kNone
  /// for cases frozen as plain regression fixtures rather than mispredicts.
  model::MispredictKind expected = model::MispredictKind::kNone;
  TopoSpec topo;
  std::vector<TransferCase> transfers;

  [[nodiscard]] util::json::Value to_json() const;
  [[nodiscard]] static Scenario from_json(const util::json::Value& v);
};

/// Random scenario: generated topology + 1-2 random transfers (distinct
/// GPU endpoints, power-of-two-ish sizes in the paper's 2-256 MB sweep
/// range, random path policy). Pure in the seed.
[[nodiscard]] Scenario generate_scenario(std::uint64_t seed);

/// Atomic (tmp + rename) pretty-printed JSON dump / parse / directory load.
void save_scenario(const Scenario& scenario, const std::string& path);
[[nodiscard]] Scenario load_scenario(const std::string& path);

struct CorpusEntry {
  std::string path;
  Scenario scenario;
};
/// Every *.json under `dir`, sorted by filename for deterministic replay
/// order. Missing directory yields an empty corpus; malformed files throw.
[[nodiscard]] std::vector<CorpusEntry> load_corpus(const std::string& dir);

struct EvalOptions {
  model::AccuracyThresholds thresholds;
};

struct CaseOutcome {
  TransferCase transfer;
  double predicted_bw = 0.0;  ///< model prediction for the chosen policy
  double observed_bw = 0.0;   ///< simulated delivery under the chosen policy
  double best_bw = 0.0;       ///< best observed over the enumerated policies
  topo::PathPolicy best_policy;
  double error = 0.0;   ///< model::prediction_error(predicted, observed)
  double regret = 0.0;  ///< model::policy_regret(observed, best)
  model::MispredictKind kind = model::MispredictKind::kNone;
};

struct ScenarioReport {
  Scenario scenario;
  std::vector<CaseOutcome> outcomes;
  double max_error = 0.0;
  double max_regret = 0.0;
  /// Union of the per-case flags.
  model::MispredictKind kind = model::MispredictKind::kNone;
  [[nodiscard]] bool flagged() const {
    return kind != model::MispredictKind::kNone;
  }
};

/// The policy set regret is measured against (direct-only, 2 GPUs, 3 GPUs,
/// 3 GPUs with host) — the paper's figure policies plus the UCX baseline.
[[nodiscard]] const std::vector<topo::PathPolicy>& enumerated_policies();

/// Evaluate every transfer of one scenario on private simulation stacks.
/// The model is parameterized analytically from link ground truth
/// (tuning::registry_from_topology), so flagged error is structural, not
/// calibration noise. Throws std::invalid_argument for malformed scenarios
/// (non-GPU or equal endpoints, zero bytes, unroutable topology).
[[nodiscard]] ScenarioReport evaluate_scenario(const Scenario& scenario,
                                               const EvalOptions& options = {});

/// A hunt evaluates every scenario with the default EvalOptions.
struct HuntOptions {
  std::uint64_t seed = 1;
  std::size_t count = 32;
  int jobs = 0;  ///< SweepOptions.jobs: 0 = hardware concurrency
};

struct HuntResult {
  std::vector<ScenarioReport> reports;  ///< index order, one per scenario
  benchcore::SweepStats sweep;
  [[nodiscard]] std::size_t flagged() const {
    std::size_t n = 0;
    for (const ScenarioReport& r : reports) n += r.flagged() ? 1 : 0;
    return n;
  }
};

/// Generate + evaluate `count` scenarios across the sweep pool. The
/// returned reports are identical for any jobs value.
[[nodiscard]] HuntResult run_hunt(const HuntOptions& options = {});

/// Greedy scenario shrinking: repeatedly try dropping transfers, GPUs,
/// duplex link groups and pseudo-hosts, halving message sizes, and
/// downgrading path policies; keep each cut whose result still reproduces
/// the original flag kind (model::covers). Returns the input unchanged if
/// it does not flag to begin with. Deterministic.
[[nodiscard]] Scenario minimize_scenario(const Scenario& scenario,
                                         const EvalOptions& options = {});

}  // namespace mpath::fuzz
