#include "mpath/benchcore/hunter.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "mpath/benchcore/metrics.hpp"
#include "mpath/benchcore/omb.hpp"
#include "mpath/benchcore/stack.hpp"
#include "mpath/model/configurator.hpp"
#include "mpath/tuning/calibration.hpp"
#include "mpath/util/fsio.hpp"
#include "mpath/util/rng.hpp"
#include "mpath/util/units.hpp"

namespace mpath::fuzz {

namespace {

using model::MispredictKind;

bool same_policy(const topo::PathPolicy& a, const topo::PathPolicy& b) {
  return a.max_gpu_staged == b.max_gpu_staged &&
         a.include_host == b.include_host;
}

MispredictKind combine(MispredictKind a, MispredictKind b) {
  const bool err = model::covers(a, MispredictKind::kError) ||
                   model::covers(b, MispredictKind::kError);
  const bool reg = model::covers(a, MispredictKind::kRegret) ||
                   model::covers(b, MispredictKind::kRegret);
  if (err && reg) return MispredictKind::kBoth;
  if (err) return MispredictKind::kError;
  if (reg) return MispredictKind::kRegret;
  return MispredictKind::kNone;
}

}  // namespace

// ---------------------------------------------------------------------------
// Scenario serialization
// ---------------------------------------------------------------------------

util::json::Value Scenario::to_json() const {
  using util::json::Array;
  using util::json::Value;
  Value v{util::json::Object{}};
  v.set("schema", "mpath-fuzz-scenario-v1");
  // Seeds use the full 64-bit space; a JSON number (double) only holds 53
  // bits exactly, so the seed is stored as a decimal string.
  v.set("seed", std::to_string(seed));
  v.set("note", note);
  v.set("expected", model::to_string(expected));
  Array tr;
  for (const TransferCase& t : transfers) {
    Value tv{util::json::Object{}};
    tv.set("src", std::uint64_t{t.src});
    tv.set("dst", std::uint64_t{t.dst});
    tv.set("bytes", std::uint64_t{t.bytes});
    tv.set("max_gpu_staged", t.policy.max_gpu_staged);
    tv.set("include_host", t.policy.include_host);
    tr.push_back(std::move(tv));
  }
  v.set("transfers", std::move(tr));
  v.set("topology", topo.to_json());
  return v;
}

Scenario Scenario::from_json(const util::json::Value& v) {
  const std::string& schema = v.at("schema").as_string();
  if (schema != "mpath-fuzz-scenario-v1") {
    throw util::json::Error("unknown scenario schema: " + schema);
  }
  Scenario sc;
  sc.seed = std::strtoull(v.at("seed").as_string().c_str(), nullptr, 10);
  sc.note = v.get_or("note", util::json::Value("")).as_string();
  sc.expected = model::mispredict_kind_from_string(
      v.get_or("expected", util::json::Value("none")).as_string());
  for (const util::json::Value& tv : v.at("transfers").as_array()) {
    TransferCase t;
    t.src = static_cast<topo::DeviceId>(tv.at("src").as_uint());
    t.dst = static_cast<topo::DeviceId>(tv.at("dst").as_uint());
    t.bytes = tv.at("bytes").as_uint();
    t.policy.max_gpu_staged =
        static_cast<int>(tv.at("max_gpu_staged").as_int());
    t.policy.include_host = tv.at("include_host").as_bool();
    sc.transfers.push_back(t);
  }
  sc.topo = TopoSpec::from_json(v.at("topology"));
  return sc;
}

void save_scenario(const Scenario& scenario, const std::string& path) {
  util::write_file_atomic(path, scenario.to_json().dump(2));
}

Scenario load_scenario(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open scenario: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return Scenario::from_json(util::json::Value::parse(buf.str()));
  } catch (const util::json::Error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

std::vector<CorpusEntry> load_corpus(const std::string& dir) {
  std::vector<CorpusEntry> corpus;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return corpus;
  std::vector<std::string> paths;
  for (const auto& entry : it) {
    if (entry.path().extension() == ".json") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  for (const std::string& p : paths) corpus.push_back({p, load_scenario(p)});
  return corpus;
}

// ---------------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------------

Scenario generate_scenario(std::uint64_t seed) {
  Scenario sc;
  sc.seed = seed;
  sc.topo = generate_topology(seed);
  util::Rng rng(util::mix_seed(seed, 0x5CE7A210ull));
  std::vector<topo::DeviceId> gpus;
  for (std::size_t i = 0; i < sc.topo.devices.size(); ++i) {
    if (sc.topo.devices[i].kind == topo::DeviceKind::Gpu) {
      gpus.push_back(static_cast<topo::DeviceId>(i));
    }
  }
  const auto n = static_cast<std::int64_t>(gpus.size());
  const std::int64_t n_transfers = rng.uniform_int(1, 2);
  for (std::int64_t t = 0; t < n_transfers; ++t) {
    TransferCase tc;
    const std::int64_t a = rng.uniform_int(0, n - 1);
    std::int64_t b = a;
    while (b == a) b = rng.uniform_int(0, n - 1);
    tc.src = gpus[static_cast<std::size_t>(a)];
    tc.dst = gpus[static_cast<std::size_t>(b)];
    // Power-of-two sizes across the paper's sweep range (2 MB - 256 MB),
    // with an occasional 1.5x off-grid size to exercise rounding.
    tc.bytes = std::uint64_t{1} << rng.uniform_int(21, 28);
    if (rng.uniform(0.0, 1.0) < 0.3) tc.bytes += tc.bytes / 2;
    const std::vector<topo::PathPolicy>& pols = enumerated_policies();
    tc.policy = pols[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pols.size()) - 1))];
    sc.transfers.push_back(tc);
  }
  return sc;
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

const std::vector<topo::PathPolicy>& enumerated_policies() {
  static const std::vector<topo::PathPolicy> kPolicies = {
      topo::PathPolicy::direct_only(), topo::PathPolicy::two_gpus(),
      topo::PathPolicy::three_gpus(),
      topo::PathPolicy::three_gpus_with_host()};
  return kPolicies;
}

namespace {

/// Observed bandwidth of one transfer under `policy` on a fresh private
/// stack; optionally also the model's prediction from the same
/// configurator state the stack planned with.
double run_policy(const topo::System& system,
                  const model::ModelRegistry& registry,
                  const TransferCase& tc, const topo::PathPolicy& policy,
                  double* predicted) {
  const std::vector<topo::DeviceId> gpus = system.topology.gpus();
  const auto rank_of = [&](topo::DeviceId d) {
    const auto it = std::find(gpus.begin(), gpus.end(), d);
    if (it == gpus.end()) {
      throw std::invalid_argument("fuzz scenario: transfer endpoint " +
                                  std::to_string(d) + " is not a GPU");
    }
    return static_cast<int>(it - gpus.begin());
  };
  model::PathConfigurator configurator(registry);
  // Shared-edge composition: let the model see candidates whose hop routes
  // collide on one link (the planted-xgmi-ring fixture's NVLink+xGMI pair).
  configurator.set_topology(&system.topology);
  benchcore::SimStack stack =
      benchcore::SimStack::model_driven(system, configurator, policy);
  benchcore::P2POptions p2p;
  p2p.window = 1;
  p2p.iterations = 3;
  p2p.warmup = 1;
  p2p.src_rank = rank_of(tc.src);
  p2p.dst_rank = rank_of(tc.dst);
  const double bw = benchcore::measure_bw(stack.world(), tc.bytes, p2p);
  if (predicted != nullptr) {
    *predicted = benchcore::predicted_bandwidth(
        configurator, system.topology, tc.src, tc.dst, tc.bytes, policy);
  }
  return bw;
}

}  // namespace

ScenarioReport evaluate_scenario(const Scenario& scenario,
                                 const EvalOptions& options) {
  ScenarioReport report;
  report.scenario = scenario;
  if (scenario.transfers.empty()) {
    throw std::invalid_argument("fuzz scenario: no transfers");
  }
  const topo::System system = scenario.topo.build();
  const model::ModelRegistry registry = tuning::registry_from_topology(system);
  for (const TransferCase& tc : scenario.transfers) {
    if (tc.src == tc.dst || tc.bytes == 0) {
      throw std::invalid_argument("fuzz scenario: bad transfer case");
    }
    CaseOutcome out;
    out.transfer = tc;
    out.observed_bw =
        run_policy(system, registry, tc, tc.policy, &out.predicted_bw);
    out.best_bw = out.observed_bw;
    out.best_policy = tc.policy;
    for (const topo::PathPolicy& policy : enumerated_policies()) {
      if (same_policy(policy, tc.policy)) continue;
      const double bw = run_policy(system, registry, tc, policy, nullptr);
      if (bw > out.best_bw) {
        out.best_bw = bw;
        out.best_policy = policy;
      }
    }
    out.error = model::prediction_error(out.predicted_bw, out.observed_bw);
    out.regret = model::policy_regret(out.observed_bw, out.best_bw);
    out.kind = model::classify(out.error, out.regret, options.thresholds);
    report.max_error = std::max(report.max_error, out.error);
    report.max_regret = std::max(report.max_regret, out.regret);
    report.kind = combine(report.kind, out.kind);
    report.outcomes.push_back(out);
  }
  return report;
}

HuntResult run_hunt(const HuntOptions& options) {
  benchcore::SweepRunner runner(benchcore::SweepOptions{options.jobs});
  HuntResult result;
  result.reports = runner.run(options.count, [&](std::size_t i) {
    return evaluate_scenario(
        generate_scenario(util::mix_seed(options.seed, i)));
  });
  result.sweep = runner.stats();
  return result;
}

// ---------------------------------------------------------------------------
// Minimization
// ---------------------------------------------------------------------------

namespace {

/// Scenario with device `victim` removed: edges and memory channels
/// touching it dropped, higher device ids (including transfer endpoints)
/// shifted down by one.
Scenario drop_device(const Scenario& s, topo::DeviceId victim) {
  Scenario out = s;
  out.topo.devices.clear();
  out.topo.edges.clear();
  out.topo.mem_channels.clear();
  const auto remap = [victim](topo::DeviceId id) {
    return id > victim ? id - 1 : id;
  };
  for (std::size_t i = 0; i < s.topo.devices.size(); ++i) {
    if (static_cast<topo::DeviceId>(i) != victim) {
      out.topo.devices.push_back(s.topo.devices[i]);
    }
  }
  for (const EdgeSpec& e : s.topo.edges) {
    if (e.from == victim || e.to == victim) continue;
    EdgeSpec copy = e;
    copy.from = remap(copy.from);
    copy.to = remap(copy.to);
    out.topo.edges.push_back(copy);
  }
  for (const MemChannelSpec& m : s.topo.mem_channels) {
    if (m.host == victim) continue;
    MemChannelSpec copy = m;
    copy.host = remap(copy.host);
    out.topo.mem_channels.push_back(copy);
  }
  for (TransferCase& t : out.transfers) {
    t.src = remap(t.src);
    t.dst = remap(t.dst);
  }
  return out;
}

/// Scenario with every edge (both directions) between the endpoints of
/// `s.topo.edges[group]` of the same link kind removed.
Scenario drop_edge_group(const Scenario& s, std::size_t group) {
  const EdgeSpec& g = s.topo.edges[group];
  Scenario out = s;
  out.topo.edges.clear();
  for (const EdgeSpec& e : s.topo.edges) {
    const bool same_pair = (e.from == g.from && e.to == g.to) ||
                           (e.from == g.to && e.to == g.from);
    if (same_pair && e.kind == g.kind) continue;
    out.topo.edges.push_back(e);
  }
  return out;
}

}  // namespace

Scenario minimize_scenario(const Scenario& scenario,
                           const EvalOptions& options) {
  const ScenarioReport base = evaluate_scenario(scenario, options);
  if (!base.flagged()) return scenario;
  const MispredictKind want = base.kind;

  const auto reproduces = [&](const Scenario& candidate) {
    try {
      const topo::System sys = candidate.topo.build();
      if (!fully_routable(sys.topology)) return false;
      return model::covers(evaluate_scenario(candidate, options).kind, want);
    } catch (const std::exception&) {
      return false;
    }
  };

  Scenario best = scenario;
  bool changed = true;
  while (changed) {
    changed = false;
    // 1. Fewer transfers.
    while (best.transfers.size() > 1) {
      bool cut = false;
      for (std::size_t i = 0; i < best.transfers.size(); ++i) {
        Scenario cand = best;
        cand.transfers.erase(cand.transfers.begin() +
                             static_cast<std::ptrdiff_t>(i));
        if (reproduces(cand)) {
          best = std::move(cand);
          cut = changed = true;
          break;
        }
      }
      if (!cut) break;
    }
    // 2. Fewer devices. Only unreferenced devices are candidates; build()
    //    and fully_routable() veto cuts that break connectivity.
    for (std::size_t d = 0; d < best.topo.devices.size(); ++d) {
      const auto id = static_cast<topo::DeviceId>(d);
      const bool referenced = std::any_of(
          best.transfers.begin(), best.transfers.end(),
          [id](const TransferCase& t) { return t.src == id || t.dst == id; });
      if (referenced) continue;
      Scenario cand = drop_device(best, id);
      if (reproduces(cand)) {
        best = std::move(cand);
        changed = true;
        break;  // device ids shifted; restart the scan
      }
    }
    // 3. Fewer links (whole duplex groups at a time).
    for (std::size_t e = 0; e < best.topo.edges.size(); ++e) {
      Scenario cand = drop_edge_group(best, e);
      if (cand.topo.edges.size() < best.topo.edges.size() &&
          reproduces(cand)) {
        best = std::move(cand);
        changed = true;
        break;
      }
    }
    // 4. Smaller messages (halving, floor 1 MiB).
    for (std::size_t i = 0; i < best.transfers.size(); ++i) {
      if (best.transfers[i].bytes < 2 * util::kMiB) continue;
      Scenario cand = best;
      cand.transfers[i].bytes /= 2;
      if (reproduces(cand)) {
        best = std::move(cand);
        changed = true;
      }
    }
    // 5. Simpler policies: drop the host stage, then shrink the GPU-staged
    //    fan-out one step at a time.
    for (std::size_t i = 0; i < best.transfers.size(); ++i) {
      topo::PathPolicy& p = best.transfers[i].policy;
      if (p.include_host) {
        Scenario cand = best;
        cand.transfers[i].policy.include_host = false;
        if (reproduces(cand)) {
          best = std::move(cand);
          changed = true;
          continue;
        }
      }
      if (p.max_gpu_staged > 0) {
        Scenario cand = best;
        --cand.transfers[i].policy.max_gpu_staged;
        if (reproduces(cand)) {
          best = std::move(cand);
          changed = true;
        }
      }
    }
  }
  best.expected = want;
  return best;
}

}  // namespace mpath::fuzz
