// FUZZ-HUNT — Generative scenario fuzzing for the performance model: seeded
// random topologies (NVLink / NVSwitch / xGMI / PCIe, multi-NUMA,
// asymmetric links), each evaluated against the fluid simulator as ground
// truth, flagging scenarios where the model's prediction error or
// theta-policy regret exceeds the accuracy thresholds.
//
// Usage:
//   fuzz_hunt [--seed N] [--count N] [--jobs N] [--quick]
//             [--minimize] [--corpus-out DIR]
//
// The emitted CSV (results/fuzz_hunt.csv) is byte-identical for any --jobs
// value at a fixed seed — CI compares --jobs 1 against --jobs 2 runs.
// With --minimize, each flagged scenario is greedily shrunk and frozen as
// JSON under --corpus-out (default results/corpus); promising cases
// graduate to tests/corpus/ where the replay test pins them.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench_common.hpp"
#include "mpath/benchcore/hunter.hpp"

namespace mb = mpath::bench;
namespace mf = mpath::fuzz;
namespace mu = mpath::util;

namespace {

std::uint64_t u64_flag(int argc, char** argv, const char* name,
                       std::uint64_t fallback) {
  const std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string a(argv[i]);
    if (a == name && i + 1 < argc) return std::strtoull(argv[i + 1], nullptr, 10);
    if (a.rfind(prefix, 0) == 0) {
      return std::strtoull(a.c_str() + prefix.size(), nullptr, 10);
    }
  }
  return fallback;
}

std::string str_flag(int argc, char** argv, const char* name,
                     std::string fallback) {
  const std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string a(argv[i]);
    if (a == name && i + 1 < argc) return argv[i + 1];
    if (a.rfind(prefix, 0) == 0) return a.substr(prefix.size());
  }
  return fallback;
}

bool bool_flag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = mb::quick_mode(argc, argv);

  mf::HuntOptions opt;
  const mf::EvalOptions eval{};  // what run_hunt evaluates with
  opt.seed = u64_flag(argc, argv, "--seed", 1);
  opt.count = u64_flag(argc, argv, "--count", quick ? 8 : 48);
  opt.jobs = mb::jobs_mode(argc, argv);
  const bool minimize = bool_flag(argc, argv, "--minimize");
  const std::string corpus_out = str_flag(
      argc, argv, "--corpus-out", mb::results_dir() + "/corpus");

  std::printf(
      "FUZZ-HUNT: %zu seeded scenarios from seed %llu (fluid-simulator "
      "oracle, thresholds: error > %.0f%%, regret > %.0f%%)\n\n",
      opt.count, static_cast<unsigned long long>(opt.seed),
      100.0 * eval.thresholds.max_error, 100.0 * eval.thresholds.max_regret);

  const mf::HuntResult hunt = mf::run_hunt(opt);

  // Serial merge in scenario order: the CSV (and all printed statistics)
  // are independent of worker scheduling.
  mu::CsvWriter csv(mb::results_dir() + "/fuzz_hunt.csv");
  csv.header({"scenario", "seed", "gpus", "hosts", "links", "src", "dst",
              "bytes", "policy", "predicted_gbps", "observed_gbps",
              "best_gbps", "best_policy", "error", "regret", "flag"});
  mu::RunningStats errors, regrets;
  for (std::size_t i = 0; i < hunt.reports.size(); ++i) {
    const mf::ScenarioReport& rep = hunt.reports[i];
    for (const mf::CaseOutcome& out : rep.outcomes) {
      errors.add(out.error);
      regrets.add(out.regret);
      csv.row({std::to_string(i), std::to_string(rep.scenario.seed),
               std::to_string(rep.scenario.topo.gpu_count()),
               std::to_string(rep.scenario.topo.host_count()),
               std::to_string(rep.scenario.topo.edges.size()),
               std::to_string(out.transfer.src),
               std::to_string(out.transfer.dst),
               std::to_string(out.transfer.bytes),
               out.transfer.policy.label(),
               mu::CsvWriter::num(mu::to_gbps(out.predicted_bw)),
               mu::CsvWriter::num(mu::to_gbps(out.observed_bw)),
               mu::CsvWriter::num(mu::to_gbps(out.best_bw)),
               out.best_policy.label(), mu::CsvWriter::num(out.error),
               mu::CsvWriter::num(out.regret),
               std::string(mpath::model::to_string(out.kind))});
    }
  }
  csv.close();

  mu::Table table({"scenarios", "flagged", "mean err", "max err",
                   "mean regret", "max regret"});
  table.add_row({std::to_string(hunt.reports.size()),
                 std::to_string(hunt.flagged()), mb::pct(errors.mean()),
                 mb::pct(errors.max()), mb::pct(regrets.mean()),
                 mb::pct(regrets.max())});
  table.print();

  if (minimize && hunt.flagged() > 0) {
    std::filesystem::create_directories(corpus_out);
    std::size_t frozen = 0;
    for (const mf::ScenarioReport& rep : hunt.reports) {
      if (!rep.flagged()) continue;
      mf::Scenario min = mf::minimize_scenario(rep.scenario, eval);
      min.note = "minimized fuzz_hunt find (seed " +
                 std::to_string(rep.scenario.seed) + ")";
      const std::string path =
          corpus_out + "/fuzz-" + std::to_string(rep.scenario.seed) + ".json";
      mf::save_scenario(min, path);
      std::printf("  minimized seed %llu -> %s (%zu GPUs, %zu links, %s)\n",
                  static_cast<unsigned long long>(rep.scenario.seed),
                  path.c_str(), min.topo.gpu_count(), min.topo.edges.size(),
                  std::string(mpath::model::to_string(min.expected)).c_str());
      ++frozen;
    }
    std::printf("%zu scenario(s) frozen under %s\n", frozen,
                corpus_out.c_str());
  } else if (hunt.flagged() > 0) {
    std::printf(
        "\n%zu scenario(s) exceeded thresholds; re-run with --minimize to "
        "freeze shrunken reproducers.\n",
        hunt.flagged());
  } else {
    std::printf("\nNo scenario exceeded the accuracy thresholds.\n");
  }

  std::printf("CSV written to %s/fuzz_hunt.csv\n", mb::results_dir().c_str());
  mb::report_sweep("fuzz_hunt", hunt.sweep);
  return 0;
}
