#include "mpath/benchcore/hunter.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "mpath/util/units.hpp"

namespace mf = mpath::fuzz;
namespace mm = mpath::model;
namespace mt = mpath::topo;
using mpath::util::gbps;
using mpath::util::usec;
using namespace mpath::util::literals;

namespace {

/// Tiny deterministic hand-built scenario: 2 GPUs + host, NVLink + PCIe.
mf::Scenario mini_scenario() {
  mf::Scenario sc;
  sc.topo.name = "mini";
  sc.topo.devices = {{mt::DeviceKind::Host, 0, "host0"},
                     {mt::DeviceKind::Gpu, 0, "gpu0"},
                     {mt::DeviceKind::Gpu, 0, "gpu1"}};
  sc.topo.mem_channels = {{0, gbps(30), usec(0.2)}};
  const auto duplex = [&](mt::DeviceId a, mt::DeviceId b, mt::LinkKind k,
                          double cap, double lat) {
    sc.topo.edges.push_back({a, b, k, cap, lat});
    sc.topo.edges.push_back({b, a, k, cap, lat});
  };
  duplex(1, 2, mt::LinkKind::NVLink2, gbps(46), usec(1.0));
  duplex(1, 0, mt::LinkKind::PCIe3, gbps(12), usec(1.6));
  duplex(2, 0, mt::LinkKind::PCIe3, gbps(12), usec(1.6));
  sc.topo.costs.jitter_rel = 0.0;
  sc.transfers = {{1, 2, 8_MiB, mt::PathPolicy::two_gpus()}};
  return sc;
}

}  // namespace

TEST(Hunter, ScenarioJsonRoundTrip) {
  mf::Scenario sc = mf::generate_scenario(0xFEEDFACEDEADBEEFull);
  sc.note = "round trip";
  sc.expected = mm::MispredictKind::kRegret;
  const std::string dumped = sc.to_json().dump();
  const mf::Scenario back =
      mf::Scenario::from_json(mpath::util::json::Value::parse(dumped));
  EXPECT_EQ(back.to_json().dump(), dumped);
  EXPECT_EQ(back.seed, sc.seed);  // full 64-bit seed survives (> 2^53)
  EXPECT_EQ(back.expected, mm::MispredictKind::kRegret);
  ASSERT_EQ(back.transfers.size(), sc.transfers.size());
  EXPECT_EQ(back.transfers[0].bytes, sc.transfers[0].bytes);
}

TEST(Hunter, SaveLoadCorpusRoundTrip) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "mpath_hunter_corpus")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  mf::Scenario sc = mini_scenario();
  sc.note = "frozen";
  mf::save_scenario(sc, dir + "/b_case.json");
  mf::save_scenario(mf::generate_scenario(3), dir + "/a_case.json");
  const std::vector<mf::CorpusEntry> corpus = mf::load_corpus(dir);
  ASSERT_EQ(corpus.size(), 2u);
  // Sorted by filename for deterministic replay order.
  EXPECT_NE(corpus[0].path.find("a_case"), std::string::npos);
  EXPECT_EQ(corpus[1].scenario.note, "frozen");
  EXPECT_TRUE(mf::load_corpus(dir + "/does_not_exist").empty());
  std::filesystem::remove_all(dir);
}

TEST(Hunter, EvaluateMiniScenarioIsAccurate) {
  const mf::ScenarioReport report = mf::evaluate_scenario(mini_scenario());
  ASSERT_EQ(report.outcomes.size(), 1u);
  const mf::CaseOutcome& out = report.outcomes[0];
  EXPECT_GT(out.observed_bw, 0.0);
  EXPECT_GT(out.predicted_bw, 0.0);
  EXPECT_GE(out.best_bw, out.observed_bw);
  // A calibrated-envelope topology must not trip the hunter's thresholds.
  EXPECT_EQ(report.kind, mm::MispredictKind::kNone) << "error " << out.error
                                                    << " regret " << out.regret;
}

TEST(Hunter, EvaluateRejectsMalformedScenarios) {
  mf::Scenario sc = mini_scenario();
  sc.transfers.clear();
  EXPECT_THROW((void)mf::evaluate_scenario(sc), std::invalid_argument);
  sc = mini_scenario();
  sc.transfers[0].dst = sc.transfers[0].src;
  EXPECT_THROW((void)mf::evaluate_scenario(sc), std::invalid_argument);
  sc = mini_scenario();
  sc.transfers[0].src = 0;  // host endpoint
  EXPECT_THROW((void)mf::evaluate_scenario(sc), std::invalid_argument);
}

// The scenario parser reads "bps": 1e999 as an infinite bandwidth. Building
// the topology refuses it, so the scenario fails before any simulation
// runs instead of deadlocking in one.
TEST(Hunter, NonFiniteLinkBandwidthIsRefusedBeforeSimulating) {
  std::string text = mini_scenario().to_json().dump();
  const std::string pcie =
      "\"bps\": " + mpath::util::json::Value(gbps(12)).dump(0);
  int replaced = 0;
  for (std::size_t at = text.find(pcie); at != std::string::npos;
       at = text.find(pcie, at)) {
    text.replace(at, pcie.size(), "\"bps\": 1e999");
    ++replaced;
  }
  ASSERT_EQ(replaced, 4);
  const mf::Scenario sc =
      mf::Scenario::from_json(mpath::util::json::Value::parse(text));
  EXPECT_THROW((void)sc.topo.build(), std::invalid_argument);
  EXPECT_THROW((void)mf::evaluate_scenario(sc), std::invalid_argument);
}

TEST(Hunter, HuntIsDeterministicAcrossJobCounts) {
  mf::HuntOptions opt;
  opt.seed = 11;
  opt.count = 4;
  const auto run_with = [&](int jobs) {
    mf::HuntOptions o = opt;
    o.jobs = jobs;
    return mf::run_hunt(o);
  };
  const mf::HuntResult serial = run_with(1);
  const mf::HuntResult parallel = run_with(3);
  ASSERT_EQ(serial.reports.size(), parallel.reports.size());
  for (std::size_t i = 0; i < serial.reports.size(); ++i) {
    const mf::ScenarioReport& a = serial.reports[i];
    const mf::ScenarioReport& b = parallel.reports[i];
    EXPECT_EQ(a.scenario.to_json().dump(), b.scenario.to_json().dump());
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t j = 0; j < a.outcomes.size(); ++j) {
      EXPECT_EQ(a.outcomes[j].predicted_bw, b.outcomes[j].predicted_bw);
      EXPECT_EQ(a.outcomes[j].observed_bw, b.outcomes[j].observed_bw);
      EXPECT_EQ(a.outcomes[j].best_bw, b.outcomes[j].best_bw);
      EXPECT_EQ(a.outcomes[j].kind, b.outcomes[j].kind);
    }
  }
}

TEST(Hunter, MinimizerShrinksWhilePreservingTheFlag) {
  // Zero thresholds flag every scenario, so the minimizer must preserve a
  // flag that any valid shrink also reproduces — exercising every cut kind
  // without depending on a specific model defect.
  mf::EvalOptions eval;
  eval.thresholds.max_error = 0.0;
  eval.thresholds.max_regret = 1.0;  // regret varies under cuts; pin error

  const mf::Scenario sc = mf::generate_scenario(5);
  const mf::ScenarioReport before = mf::evaluate_scenario(sc, eval);
  ASSERT_TRUE(before.flagged());

  const mf::Scenario min = mf::minimize_scenario(sc, eval);
  EXPECT_LE(min.topo.devices.size(), sc.topo.devices.size());
  EXPECT_LE(min.topo.edges.size(), sc.topo.edges.size());
  EXPECT_LE(min.transfers.size(), sc.transfers.size());
  EXPECT_EQ(min.transfers.size(), 1u);
  EXPECT_NE(min.expected, mm::MispredictKind::kNone);

  // The shrunken scenario still builds, routes, and reproduces.
  const mf::ScenarioReport after = mf::evaluate_scenario(min, eval);
  EXPECT_TRUE(mm::covers(after.kind, min.expected));
}

TEST(Hunter, MinimizerReturnsUnflaggedScenariosUntouched) {
  const mf::Scenario sc = mini_scenario();
  const mf::Scenario min = mf::minimize_scenario(sc);  // default thresholds
  EXPECT_EQ(min.to_json().dump(), sc.to_json().dump());
}
