// Replays the frozen fuzz corpus in tests/corpus/ against the live model.
//
// Every file is a minimized (or hand-planted) scenario frozen by the
// mispredict hunter.  Replay pins two things:
//   * regression fixtures (`expected == none`) must stay accurate — the
//     model may not drift past the hunter's thresholds on them; and
//   * frozen mispredicts (`expected != none`) must keep reproducing the
//     recorded flag, so a "fix" that merely hides the defect is caught.
// All error/regret values must also stay inside sanity ceilings.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "mpath/benchcore/hunter.hpp"
#include "mpath/model/accuracy.hpp"
#include "mpath/topo/fuzz.hpp"
#include "mpath/topo/topology.hpp"

#ifndef MPATH_CORPUS_DIR
#error "MPATH_CORPUS_DIR must point at the frozen scenario corpus"
#endif

namespace mf = mpath::fuzz;
namespace mm = mpath::model;
namespace mt = mpath::topo;

namespace {

const std::vector<mf::CorpusEntry>& corpus() {
  static const std::vector<mf::CorpusEntry> entries =
      mf::load_corpus(MPATH_CORPUS_DIR);
  return entries;
}

std::string short_name(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

TEST(CorpusReplay, CorpusIsSeededAndWellFormed) {
  ASSERT_GE(corpus().size(), 4u) << "corpus dir: " << MPATH_CORPUS_DIR;
  for (const mf::CorpusEntry& entry : corpus()) {
    SCOPED_TRACE(entry.path);
    EXPECT_FALSE(entry.scenario.note.empty());
    ASSERT_FALSE(entry.scenario.transfers.empty());
    const mt::Topology topo = entry.scenario.topo.build().topology;
    EXPECT_TRUE(mf::fully_routable(topo));
    // Freezing is lossless: load -> dump -> load is a fixed point.
    const std::string dumped = entry.scenario.to_json().dump();
    EXPECT_EQ(
        mf::Scenario::from_json(mpath::util::json::Value::parse(dumped))
            .to_json()
            .dump(),
        dumped);
  }
}

TEST(CorpusReplay, FlagsReproduce) {
  for (const mf::CorpusEntry& entry : corpus()) {
    SCOPED_TRACE(short_name(entry.path));
    const mf::ScenarioReport report = mf::evaluate_scenario(entry.scenario);
    if (entry.scenario.expected == mm::MispredictKind::kNone) {
      EXPECT_EQ(report.kind, mm::MispredictKind::kNone)
          << "regression fixture drifted: error " << report.max_error
          << " regret " << report.max_regret;
    } else {
      EXPECT_TRUE(mm::covers(report.kind, entry.scenario.expected))
          << "frozen mispredict no longer reproduces (got "
          << mm::to_string(report.kind) << ", expected "
          << mm::to_string(entry.scenario.expected) << ")";
    }
    // Sanity ceilings: even pinned mispredicts must stay bounded.
    EXPECT_GE(report.max_error, 0.0);
    EXPECT_LE(report.max_error, 1.5);
    EXPECT_GE(report.max_regret, 0.0);
    EXPECT_LE(report.max_regret, 0.9);
  }
}

TEST(CorpusReplay, PlantedXgmiRingRoutesOverTheRing) {
  for (const mf::CorpusEntry& entry : corpus()) {
    if (entry.scenario.topo.name != "planted-xgmi-ring") continue;
    const mt::Topology topo = entry.scenario.topo.build().topology;
    const mf::TransferCase& t = entry.scenario.transfers.front();
    const std::vector<mt::EdgeId>& route = topo.route(t.src, t.dst);
    ASSERT_EQ(route.size(), 2u);
    for (const mt::EdgeId e : route) {
      EXPECT_EQ(topo.edges()[e].kind, mt::LinkKind::XGMI);
    }
    return;
  }
  FAIL() << "planted-xgmi-ring fixture missing from corpus";
}

TEST(CorpusReplay, TopologiesRouteConcurrently) {
  // Cold concurrent route() hammer over every frozen topology; a smoke-level
  // twin of the TSan-gated ConcurrentRoute suite in tests/topo.
  for (const mf::CorpusEntry& entry : corpus()) {
    SCOPED_TRACE(entry.path);
    const mt::Topology topo = entry.scenario.topo.build().topology;
    std::vector<mt::DeviceId> gpus = topo.gpus();
    std::atomic<int> failures{0};
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; ++w) {
      workers.emplace_back([&] {
        for (int rep = 0; rep < 8; ++rep) {
          for (const mt::DeviceId a : gpus) {
            for (const mt::DeviceId b : gpus) {
              if (a == b) continue;
              try {
                if (topo.route(a, b).empty()) failures.fetch_add(1);
              } catch (...) {
                failures.fetch_add(1);
              }
            }
          }
        }
      });
    }
    for (std::thread& th : workers) th.join();
    EXPECT_EQ(failures.load(), 0);
  }
}
