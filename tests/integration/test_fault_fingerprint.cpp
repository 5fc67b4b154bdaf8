// Faulted-run fingerprint: jittered scheduled traffic under a seeded fault
// plan, pinned instant by instant against a committed file.
//
// The golden CSVs are fault-free, and the fingerprint cmp steps compare two
// modes of one build, so nothing else pins jittered output under faults.
// This test replays 8 seeded traces of 128 Poisson arrivals on a fresh
// beluga `model_driven_scheduled` stack (jitter on, recovery and path health
// on) under a seeded FaultInjector::random_plan, then replays the same
// traces once more without faults. Every arrival's completion instant is
// written at 9 significant digits (the golden CSVs' precision) and compared
// with tests/integration/data/fault_fingerprint.txt. A change that reorders
// same-instant events or re-keys jitter draws anywhere in the stack moves
// some of them.
// Each replay also ends with a clean TransferScheduler::audit().
//
// On a mismatch the actual fingerprint is written to
// fault_fingerprint.actual.txt in the working directory. A change that
// moves simulated results on purpose copies it over the committed file and
// says why.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "mpath/benchcore/stack.hpp"
#include "mpath/sim/fault.hpp"
#include "mpath/tuning/calibration.hpp"
#include "mpath/util/rng.hpp"

#ifndef MPATH_FAULT_FINGERPRINT
#error "MPATH_FAULT_FINGERPRINT must point at the committed fingerprint"
#endif

namespace bc = mpath::benchcore;
namespace mg = mpath::gpusim;
namespace ms = mpath::sim;
namespace mt = mpath::topo;

namespace {

constexpr int kTraces = 8;
constexpr int kArrivals = 128;
constexpr double kMeanGap = 30e-6;

struct Arrival {
  double t = 0.0;  ///< due instant, simulated seconds
  mt::DeviceId src = 0;
  mt::DeviceId dst = 0;
  std::size_t bytes = 0;
};

struct Trace {
  std::vector<Arrival> arrivals;
  std::uint64_t seed = 0;  ///< stack jitter and fault plan
};

/// Poisson arrivals (30 us mean gap) over random GPU pairs, each moving a
/// power of two from 512 KiB to 64 MiB.
Trace make_trace(const std::vector<mt::DeviceId>& gpus,
                 mpath::util::Rng& rng) {
  Trace trace;
  const auto n = static_cast<std::int64_t>(gpus.size());
  double clock = 0.0;
  for (int i = 0; i < kArrivals; ++i) {
    clock += -kMeanGap * std::log1p(-rng.uniform(0.0, 1.0));
    const auto s = rng.uniform_int(0, n - 1);
    auto d = rng.uniform_int(0, n - 2);
    if (d >= s) ++d;
    trace.arrivals.push_back({clock, gpus[static_cast<std::size_t>(s)],
                              gpus[static_cast<std::size_t>(d)],
                              std::size_t{1} << rng.uniform_int(19, 26)});
  }
  trace.seed = rng.engine()();
  return trace;
}

/// GPU-to-GPU fluid links, the fault plan's targets.
std::vector<ms::LinkId> gpu_links(bc::SimStack& stack) {
  const mt::Topology& topo = stack.system().topology;
  std::vector<ms::LinkId> links;
  for (const mt::Edge& e : topo.edges()) {
    if (!e.is_memory_channel &&
        topo.device(e.from).kind == mt::DeviceKind::Gpu &&
        topo.device(e.to).kind == mt::DeviceKind::Gpu) {
      links.push_back(stack.runtime().binding().link_for_edge(e.id));
    }
  }
  return links;
}

struct Completion {
  double t = -1.0;
  bool failed = false;
};

ms::Task<void> arrive(bc::SimStack& stack, const Arrival& a,
                      mg::DeviceBuffer& src, mg::DeviceBuffer& dst,
                      Completion& out) {
  co_await stack.engine().delay(a.t);
  try {
    co_await stack.channel().transfer(dst, 0, src, 0, a.bytes);
  } catch (const mg::TransferError&) {
    out.failed = true;
  }
  out.t = stack.engine().now();
}

/// Replay one trace on a fresh stack; returns one line per arrival.
std::vector<std::string> replay(const mt::System& system,
                                const mpath::model::ModelRegistry& registry,
                                const Trace& trace, bool faulted,
                                const std::string& tag) {
  mpath::model::PathConfigurator cfg(registry);
  bc::StackOptions so;
  so.seed = trace.seed;
  so.model.recovery.enabled = true;
  so.model.health.enabled = true;
  // At this load watchdogs also fire on links that are only crowded; a
  // generous re-plan budget keeps arrivals from ending in TransferError.
  so.model.recovery.max_replans = 32;
  auto stack = bc::SimStack::model_driven_scheduled(
      system, cfg, mt::PathPolicy::three_gpus(), {}, so);
  ms::FaultInjector faults(stack.engine(), stack.network());
  if (faulted) {
    ms::FaultInjector::RandomPlanOptions p;
    p.horizon = trace.arrivals.back().t;
    p.faults = 6;
    p.min_factor = 0.1;
    p.max_factor = 0.5;
    p.sever_probability = 0.3;
    p.restore_probability = 1.0;
    p.min_duration = 1.5e-3;
    p.max_duration = 4e-3;
    const std::vector<ms::LinkId> links = gpu_links(stack);
    faults.random_plan(links, p, trace.seed);
  }
  std::vector<std::unique_ptr<mg::DeviceBuffer>> bufs;
  std::vector<Completion> done(trace.arrivals.size());
  for (std::size_t i = 0; i < trace.arrivals.size(); ++i) {
    const Arrival& a = trace.arrivals[i];
    bufs.push_back(std::make_unique<mg::DeviceBuffer>(
        a.src, a.bytes, mg::Payload::Simulated));
    bufs.push_back(std::make_unique<mg::DeviceBuffer>(
        a.dst, a.bytes, mg::Payload::Simulated));
    stack.engine().spawn(
        arrive(stack, a, *bufs[2 * i], *bufs[2 * i + 1], done[i]), "arrival");
  }
  stack.engine().run();
  if (faulted) {
    // Six faults, each restored.
    EXPECT_EQ(faults.applied().size(), 12u) << tag;
  }
  EXPECT_EQ(stack.network().active_flow_count(), 0u) << tag;
  EXPECT_EQ(stack.runtime().events_outstanding(), 0u) << tag;
  EXPECT_EQ(stack.scheduler()->live_count(), 0u) << tag;
  for (const std::string& violation : stack.scheduler()->audit()) {
    ADD_FAILURE() << tag << ": " << violation;
  }
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < done.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s %zu %.9g%s", tag.c_str(), i,
                  done[i].t, done[i].failed ? " failed" : "");
    lines.emplace_back(buf);
  }
  return lines;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

}  // namespace

TEST(FaultFingerprint, CompletionInstantsMatchCommittedFile) {
  const mt::System system = mt::make_beluga();  // jitter_rel = 1%
  const auto registry = mpath::tuning::calibrate(system);
  mpath::util::Rng rng(20251117);
  std::vector<Trace> traces;
  for (int k = 0; k < kTraces; ++k) {
    traces.push_back(make_trace(system.topology.gpus(), rng));
  }
  std::vector<std::string> actual;
  for (bool faulted : {true, false}) {
    for (int k = 0; k < kTraces; ++k) {
      const std::string tag =
          std::string(faulted ? "faulted " : "clean ") + std::to_string(k);
      for (std::string& line :
           replay(system, registry, traces[static_cast<std::size_t>(k)],
                  faulted, tag)) {
        actual.push_back(std::move(line));
      }
    }
  }

  const std::vector<std::string> expected = read_lines(MPATH_FAULT_FINGERPRINT);
  std::size_t differing = 0;
  for (std::size_t i = 0; i < std::min(actual.size(), expected.size()); ++i) {
    if (actual[i] == expected[i]) continue;
    if (++differing <= 5) {
      ADD_FAILURE() << "expected '" << expected[i] << "', got '" << actual[i]
                    << "'";
    }
  }
  EXPECT_EQ(actual.size(), expected.size())
      << "committed file: " << MPATH_FAULT_FINGERPRINT;
  EXPECT_EQ(differing, 0u) << "of " << actual.size() << " instants";
  if (differing > 0 || actual.size() != expected.size()) {
    std::ofstream out("fault_fingerprint.actual.txt");
    for (const std::string& line : actual) out << line << '\n';
  }
}
