// Compiled transfer graphs (PR 9): compile/replay timing identity with the
// uncompiled path, the chunk-op list, the GraphCache (LRU, collision,
// calibration-version invalidation), the ModelDrivenChannel fast path with
// its fallback gates, admit_replay ledger equivalence, and the invalidation
// edge cases (calibration publish mid-flight, health probation of a
// template path, LRU eviction while a replay executes).
#include "mpath/pipeline/graph.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "mpath/model/calibration_store.hpp"
#include "mpath/model/plan_cache.hpp"
#include "mpath/pipeline/channels.hpp"
#include "mpath/pipeline/scheduler.hpp"
#include "mpath/topo/system.hpp"
#include "mpath/tuning/calibration.hpp"
#include "mpath/util/units.hpp"

namespace mg = mpath::gpusim;
namespace mm = mpath::model;
namespace mp = mpath::pipeline;
namespace ms = mpath::sim;
namespace mt = mpath::topo;
using namespace mpath::util::literals;

namespace {

struct Fixture {
  mt::System sys;
  ms::Engine engine;
  ms::FluidNetwork net{engine};
  mg::GpuRuntime rt;
  mp::PipelineEngine pipe;
  mm::ModelRegistry reg;
  mm::PathConfigurator cfg;
  std::vector<mt::DeviceId> gpus;

  explicit Fixture(double jitter_rel = 0.0,
                   std::size_t staging_buffers_per_device = 4)
      : sys(make_sys(jitter_rel)),
        rt(sys, engine, net),
        pipe(rt, staging_buffers_per_device),
        reg(mpath::tuning::registry_from_topology(sys)),
        cfg(reg) {
    gpus = sys.topology.gpus();
  }

  static mt::System make_sys(double jitter_rel) {
    auto s = mt::make_beluga();
    s.costs.jitter_rel = jitter_rel;
    return s;
  }

  [[nodiscard]] std::vector<mt::PathPlan> candidates(
      const mt::PathPolicy& policy) {
    return mt::enumerate_paths(sys.topology, gpus[0], gpus[1], policy);
  }

  [[nodiscard]] ms::LinkId direct_link(mt::DeviceId a, mt::DeviceId b) const {
    return rt.binding().link_for_edge(*sys.topology.direct_edge(a, b));
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Compile
// ---------------------------------------------------------------------------

TEST(GraphCompile, ResolvesResourcesWithoutSimulatedTime) {
  Fixture f;
  const auto paths = f.candidates(mt::PathPolicy::three_gpus());
  const mm::TransferConfig config =
      f.cfg.compute_config(f.gpus[0], f.gpus[1], 64_MiB, paths);
  const double t0 = f.engine.now();
  const auto g = f.pipe.compile_graph(f.gpus[0], f.gpus[1], config);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(f.engine.now(), t0);  // compile is host-side only
  EXPECT_TRUE(g->valid());
  EXPECT_EQ(g->src_device(), f.gpus[0]);
  EXPECT_EQ(g->dst_device(), f.gpus[1]);
  EXPECT_EQ(g->total_bytes(), 64_MiB);
  ASSERT_EQ(g->key_paths().size(), paths.size());
  EXPECT_FALSE(g->busy());
  EXPECT_EQ(g->replays(), 0u);
  // Active shares only; every staged path carries its reserved events
  // (staging is leased per replay, not at compile).
  std::uint64_t covered = 0;
  for (const auto& p : g->paths()) {
    EXPECT_GT(p.bytes, 0u);
    covered += p.bytes;
    if (p.staged) {
      EXPECT_EQ(p.fwd_events.size(), static_cast<std::size_t>(p.chunks));
      EXPECT_EQ(p.bwd_events.size(), static_cast<std::size_t>(p.chunks));
    }
    EXPECT_EQ(p.chunk_sizes.size(), static_cast<std::size_t>(p.chunks));
  }
  EXPECT_EQ(covered, 64_MiB);
  EXPECT_FALSE(g->ops().empty());
}

TEST(GraphCompile, TakesNoStagingFromThePool) {
  // One staging buffer per device. Templates hold no slot, so two over the
  // same stage both compile, and replaying them one after the other leases
  // and returns that one slot each time.
  Fixture f(0.0, /*staging_buffers_per_device=*/1);
  const auto paths = f.candidates(mt::PathPolicy::two_gpus());
  const auto big = f.cfg.compute_config(f.gpus[0], f.gpus[1], 64_MiB, paths);
  const auto small =
      f.cfg.compute_config(f.gpus[0], f.gpus[1], 32_MiB, paths);
  auto g1 = f.pipe.compile_graph(f.gpus[0], f.gpus[1], big);
  auto g2 = f.pipe.compile_graph(f.gpus[0], f.gpus[1], small);
  ASSERT_NE(g1, nullptr);
  ASSERT_NE(g2, nullptr);
  bool staged = false;
  for (const auto& p : g1->paths()) staged |= p.staged;
  ASSERT_TRUE(staged);
  mg::DeviceBuffer src(f.gpus[0], 64_MiB), dst(f.gpus[1], 64_MiB);
  src.fill_pattern(22);
  int done = 0;
  f.engine.spawn(
      [](Fixture& fx, mp::GraphPtr a, mp::GraphPtr b, mg::DeviceBuffer& d,
         const mg::DeviceBuffer& s, int& n) -> ms::Task<void> {
        n += (co_await fx.pipe.replay(b, d, 0, s, 0, {})).complete ? 1 : 0;
        n += (co_await fx.pipe.replay(a, d, 0, s, 0, {})).complete ? 1 : 0;
      }(f, g1, g2, dst, src, done),
      "replays");
  f.engine.run();
  EXPECT_EQ(done, 2);
  EXPECT_TRUE(dst.same_content(src));
}

TEST(GraphCompile, MirrorsExecuteValidation) {
  Fixture f;
  mm::TransferConfig empty;
  EXPECT_THROW((void)f.pipe.compile_graph(f.gpus[0], f.gpus[1], empty),
               std::invalid_argument);

  mm::TransferConfig bad;
  bad.total_bytes = 1_MiB;
  mm::PathShare share;
  share.plan = {mt::PathKind::GpuStaged, mt::kInvalidDevice};  // no stage
  share.bytes = 1_MiB;
  share.chunks = 4;
  bad.paths.push_back(share);
  EXPECT_THROW((void)f.pipe.compile_graph(f.gpus[0], f.gpus[1], bad),
               std::invalid_argument);

  mm::TransferConfig zero_chunks;
  zero_chunks.total_bytes = 1_MiB;
  mm::PathShare d;
  d.plan = {mt::PathKind::Direct, mt::kInvalidDevice};
  d.bytes = 1_MiB;
  d.chunks = 0;
  zero_chunks.paths.push_back(d);
  EXPECT_THROW((void)f.pipe.compile_graph(f.gpus[0], f.gpus[1], zero_chunks),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Replay identity
// ---------------------------------------------------------------------------

// The core tentpole invariant, at the engine level and with jitter ON: a
// replay issues the exact same runtime-call + issue-cost sequence as
// execute() on the config's shares, so the completion instants (and
// the keyed jitter draws behind them) are bit-identical across two fresh
// engines.
TEST(GraphReplay, BitIdenticalToUncompiledUnderJitter) {
  const std::uint64_t n = 64_MiB;
  double t_classic = 0.0, t_replay = 0.0;
  bool content_classic = false, content_replay = false;

  {
    Fixture f(/*jitter_rel=*/0.02);
    const auto paths = f.candidates(mt::PathPolicy::three_gpus());
    const auto config = f.cfg.compute_config(f.gpus[0], f.gpus[1], n, paths);
    mg::DeviceBuffer src(f.gpus[0], n), dst(f.gpus[1], n);
    src.fill_pattern(21);
    f.engine.spawn(
        [](Fixture& fx, mg::DeviceBuffer& d, const mg::DeviceBuffer& s,
           std::vector<mm::PathShare> plan) -> ms::Task<void> {
          (void)co_await fx.pipe.execute(d, 0, s, 0, plan);
        }(f, dst, src, config.paths),
        "classic");
    f.engine.run();
    t_classic = f.engine.now();
    content_classic = dst.same_content(src);
  }
  {
    Fixture f(/*jitter_rel=*/0.02);
    const auto paths = f.candidates(mt::PathPolicy::three_gpus());
    const auto config = f.cfg.compute_config(f.gpus[0], f.gpus[1], n, paths);
    mg::DeviceBuffer src(f.gpus[0], n), dst(f.gpus[1], n);
    src.fill_pattern(21);
    auto g = f.pipe.compile_graph(f.gpus[0], f.gpus[1], config);
    ASSERT_NE(g, nullptr);
    f.engine.spawn(
        [](Fixture& fx, std::shared_ptr<mp::TransferGraph> gr,
           mg::DeviceBuffer& d, const mg::DeviceBuffer& s) -> ms::Task<void> {
          (void)co_await fx.pipe.replay(std::move(gr), d, 0, s, 0, {});
        }(f, g, dst, src),
        "replay");
    f.engine.run();
    t_replay = f.engine.now();
    content_replay = dst.same_content(src);
    EXPECT_EQ(g->replays(), 1u);
    EXPECT_FALSE(g->busy());
  }
  EXPECT_TRUE(content_classic);
  EXPECT_TRUE(content_replay);
  EXPECT_EQ(t_classic, t_replay);  // bit-identical, not just NEAR
}

// Same invariant under a mid-flight link failure with watchdogs armed: the
// timeout instant, the partial-delivery accounting, and the surviving
// paths' completions must all match the uncompiled path bit for bit.
TEST(GraphReplay, MonitoredTimeoutMatchesUncompiledBitForBit) {
  const std::uint64_t n = 64_MiB;
  const auto run_one = [n](bool compiled, mp::TransferOutcome& out,
                           double& t_out) {
    Fixture f(/*jitter_rel=*/0.01);
    const auto paths = f.candidates(mt::PathPolicy::three_gpus());
    const auto config = f.cfg.compute_config(f.gpus[0], f.gpus[1], n, paths);
    mp::PathWatchList watch;
    for (const auto& share : config.paths) {
      watch.push_back(
          mp::PathWatch{std::max(1e-3, 4.0 * share.predicted_time)});
    }
    mg::DeviceBuffer src(f.gpus[0], n), dst(f.gpus[1], n);
    src.fill_pattern(22);
    // Sever the direct link mid-transfer; its watchdog fires, the staged
    // paths finish normally.
    const auto link = f.direct_link(f.gpus[0], f.gpus[1]);
    f.engine.schedule_callback(100e-6,
                               [&f, link] { f.net.set_link_capacity(link, 0.0); });
    std::shared_ptr<mp::TransferGraph> g;
    if (compiled) {
      g = f.pipe.compile_graph(f.gpus[0], f.gpus[1], config);
      ASSERT_NE(g, nullptr);
    }
    f.engine.spawn(
        [](Fixture& fx, std::shared_ptr<mp::TransferGraph> gr,
           mm::TransferConfig cf, mg::DeviceBuffer& d,
           const mg::DeviceBuffer& s, mp::PathWatchList w,
           mp::TransferOutcome& res) -> ms::Task<void> {
          if (gr != nullptr) {
            res = co_await fx.pipe.replay(std::move(gr), d, 0, s, 0, w);
          } else {
            res = co_await fx.pipe.execute(d, 0, s, 0, cf.paths, w);
          }
        }(f, g, config, dst, src, watch, out),
        compiled ? "replay" : "classic");
    f.engine.run();
    t_out = f.engine.now();
  };
  mp::TransferOutcome classic, replayed;
  double t_classic = 0.0, t_replay = 0.0;
  {
    SCOPED_TRACE("classic");
    run_one(false, classic, t_classic);
  }
  {
    SCOPED_TRACE("replay");
    run_one(true, replayed, t_replay);
  }
  EXPECT_EQ(t_classic, t_replay);
  ASSERT_EQ(classic.paths.size(), replayed.paths.size());
  EXPECT_EQ(classic.complete, replayed.complete);
  EXPECT_FALSE(classic.complete);  // the severed direct path timed out
  for (std::size_t i = 0; i < classic.paths.size(); ++i) {
    EXPECT_EQ(classic.paths[i].bytes, replayed.paths[i].bytes);
    EXPECT_EQ(classic.paths[i].bytes_delivered,
              replayed.paths[i].bytes_delivered);
    EXPECT_EQ(classic.paths[i].timed_out, replayed.paths[i].timed_out);
  }
}

TEST(GraphReplay, SteadyStateReplaysReuseResources) {
  Fixture f;
  const auto paths = f.candidates(mt::PathPolicy::three_gpus());
  const auto config = f.cfg.compute_config(f.gpus[0], f.gpus[1], 32_MiB, paths);
  auto g = f.pipe.compile_graph(f.gpus[0], f.gpus[1], config);
  ASSERT_NE(g, nullptr);
  mg::DeviceBuffer src(f.gpus[0], 32_MiB), dst(f.gpus[1], 32_MiB);
  src.fill_pattern(23);
  const auto pooled_before = f.rt.events_pooled();
  f.engine.spawn(
      [](Fixture& fx, std::shared_ptr<mp::TransferGraph> gr,
         mg::DeviceBuffer& d, const mg::DeviceBuffer& s) -> ms::Task<void> {
        for (int i = 0; i < 3; ++i) {
          const auto out = co_await fx.pipe.replay(gr, d, 0, s, 0, {});
          EXPECT_TRUE(out.complete);
        }
      }(f, g, dst, src),
      "steady");
  f.engine.run();
  EXPECT_TRUE(dst.same_content(src));
  EXPECT_EQ(g->replays(), 3u);
  EXPECT_EQ(f.pipe.transfers_executed(), 3u);
  // Replays never touch the event free-list: the template owns its events.
  EXPECT_EQ(f.rt.events_pooled(), pooled_before);
}

TEST(GraphReplay, BusyTemplateIsRejected) {
  Fixture f;
  const auto paths = f.candidates(mt::PathPolicy::three_gpus());
  const auto config = f.cfg.compute_config(f.gpus[0], f.gpus[1], 32_MiB, paths);
  auto g = f.pipe.compile_graph(f.gpus[0], f.gpus[1], config);
  ASSERT_NE(g, nullptr);
  mg::DeviceBuffer src(f.gpus[0], 32_MiB), dst(f.gpus[1], 32_MiB);
  src.fill_pattern(24);
  bool second_rejected = false;
  f.engine.spawn(
      [](Fixture& fx, std::shared_ptr<mp::TransferGraph> gr,
         mg::DeviceBuffer& d, const mg::DeviceBuffer& s) -> ms::Task<void> {
        (void)co_await fx.pipe.replay(gr, d, 0, s, 0, {});
      }(f, g, dst, src),
      "first");
  f.engine.spawn(
      [](Fixture& fx, std::shared_ptr<mp::TransferGraph> gr,
         mg::DeviceBuffer& d, const mg::DeviceBuffer& s,
         bool& rejected) -> ms::Task<void> {
        try {
          (void)co_await fx.pipe.replay(gr, d, 0, s, 0, {});
        } catch (const std::logic_error&) {
          rejected = true;
        }
      }(f, g, dst, src, second_rejected),
      "second");
  f.engine.run();
  EXPECT_TRUE(second_rejected);
  EXPECT_EQ(g->replays(), 1u);
  EXPECT_FALSE(g->busy());
}

// A staged share carrying a single byte: its chunk count clamps to
// min(chunks, bytes) == 1, so the op list holds one chunk and none of the
// in-flight pipelining ops (no kWaitSlot, which only exists from chunk
// index 2 on). Replay must still deliver.
TEST(GraphCompile, SingleChunkStagedShareIssuesNoWaitSlot) {
  Fixture f;
  const auto paths = f.candidates(mt::PathPolicy::three_gpus());
  mm::TransferConfig config =
      f.cfg.compute_config(f.gpus[0], f.gpus[1], 64_MiB, paths);
  std::size_t staged_idx = 0;
  for (std::size_t i = 1; i < config.paths.size(); ++i) {
    if (config.paths[i].plan.kind == mt::PathKind::GpuStaged) {
      staged_idx = i;
      break;
    }
  }
  ASSERT_GT(staged_idx, 0u) << "topology offers no non-anchor staged path";
  ASSERT_GT(config.paths[staged_idx].chunks, 1);
  // Move all but one of the staged share's bytes onto the anchor.
  config.paths[0].bytes += config.paths[staged_idx].bytes - 1;
  config.paths[staged_idx].bytes = 1;
  const std::uint64_t total = config.total_bytes;
  auto g = f.pipe.compile_graph(f.gpus[0], f.gpus[1], config);
  ASSERT_NE(g, nullptr);

  std::size_t staged_pidx = g->paths().size();
  for (std::size_t i = 0; i < g->paths().size(); ++i) {
    if (g->paths()[i].staged && g->paths()[i].plan_index == staged_idx) {
      staged_pidx = i;
      break;
    }
  }
  ASSERT_LT(staged_pidx, g->paths().size());
  const auto& staged_path = g->paths()[staged_pidx];
  EXPECT_EQ(staged_path.bytes, 1u);
  EXPECT_EQ(staged_path.chunks, 1);
  ASSERT_EQ(staged_path.chunk_sizes.size(), 1u);
  EXPECT_EQ(staged_path.chunk_sizes[0], 1u);
  for (const auto& op : g->ops()) {
    if (op.path == staged_pidx) {
      EXPECT_NE(op.kind, mp::GraphOp::Kind::kWaitSlot);
    }
  }

  mg::DeviceBuffer src(f.gpus[0], total), dst(f.gpus[1], total);
  src.fill_pattern(87);
  f.engine.spawn(
      [](Fixture& fx, std::shared_ptr<mp::TransferGraph> gr,
         mg::DeviceBuffer& d, const mg::DeviceBuffer& s) -> ms::Task<void> {
        const auto out = co_await fx.pipe.replay(gr, d, 0, s, 0, {});
        EXPECT_TRUE(out.complete);
      }(f, g, dst, src),
      "single-chunk");
  f.engine.run();
  EXPECT_TRUE(dst.same_content(src));
}

// ---------------------------------------------------------------------------
// GraphCache
// ---------------------------------------------------------------------------

namespace {

// Events a compiled template holds reserved from the runtime.
std::size_t template_events(const mp::TransferGraph& g) {
  std::size_t n = 0;
  for (const auto& p : g.paths()) {
    n += p.fwd_events.size() + p.bwd_events.size();
  }
  return n;
}

}  // namespace

TEST(GraphCache, HitMissLruEvictionAndRemove) {
  Fixture f;
  const auto paths = f.candidates(mt::PathPolicy::three_gpus());
  const std::uint64_t baseline = f.rt.events_outstanding();
  mp::GraphCache cache;

  const auto compile_for = [&](std::uint64_t bytes) {
    const auto config =
        f.cfg.compute_config(f.gpus[0], f.gpus[1], bytes, paths);
    auto g = f.pipe.compile_graph(f.gpus[0], f.gpus[1], config);
    EXPECT_NE(g, nullptr);
    return g;
  };
  const std::span<const mt::PathPlan> key{paths.data(), paths.size()};
  const auto size_of = [](std::uint64_t i) { return (i + 1) << 20; };

  EXPECT_EQ(cache.lookup(f.gpus[0], f.gpus[1], size_of(0), key, 0), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);

  auto first = compile_for(size_of(0));
  cache.insert(first, 0);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.lookup(f.gpus[0], f.gpus[1], size_of(0), key, 0), first);
  EXPECT_EQ(cache.stats().hits, 1u);
  // Different bytes = different tuple = miss.
  EXPECT_EQ(cache.lookup(f.gpus[0], f.gpus[1], size_of(1), key, 0), nullptr);
  first.reset();  // the cache holds the only reference from here on

  // Fill the cache; the templates from size_of(1) on are held by it alone.
  std::size_t victim_events = 0;
  for (std::uint64_t i = 1; i < mp::kGraphCacheCapacity; ++i) {
    auto g = compile_for(size_of(i));
    if (i == 1) victim_events = template_events(*g);
    cache.insert(std::move(g), 0);
  }
  ASSERT_EQ(cache.size(), mp::kGraphCacheCapacity);
  ASSERT_GT(victim_events, 0u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  // Touch size_of(0) so size_of(1) is the LRU victim of the 33rd template.
  EXPECT_NE(cache.lookup(f.gpus[0], f.gpus[1], size_of(0), key, 0), nullptr);
  auto last = compile_for(size_of(mp::kGraphCacheCapacity));
  const std::uint64_t before = f.rt.events_outstanding();
  cache.insert(std::move(last), 0);
  EXPECT_EQ(cache.size(), mp::kGraphCacheCapacity);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // The evicted template returned its events to the runtime.
  EXPECT_EQ(f.rt.events_outstanding(), before - victim_events);
  EXPECT_EQ(cache.lookup(f.gpus[0], f.gpus[1], size_of(1), key, 0), nullptr);
  EXPECT_NE(cache.lookup(f.gpus[0], f.gpus[1], size_of(0), key, 0), nullptr);

  EXPECT_TRUE(cache.remove(f.gpus[0], f.gpus[1], size_of(0), key));
  EXPECT_FALSE(cache.remove(f.gpus[0], f.gpus[1], size_of(0), key));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(f.rt.events_outstanding(), baseline);
}

TEST(GraphCache, StaleCalibrationVersionInvalidates) {
  Fixture f;
  const auto paths = f.candidates(mt::PathPolicy::three_gpus());
  const std::span<const mt::PathPlan> key{paths.data(), paths.size()};
  mp::GraphCache cache;
  const auto config =
      f.cfg.compute_config(f.gpus[0], f.gpus[1], 8_MiB, paths);
  auto g = f.pipe.compile_graph(f.gpus[0], f.gpus[1], config);
  ASSERT_NE(g, nullptr);
  cache.insert(g, /*cal_version=*/1);
  EXPECT_EQ(cache.lookup(f.gpus[0], f.gpus[1], 8_MiB, key, 1), g);
  // A publication bumped the version: the entry is dropped, not returned.
  EXPECT_EQ(cache.lookup(f.gpus[0], f.gpus[1], 8_MiB, key, 2), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.size(), 0u);
}

// Two gpu1 -> gpu2 requests whose request hashes are equal in all 64 bits
// (found by a brute-force search over sizes), so a key narrowed to any width
// collides: 1.27 GiB over the two-GPU candidates and 6.1 GiB over the
// three-GPU ones. Looking up one while only the other is resident misses;
// once both are resident each finds its own template.
TEST(GraphCache, NarrowKeyCollisionsMissInsteadOfAliasing) {
  Fixture f;
  const auto two = f.candidates(mt::PathPolicy::two_gpus());
  const auto three = f.candidates(mt::PathPolicy::three_gpus());
  constexpr std::uint64_t kTwoBytes = 1358470200;
  constexpr std::uint64_t kThreeBytes = 6565944290;
  ASSERT_EQ(mm::request_hash(f.gpus[0], f.gpus[1], kTwoBytes, two),
            mm::request_hash(f.gpus[0], f.gpus[1], kThreeBytes, three));
  const auto compile_for = [&](std::uint64_t bytes,
                               const std::vector<mt::PathPlan>& paths) {
    const auto config =
        f.cfg.compute_config(f.gpus[0], f.gpus[1], bytes, paths);
    return f.pipe.compile_graph(f.gpus[0], f.gpus[1], config);
  };

  mp::GraphCache cache;
  const auto g_two = compile_for(kTwoBytes, two);
  cache.insert(g_two, 0);
  EXPECT_EQ(cache.lookup(f.gpus[0], f.gpus[1], kThreeBytes, three, 0),
            nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);

  const auto g_three = compile_for(kThreeBytes, three);
  cache.insert(g_three, 0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.lookup(f.gpus[0], f.gpus[1], kTwoBytes, two, 0), g_two);
  EXPECT_EQ(cache.lookup(f.gpus[0], f.gpus[1], kThreeBytes, three, 0),
            g_three);
  // Removing one leaves the other in place.
  EXPECT_TRUE(cache.remove(f.gpus[0], f.gpus[1], kThreeBytes, three));
  EXPECT_EQ(cache.lookup(f.gpus[0], f.gpus[1], kThreeBytes, three, 0),
            nullptr);
  EXPECT_EQ(cache.lookup(f.gpus[0], f.gpus[1], kTwoBytes, two, 0), g_two);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

// ---------------------------------------------------------------------------
// GraphCache under threads (TSan-covered via the CI concurrency regex)
// ---------------------------------------------------------------------------

// Templates are compiled up front on the main thread (compile itself is
// engine-affine and single-threaded by design); only the cache — the one
// shared mutable structure — is hammered from worker threads. Main keeps a
// strong reference to every graph so worker-side evictions never run a
// TransferGraph destructor off the engine thread.
TEST(GraphCacheConcurrent, ParallelLookupInsertRemoveAgree) {
  Fixture f;
  const auto paths = f.candidates(mt::PathPolicy::three_gpus());
  const std::span<const mt::PathPlan> key{paths.data(), paths.size()};
  std::vector<mp::GraphPtr> graphs;
  // More sizes than the cache holds, in a count coprime to the op cycle so
  // every size meets every op. Only the first kRemovable sizes are ever
  // removed: the other kGraphCacheCapacity fill the cache, so inserting a
  // removable size evicts, racing the other threads' lookups.
  constexpr std::uint64_t kSizes = mp::kGraphCacheCapacity + 9;
  constexpr std::uint64_t kRemovable = kSizes - mp::kGraphCacheCapacity;
  for (std::uint64_t i = 1; i <= kSizes; ++i) {
    const auto config =
        f.cfg.compute_config(f.gpus[0], f.gpus[1], i << 20, paths);
    auto g = f.pipe.compile_graph(f.gpus[0], f.gpus[1], config);
    ASSERT_NE(g, nullptr);
    graphs.push_back(std::move(g));
  }

  mp::GraphCache cache;
  std::atomic<bool> aliased{false};
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int it = 0; it < kIters; ++it) {
        const std::uint64_t i = 1 + ((t + it) % kSizes);
        const std::uint64_t bytes = i << 20;
        switch ((t + it) % 4) {
          case 0:
            cache.insert(graphs[i - 1], /*cal_version=*/0);
            break;
          case 1:
            if (i <= kRemovable) {
              cache.remove(f.gpus[0], f.gpus[1], bytes, key);
            }
            break;
          default: {
            const auto hit =
                cache.lookup(f.gpus[0], f.gpus[1], bytes, key, 0);
            if (hit != nullptr && hit->total_bytes() != bytes) {
              aliased.store(true, std::memory_order_relaxed);
            }
            break;
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_FALSE(aliased.load());
  EXPECT_LE(cache.size(), mp::kGraphCacheCapacity);
  const auto s = cache.stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_EQ(s.hits + s.misses,
            static_cast<std::uint64_t>(kThreads) * kIters / 2);
}

TEST(GraphCacheConcurrent, ClearRacesLookupsWithoutTearing) {
  Fixture f;
  const auto paths = f.candidates(mt::PathPolicy::three_gpus());
  const std::span<const mt::PathPlan> key{paths.data(), paths.size()};
  const auto config =
      f.cfg.compute_config(f.gpus[0], f.gpus[1], 8_MiB, paths);
  auto g = f.pipe.compile_graph(f.gpus[0], f.gpus[1], config);
  ASSERT_NE(g, nullptr);

  mp::GraphCache cache;
  std::atomic<bool> stop{false};
  std::atomic<bool> aliased{false};
  std::thread churn([&] {
    for (int i = 0; i < 4000; ++i) {
      cache.insert(g, 0);
      cache.clear();
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        const auto hit = cache.lookup(f.gpus[0], f.gpus[1], 8_MiB, key, 0);
        if (hit != nullptr && hit->total_bytes() != 8_MiB) {
          aliased.store(true);
        }
      }
    });
  }
  churn.join();
  for (auto& r : readers) r.join();
  EXPECT_FALSE(aliased.load());
  EXPECT_LE(cache.size(), 1u);
}

// ---------------------------------------------------------------------------
// admit_replay (scheduler ledger equivalence)
// ---------------------------------------------------------------------------

TEST(Scheduler, AdmitReplayRegistersTheCompiledLedgerEntry) {
  Fixture f;
  mp::TransferScheduler sched(f.pipe, f.cfg);
  const auto paths = f.candidates(mt::PathPolicy::three_gpus());
  const std::span<const mt::PathPlan> key{paths.data(), paths.size()};

  // A fresh uncontended admission (the compile source)...
  const auto adm = sched.admit(f.gpus[0], f.gpus[1], 64_MiB, key);
  ASSERT_NE(adm.ticket, mp::TransferScheduler::kInvalidTicket);
  EXPECT_TRUE(adm.uncontended);
  sched.depart(adm.ticket);

  // ...whose config a later replay re-registers identically.
  const auto rep = sched.admit_replay(f.gpus[0], f.gpus[1], 64_MiB, key,
                                      adm.config);
  ASSERT_NE(rep.ticket, mp::TransferScheduler::kInvalidTicket);
  EXPECT_TRUE(rep.uncontended);
  EXPECT_EQ(sched.live_count(), 1u);
  sched.depart(rep.ticket);
  EXPECT_EQ(sched.live_count(), 0u);
  EXPECT_EQ(sched.stats().replay_admits, 1u);
  EXPECT_GE(sched.stats().footprint_checks, 2u);
  EXPECT_EQ(sched.stats().footprint_mismatches, 0u);
  EXPECT_TRUE(sched.audit().empty());
}

TEST(Scheduler, AdmitReplayRejectsMismatchedTemplate) {
  Fixture f;
  mp::TransferScheduler sched(f.pipe, f.cfg);
  const auto paths = f.candidates(mt::PathPolicy::three_gpus());
  const std::span<const mt::PathPlan> key{paths.data(), paths.size()};
  const auto adm = sched.admit(f.gpus[0], f.gpus[1], 64_MiB, key);
  sched.depart(adm.ticket);

  // Wrong size for the compiled config: the template no longer describes
  // the request, so the scheduler demands a recompile.
  const auto rep =
      sched.admit_replay(f.gpus[0], f.gpus[1], 32_MiB, key, adm.config);
  EXPECT_EQ(rep.ticket, mp::TransferScheduler::kInvalidTicket);
  EXPECT_EQ(sched.stats().replay_plan_mismatches, 1u);
  EXPECT_EQ(sched.live_count(), 0u);
  EXPECT_TRUE(sched.audit().empty());
}

TEST(Scheduler, AdmitReplayRejectsWhenLinksAreContended) {
  Fixture f;
  mp::TransferScheduler sched(f.pipe, f.cfg);
  const auto paths = f.candidates(mt::PathPolicy::three_gpus());
  const std::span<const mt::PathPlan> key{paths.data(), paths.size()};
  const auto adm = sched.admit(f.gpus[0], f.gpus[1], 64_MiB, key);
  sched.depart(adm.ticket);

  // A live flow now occupies the direct link (gpu0 -> gpu1 is also a hop of
  // the staged candidates' link set): the compiled solo split would be
  // wrong, so the replay is refused and the caller must plan fresh.
  const mt::PathPlan direct_only[] = {{mt::PathKind::Direct,
                                       mt::kInvalidDevice}};
  const auto blocker = sched.admit(f.gpus[0], f.gpus[1], 64_MiB,
                                   std::span<const mt::PathPlan>(direct_only));
  ASSERT_NE(blocker.ticket, mp::TransferScheduler::kInvalidTicket);
  const auto rep =
      sched.admit_replay(f.gpus[0], f.gpus[1], 64_MiB, key, adm.config);
  EXPECT_EQ(rep.ticket, mp::TransferScheduler::kInvalidTicket);
  EXPECT_GE(sched.stats().replay_rejects, 1u);
  sched.depart(blocker.ticket);

  // Links free again: the same template is admissible.
  const auto again =
      sched.admit_replay(f.gpus[0], f.gpus[1], 64_MiB, key, adm.config);
  ASSERT_NE(again.ticket, mp::TransferScheduler::kInvalidTicket);
  sched.depart(again.ticket);
  EXPECT_EQ(sched.stats().footprint_mismatches, 0u);
  EXPECT_TRUE(sched.audit().empty());
}

// ---------------------------------------------------------------------------
// Channel fast path
// ---------------------------------------------------------------------------

namespace {

/// Run `count` identical sequential transfers through a channel, recording
/// each completion instant.
std::vector<double> run_series(Fixture& f, mg::DataChannel& ch,
                               std::uint64_t bytes, int count) {
  std::vector<double> finish;
  finish.reserve(static_cast<std::size_t>(count));
  mg::DeviceBuffer src(f.gpus[0], bytes), dst(f.gpus[1], bytes);
  src.fill_pattern(31);
  f.engine.spawn(
      [](Fixture& fx, mg::DataChannel& c, mg::DeviceBuffer& d,
         const mg::DeviceBuffer& s, std::uint64_t n, int k,
         std::vector<double>& out) -> ms::Task<void> {
        for (int i = 0; i < k; ++i) {
          co_await c.transfer(d, 0, s, 0, n);
          out.push_back(fx.engine.now());
          EXPECT_TRUE(d.same_content(s));
        }
      }(f, ch, dst, src, bytes, count, finish),
      "series");
  f.engine.run();
  return finish;
}

}  // namespace

// The CI gate in miniature: the same transfer series through the same
// channel, with and without a GraphCache, completes at bit-identical
// instants — under jitter, so the jitter keys are verified too.
TEST(ChannelGraphs, FastPathFingerprintsAreBitIdentical) {
  const std::uint64_t n = 48_MiB;
  std::vector<double> base, compiled;
  {
    Fixture f(/*jitter_rel=*/0.02);
    mp::ModelDrivenChannel ch(f.pipe, f.cfg, mt::PathPolicy::three_gpus());
    base = run_series(f, ch, n, 4);
  }
  {
    Fixture f(/*jitter_rel=*/0.02);
    mp::GraphCache cache;
    mp::ModelDrivenOptions opts;
    opts.graphs = &cache;
    mp::ModelDrivenChannel ch(f.pipe, f.cfg, mt::PathPolicy::three_gpus(),
                              opts);
    compiled = run_series(f, ch, n, 4);
    EXPECT_EQ(ch.graph_stats().compiles, 1u);
    EXPECT_EQ(ch.graph_stats().replays_fresh, 1u);
    EXPECT_EQ(ch.graph_stats().replays, 3u);
    EXPECT_EQ(cache.stats().hits, 3u);
  }
  ASSERT_EQ(base.size(), compiled.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i], compiled[i]) << "transfer " << i;
  }
}

// More distinct staged sizes from one source than its staging pools hold
// buffers (four): each template leases staging per replay, so no cached
// template starves the next size's transfer, and two rounds over the sizes
// complete at the instants of a no-graphs twin.
TEST(ChannelGraphs, MoreDistinctSizesThanStagingSlotsMatchUncompiled) {
  const std::uint64_t sizes[] = {4_MiB, 6_MiB, 8_MiB, 10_MiB, 12_MiB, 14_MiB};
  const auto rounds = [&sizes](bool graphs) {
    Fixture f(/*jitter_rel=*/0.02);
    mp::GraphCache cache;
    mp::ModelDrivenOptions opts;
    if (graphs) opts.graphs = &cache;
    mp::ModelDrivenChannel ch(f.pipe, f.cfg, mt::PathPolicy::three_gpus(),
                              opts);
    std::vector<double> finish;
    for (int round = 0; round < 2; ++round) {
      for (const std::uint64_t n : sizes) {
        const std::vector<double> t = run_series(f, ch, n, 1);
        finish.insert(finish.end(), t.begin(), t.end());
      }
    }
    EXPECT_GT(f.pipe.bytes_on(mt::PathKind::GpuStaged), 0u);
    if (graphs) {
      EXPECT_EQ(ch.graph_stats().compiles, std::size(sizes));
      EXPECT_EQ(ch.graph_stats().replays, std::size(sizes));
    }
    return finish;
  };
  const std::vector<double> plain = rounds(false);
  const std::vector<double> compiled = rounds(true);
  ASSERT_EQ(plain.size(), 2 * std::size(sizes));
  ASSERT_EQ(compiled.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(compiled[i], plain[i]) << "transfer " << i;
  }
}

TEST(ChannelGraphs, ScheduledFastPathAdmitsReplaysAndBalancesLedger) {
  Fixture f;
  mp::TransferScheduler sched(f.pipe, f.cfg);
  mp::GraphCache cache;
  mp::ModelDrivenOptions opts;
  opts.graphs = &cache;
  mp::ModelDrivenChannel ch(f.pipe, sched, f.cfg,
                            mt::PathPolicy::three_gpus(), opts);
  run_series(f, ch, 48_MiB, 4);
  EXPECT_EQ(ch.graph_stats().compiles, 1u);
  EXPECT_EQ(ch.graph_stats().replays_fresh, 1u);
  EXPECT_EQ(ch.graph_stats().replays, 3u);
  EXPECT_EQ(sched.stats().replay_admits, 3u);
  EXPECT_EQ(sched.live_count(), 0u);
  EXPECT_GE(sched.stats().footprint_checks, 4u);
  EXPECT_EQ(sched.stats().footprint_mismatches, 0u);
}

TEST(ChannelGraphs, ContendedReplayFallsBackToFreshPlan) {
  Fixture f;
  mp::TransferScheduler sched(f.pipe, f.cfg);
  mp::GraphCache cache;
  mp::ModelDrivenOptions opts;
  opts.graphs = &cache;
  mp::ModelDrivenChannel ch(f.pipe, sched, f.cfg,
                            mt::PathPolicy::three_gpus(), opts);
  mp::ModelDrivenChannel other(f.pipe, sched, f.cfg,
                               mt::PathPolicy::three_gpus(), opts);

  // Warm the template with an uncontended transfer.
  run_series(f, ch, 48_MiB, 1);
  ASSERT_EQ(ch.graph_stats().compiles, 1u);

  // Now run the same tuple while another scheduled transfer occupies
  // overlapping links: the replay must be refused and planned fresh.
  mg::DeviceBuffer src_a(f.gpus[0], 256_MiB), dst_a(f.gpus[2], 256_MiB);
  mg::DeviceBuffer src_b(f.gpus[0], 48_MiB), dst_b(f.gpus[1], 48_MiB);
  src_a.fill_pattern(32);
  src_b.fill_pattern(33);
  f.engine.spawn(
      [](mg::DataChannel& c, mg::DeviceBuffer& d,
         const mg::DeviceBuffer& s) -> ms::Task<void> {
        co_await c.transfer(d, 0, s, 0, 256_MiB);
      }(other, dst_a, src_a),
      "blocker");
  f.engine.spawn(
      [](mg::DataChannel& c, mg::DeviceBuffer& d,
         const mg::DeviceBuffer& s) -> ms::Task<void> {
        co_await c.transfer(d, 0, s, 0, 48_MiB);
      }(ch, dst_b, src_b),
      "contended");
  f.engine.run();
  EXPECT_TRUE(dst_a.same_content(src_a));
  EXPECT_TRUE(dst_b.same_content(src_b));
  EXPECT_GE(ch.graph_stats().contended_rejects, 1u);
  EXPECT_EQ(sched.stats().footprint_mismatches, 0u);
  EXPECT_EQ(sched.live_count(), 0u);
}

// ---------------------------------------------------------------------------
// Invalidation edges (the satellite coverage)
// ---------------------------------------------------------------------------

TEST(ChannelGraphs, CalibrationPublishInvalidatesTemplates) {
  Fixture f;
  mm::CalibrationStore store;
  f.cfg.set_calibration(&store);
  mp::GraphCache cache;
  mp::ModelDrivenOptions opts;
  opts.graphs = &cache;
  mp::ModelDrivenChannel ch(f.pipe, f.cfg, mt::PathPolicy::three_gpus(),
                            opts);
  run_series(f, ch, 48_MiB, 2);
  EXPECT_EQ(ch.graph_stats().compiles, 1u);
  EXPECT_EQ(ch.graph_stats().replays, 1u);

  // Publish a recalibration: the cached template was compiled under the old
  // snapshot, so the next transfer must recompile, not replay stale state.
  store.publish(mm::PathCalKey::of(f.gpus[0], f.gpus[1],
                                   {mt::PathKind::Direct, mt::kInvalidDevice}),
                mm::PathCalibration{1.0, 1.25});
  run_series(f, ch, 48_MiB, 2);
  EXPECT_EQ(ch.graph_stats().compiles, 2u);
  EXPECT_GE(cache.stats().invalidations, 1u);
}

TEST(ChannelGraphs, HealthProbationBlocksReplayOfTemplatePath) {
  Fixture f;
  mp::GraphCache cache;
  mp::ModelDrivenOptions opts;
  opts.graphs = &cache;
  opts.recovery.enabled = true;
  opts.health.enabled = true;
  mp::ModelDrivenChannel ch(f.pipe, f.cfg, mt::PathPolicy::three_gpus(),
                            opts);

  const auto link = f.direct_link(f.gpus[0], f.gpus[1]);
  mg::DeviceBuffer src(f.gpus[0], 48_MiB), dst(f.gpus[1], 48_MiB);
  src.fill_pattern(34);
  f.engine.spawn(
      [](Fixture& fx, mp::ModelDrivenChannel& c, ms::LinkId l,
         mg::DeviceBuffer& d, const mg::DeviceBuffer& s) -> ms::Task<void> {
        // Healthy transfer compiles the template.
        co_await c.transfer(d, 0, s, 0, 48_MiB);
        // Sever the direct link: this transfer times out mid-flight (the
        // template path goes into probation via the watchdog) and recovers
        // over the survivors.
        fx.net.set_link_capacity(l, 0.0);
        co_await c.transfer(d, 0, s, 0, 48_MiB);
        // The direct path is now suspect: the cached template (which
        // carries it) must NOT be replayed.
        co_await c.transfer(d, 0, s, 0, 48_MiB);
      }(f, ch, link, dst, src),
      "flap");
  f.engine.run();
  EXPECT_TRUE(dst.same_content(src));
  EXPECT_GE(ch.recovery_stats().path_timeouts, 1u);
  EXPECT_GE(ch.graph_stats().health_fallbacks, 1u);
  EXPECT_EQ(ch.graph_stats().compiles, 1u);
}

// ASan coverage for the by-value snapshot semantics: dropping a template
// from the cache while its replay is still executing must be safe — the
// replay frame's shared_ptr keeps the graph (and its events) alive until
// the frame completes.
TEST(ChannelGraphs, LruEvictionDuringReplayIsSafe) {
  Fixture f;
  mp::GraphCache cache;
  mp::ModelDrivenOptions opts;
  opts.graphs = &cache;
  mp::ModelDrivenChannel ch(f.pipe, f.cfg, mt::PathPolicy::three_gpus(),
                            opts);

  // Warm the 48 MiB template; watch it without keeping it alive.
  run_series(f, ch, 48_MiB, 1);
  ASSERT_EQ(cache.size(), 1u);
  const auto paths = f.candidates(mt::PathPolicy::three_gpus());
  const std::span<const mt::PathPlan> key{paths.data(), paths.size()};
  const std::weak_ptr<mp::TransferGraph> watched =
      cache.lookup(f.gpus[0], f.gpus[1], 48_MiB, key, 0);
  ASSERT_FALSE(watched.expired());

  mg::DeviceBuffer src(f.gpus[0], 48_MiB), dst(f.gpus[1], 48_MiB);
  src.fill_pattern(35);
  // The transfer replays the template; 50 us in, the cache drops it.
  f.engine.spawn(
      [](mg::DataChannel& c, mg::DeviceBuffer& d,
         const mg::DeviceBuffer& s) -> ms::Task<void> {
        co_await c.transfer(d, 0, s, 0, 48_MiB);
      }(ch, dst, src),
      "replaying");
  bool busy_at_remove = false;
  bool removed = false;
  f.engine.schedule_callback(f.engine.now() + 50e-6, [&] {
    busy_at_remove = watched.lock()->busy();
    removed = cache.remove(f.gpus[0], f.gpus[1], 48_MiB, key);
  });
  f.engine.run();
  EXPECT_TRUE(busy_at_remove);
  EXPECT_TRUE(removed);
  EXPECT_TRUE(dst.same_content(src));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(ch.graph_stats().replays, 1u);
  // The replay frame held the last reference; the template died with it.
  EXPECT_TRUE(watched.expired());
}
