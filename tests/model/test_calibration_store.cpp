// CalibrationStore snapshot semantics (copy-on-write versioning, shared
// snapshot lifetime, identity-by-absence), the configurator's
// version-stamped cache invalidation, and the multi-threaded reader race
// the TSan CI job replays.
#include "mpath/model/calibration_store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "mpath/model/configurator.hpp"
#include "mpath/topo/system.hpp"

namespace mm = mpath::model;
namespace mt = mpath::topo;

namespace {

struct Fixture {
  mt::System sys = mt::make_beluga();
  std::vector<mt::DeviceId> gpus = sys.topology.gpus();
  mt::DeviceId host = sys.topology.hosts()[0];
  mm::ModelRegistry reg{"beluga"};

  Fixture() {
    for (auto a : gpus) {
      for (auto b : gpus) {
        if (a != b) reg.set_route_params(a, b, {3e-6, 46e9});
      }
      reg.set_route_params(a, host, {6e-6, 11.5e9});
      reg.set_route_params(host, a, {6e-6, 11.5e9});
    }
    reg.set_epsilon(mt::PathKind::GpuStaged, 1.5e-6);
    reg.set_epsilon(mt::PathKind::HostStaged, 4e-6);
    reg.set_issue_alpha(1.2e-6);
  }

  std::vector<mt::PathPlan> paths(const mt::PathPolicy& policy) {
    return mt::enumerate_paths(sys.topology, gpus[0], gpus[1], policy);
  }
};

mt::PathPlan direct() { return {mt::PathKind::Direct, mt::kInvalidDevice}; }

bool same_config(const mm::TransferConfig& a, const mm::TransferConfig& b) {
  if (a.total_bytes != b.total_bytes ||
      a.predicted_time != b.predicted_time ||
      a.paths.size() != b.paths.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.paths.size(); ++i) {
    if (a.paths[i].bytes != b.paths[i].bytes ||
        a.paths[i].chunks != b.paths[i].chunks ||
        a.paths[i].theta != b.paths[i].theta ||
        a.paths[i].predicted_time != b.paths[i].predicted_time) {
      return false;
    }
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// CalibrationStore
// ---------------------------------------------------------------------------

TEST(CalibrationStore, PristineStoreIsEmptyIdentityVersionZero) {
  mm::CalibrationStore store;
  EXPECT_EQ(store.version(), 0u);
  EXPECT_EQ(store.snapshot_count(), 1u);
  const auto snap = store.snapshot();
  EXPECT_EQ(snap->size(), 0u);
  EXPECT_EQ(snap->find(0, 1, direct()), nullptr);
}

TEST(CalibrationStore, PublishInstallsNewVersionAndRetainsOld) {
  mm::CalibrationStore store;
  const auto v0 = store.snapshot();
  const auto key = mm::PathCalKey::of(0, 1, direct());
  EXPECT_EQ(store.publish(key, {1.1, 0.5, 7}), 1u);
  // The held snapshot stays alive and unchanged (copy-on-write).
  EXPECT_EQ(v0->version(), 0u);
  EXPECT_EQ(v0->find(0, 1, direct()), nullptr);
  const auto v1 = store.snapshot();
  EXPECT_EQ(v1->version(), 1u);
  const auto* cal = v1->find(0, 1, direct());
  ASSERT_NE(cal, nullptr);
  EXPECT_DOUBLE_EQ(cal->alpha_scale, 1.1);
  EXPECT_DOUBLE_EQ(cal->beta_scale, 0.5);
  EXPECT_EQ(cal->samples, 7u);
  EXPECT_FALSE(cal->identity());
  EXPECT_EQ(store.snapshot_count(), 2u);
  // Other paths remain identity-by-absence.
  EXPECT_EQ(v1->find(1, 0, direct()), nullptr);
}

TEST(CalibrationStore, BatchPublishIsOneVersionAndCarriesOverEntries) {
  mm::CalibrationStore store;
  store.publish(mm::PathCalKey::of(0, 1, direct()), {1.0, 0.9, 1});
  const std::vector<std::pair<mm::PathCalKey, mm::PathCalibration>> batch{
      {mm::PathCalKey::of(2, 3, direct()), {1.2, 1.0, 2}},
      {mm::PathCalKey::of(4, 5, direct()), {0.8, 1.1, 3}},
  };
  EXPECT_EQ(store.publish(batch), 2u);
  const auto snap = store.snapshot();
  EXPECT_EQ(snap->size(), 3u);  // earlier entry carried over
  ASSERT_NE(snap->find(0, 1, direct()), nullptr);
  EXPECT_DOUBLE_EQ(snap->find(0, 1, direct())->beta_scale, 0.9);
  ASSERT_NE(snap->find(2, 3, direct()), nullptr);
  ASSERT_NE(snap->find(4, 5, direct()), nullptr);
}

// Empty-store arithmetic is bit-identical to running with no store at all:
// a missing entry applies NO correction, not a multiply by 1.0.
TEST(CalibrationStore, EmptyStoreIsBitIdenticalToNoStore) {
  Fixture f;
  const auto paths = f.paths(mt::PathPolicy::three_gpus_with_host());
  mm::PathConfigurator bare(f.reg);
  mm::PathConfigurator calibrated(f.reg);
  mm::CalibrationStore store;
  calibrated.set_calibration(&store);
  for (std::uint64_t n : {2u << 20, 17u << 20, 64u << 20, 512u << 20}) {
    const auto a = bare.compute_config(f.gpus[0], f.gpus[1], n, paths);
    const auto b = calibrated.compute_config(f.gpus[0], f.gpus[1], n, paths);
    EXPECT_TRUE(same_config(a, b)) << "n=" << n;
  }
}

TEST(CalibrationStore, ScaledBetaChangesPreparedTermsAndPrediction) {
  Fixture f;
  const auto paths = f.paths(mt::PathPolicy::three_gpus());
  mm::PathConfigurator cfg(f.reg);
  mm::CalibrationStore store;
  cfg.set_calibration(&store);
  const auto before =
      cfg.compute_config(f.gpus[0], f.gpus[1], 64u << 20, paths);
  // Halve the direct path's effective bandwidth.
  store.publish(mm::PathCalKey::of(f.gpus[0], f.gpus[1], direct()),
                {1.0, 0.5, 1});
  const auto after =
      cfg.compute_config(f.gpus[0], f.gpus[1], 64u << 20, paths);
  EXPECT_FALSE(same_config(before, after));
  // A slower direct path carries fewer bytes and the whole transfer slows.
  EXPECT_LT(after.paths[0].bytes, before.paths[0].bytes);
  EXPECT_GT(after.predicted_time, before.predicted_time);
}

// The serial configurator's cache entries are stamped with the snapshot
// version: a publication invalidates them on next hit instead of serving a
// split computed under superseded alpha/beta.
TEST(CalibrationStore, ConfiguratorCacheInvalidatedByPublication) {
  Fixture f;
  const auto paths = f.paths(mt::PathPolicy::three_gpus());
  mm::PathConfigurator cfg(f.reg);
  mm::CalibrationStore store;
  cfg.set_calibration(&store);
  const auto g0 = f.gpus[0], g1 = f.gpus[1];
  (void)cfg.configure(g0, g1, 64u << 20, paths);
  (void)cfg.configure(g0, g1, 64u << 20, paths);
  EXPECT_EQ(cfg.cache_hits(), 1u);
  EXPECT_EQ(cfg.cache_invalidations(), 0u);

  store.publish(mm::PathCalKey::of(g0, g1, direct()), {1.0, 0.5, 1});
  const auto& recomputed = cfg.configure(g0, g1, 64u << 20, paths);
  EXPECT_EQ(cfg.cache_invalidations(), 1u);
  EXPECT_TRUE(same_config(recomputed,
                          cfg.compute_config(g0, g1, 64u << 20, paths)));
  // The refreshed entry is stamped with the new version: hits again.
  (void)cfg.configure(g0, g1, 64u << 20, paths);
  EXPECT_EQ(cfg.cache_hits(), 2u);
  EXPECT_EQ(cfg.cache_invalidations(), 1u);
}

// Regression: replacing a cached entry on calibration invalidation must
// keep the recency list consistent. The bookkeeping once repointed the
// entry at another key's node, so with a bounded cache an eviction after
// an invalidation left a dangling recency iterator and the next hit spliced
// freed memory. Interleaving publications, hits, and evictions on a
// capacity-2 plan cache stamped with the store's versions walks exactly
// that path (ASan/UBSan CI replays this).
TEST(CalibrationStore, InvalidationThenEvictionKeepsLruConsistent) {
  Fixture f;
  const auto paths = f.paths(mt::PathPolicy::three_gpus());
  mm::PlanCache<int> cache(2);
  mm::CalibrationStore store;
  const auto g0 = f.gpus[0], g1 = f.gpus[1];
  const auto key = mm::PathCalKey::of(g0, g1, direct());
  // PathConfigurator::configure's protocol: a hit under the current
  // version, else plan (here: the size in MiB) and insert.
  const auto configure = [&](std::uint64_t bytes) {
    if (const int* hit =
            cache.find(g0, g1, bytes, paths, store.version())) {
      return *hit;
    }
    return cache.insert(g0, g1, bytes, paths, store.version(),
                        static_cast<int>(bytes >> 20));
  };
  const std::uint64_t a = 4u << 20, b = 8u << 20, c = 16u << 20;
  for (int round = 0; round < 8; ++round) {
    configure(a);
    configure(b);
    // Invalidate both residents, then re-plan them and hit the new entry.
    store.publish(key, {1.0, 0.9 - 0.01 * round, 1});
    configure(a);
    configure(b);
    EXPECT_EQ(configure(b), 8);
    // A third request evicts the LRU resident; the survivor must still hit
    // through a valid recency node.
    configure(c);
    EXPECT_EQ(configure(b), 8);
    EXPECT_LE(cache.size(), 2u);
  }
  EXPECT_GE(cache.stats().invalidations, 8u);
  EXPECT_GE(cache.stats().evictions, 8u);
  EXPECT_GE(cache.stats().hits, 16u);
}

// Readers racing a publisher: snapshot() never blocks on the writer mutex,
// any snapshot observed is internally consistent (and stays alive while
// held), and versions never go backwards. This suite runs under TSan in CI.
TEST(CalibrationStore, ConcurrentReadersNeverSeeTornSnapshots) {
  mm::CalibrationStore store;
  constexpr int kPublications = 200;
  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<bool> ok{true};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const auto snap = store.snapshot();
        const std::uint64_t v = snap->version();
        if (v < last) ok.store(false, std::memory_order_relaxed);
        // Snapshot invariant: version v holds exactly min(v, 1) entries
        // for the single key this test publishes, with beta == 1/(v+1).
        if (v > 0) {
          const auto* cal = snap->find(0, 1, direct());
          if (cal == nullptr ||
              cal->beta_scale != 1.0 / static_cast<double>(v + 1)) {
            ok.store(false, std::memory_order_relaxed);
          }
        }
        last = v;
      }
    });
  }
  const auto key = mm::PathCalKey::of(0, 1, direct());
  for (int i = 1; i <= kPublications; ++i) {
    store.publish(key, {1.0, 1.0 / static_cast<double>(i + 1),
                        static_cast<std::uint64_t>(i)});
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(store.version(), static_cast<std::uint64_t>(kPublications));
  EXPECT_EQ(store.snapshot_count(),
            static_cast<std::size_t>(kPublications) + 1);
}
