#include "mpath/topo/fuzz.hpp"

#include <gtest/gtest.h>

#include <set>

#include "mpath/util/units.hpp"

namespace mf = mpath::fuzz;
namespace mt = mpath::topo;
using mpath::util::gbps;
using mpath::util::usec;

TEST(FuzzGenerator, PureInSeed) {
  for (std::uint64_t seed : {1ull, 42ull, 0xDEADBEEFull}) {
    const mf::TopoSpec a = mf::generate_topology(seed);
    const mf::TopoSpec b = mf::generate_topology(seed);
    EXPECT_EQ(a.to_json().dump(), b.to_json().dump()) << "seed " << seed;
  }
  // Distinct seeds diverge (astronomically unlikely to collide).
  EXPECT_NE(mf::generate_topology(1).to_json().dump(),
            mf::generate_topology(2).to_json().dump());
}

TEST(FuzzGenerator, MixSeedIsJobCountIndependentAndSpreads) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seen.insert(mf::mix_seed(7, i));
  }
  EXPECT_EQ(seen.size(), 1000u);
  EXPECT_EQ(mf::mix_seed(7, 3), mf::mix_seed(7, 3));
  EXPECT_NE(mf::mix_seed(7, 3), mf::mix_seed(8, 3));
}

TEST(FuzzGenerator, InvariantsHoldOverManySeeds) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const mf::TopoSpec spec = mf::generate_topology(seed);
    ASSERT_GE(static_cast<int>(spec.gpu_count()), mf::kMinGpus);
    ASSERT_LE(static_cast<int>(spec.gpu_count()), mf::kMaxGpus);
    ASSERT_GE(spec.host_count(), 1u);

    // Real hosts (those with a DRAM channel) precede every GPU, so
    // nearest_host() can never land on an NVSwitch pseudo-host.
    std::size_t first_gpu = spec.devices.size();
    for (std::size_t i = 0; i < spec.devices.size(); ++i) {
      if (spec.devices[i].kind == mt::DeviceKind::Gpu) {
        first_gpu = std::min(first_gpu, i);
      }
    }
    for (const mf::MemChannelSpec& m : spec.mem_channels) {
      ASSERT_LT(static_cast<std::size_t>(m.host), first_gpu) << "seed " << seed;
    }

    // Every link respects the generator's ranges.
    for (const mf::EdgeSpec& e : spec.edges) {
      ASSERT_GE(e.capacity_bps, gbps(mf::kMinGbps) * 0.999) << "seed " << seed;
      ASSERT_LE(e.capacity_bps, gbps(mf::kMaxGbps) * 1.001) << "seed " << seed;
      ASSERT_GE(e.latency_s, usec(mf::kMinLatencyUs) * 0.999);
      ASSERT_LE(e.latency_s, usec(mf::kMaxLatencyUs) * 1.001);
      ASSERT_LT(e.from, spec.devices.size());
      ASSERT_LT(e.to, spec.devices.size());
    }

    // Noise-free by construction: flagged mispredicts must be structural.
    ASSERT_EQ(spec.costs.jitter_rel, 0.0);

    // Connected by construction: the spec builds and every ordered GPU
    // pair routes.
    const mt::System system = spec.build();
    ASSERT_TRUE(mf::fully_routable(system.topology)) << "seed " << seed;
  }
}

TEST(FuzzGenerator, JsonRoundTrip) {
  const mf::TopoSpec spec = mf::generate_topology(99);
  const std::string dumped = spec.to_json().dump();
  const mf::TopoSpec back =
      mf::TopoSpec::from_json(mpath::util::json::Value::parse(dumped));
  EXPECT_EQ(back.to_json().dump(), dumped);
  // Doubles survive exactly (%.17g round-trip formatting).
  ASSERT_EQ(back.edges.size(), spec.edges.size());
  for (std::size_t i = 0; i < spec.edges.size(); ++i) {
    EXPECT_EQ(back.edges[i].capacity_bps, spec.edges[i].capacity_bps);
    EXPECT_EQ(back.edges[i].latency_s, spec.edges[i].latency_s);
  }
  EXPECT_EQ(back.costs.rendezvous_s, spec.costs.rendezvous_s);
}

TEST(FuzzGenerator, KindStringsRoundTrip) {
  for (const mt::LinkKind k :
       {mt::LinkKind::NVLink2, mt::LinkKind::NVLink3, mt::LinkKind::NVLink4,
        mt::LinkKind::PCIe3, mt::LinkKind::PCIe4, mt::LinkKind::PCIe5,
        mt::LinkKind::UPI, mt::LinkKind::XGMI, mt::LinkKind::MemChan,
        mt::LinkKind::NVSwitch}) {
    EXPECT_EQ(mf::link_kind_from_string(mt::to_string(k)), k);
  }
  for (const mt::DeviceKind k : {mt::DeviceKind::Gpu, mt::DeviceKind::Host}) {
    EXPECT_EQ(mf::device_kind_from_string(mt::to_string(k)), k);
  }
  EXPECT_THROW((void)mf::link_kind_from_string("warp-drive"),
               std::invalid_argument);
  EXPECT_THROW((void)mf::device_kind_from_string("TPU"),
               std::invalid_argument);
}
