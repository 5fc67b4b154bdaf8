#include "mpath/util/rng.hpp"

#include <gtest/gtest.h>

#include <random>

namespace mu = mpath::util;

TEST(Rng, NoJitterIsOneAndAdvancesLikeAnyDraw) {
  // A twin generator drawing standard normals stays in step with
  // jitter(sigma <= 0): same engine state after every draw, so a run with
  // jitter off consumes the generator exactly like a run with jitter on.
  for (const double sigma : {0.0, -0.01}) {
    mu::Rng rng(11);
    std::mt19937_64 twin(11);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(rng.jitter(sigma), 1.0) << "sigma " << sigma << " draw " << i;
      std::normal_distribution<double> d(0.0, 1.0);
      (void)d(twin);
      ASSERT_EQ(rng.engine(), twin) << "sigma " << sigma << " draw " << i;
    }
  }
}

TEST(Rng, ZeroAndPositiveSigmaConsumeTheGeneratorAlike) {
  mu::Rng off(5);
  mu::Rng on(5);
  for (int i = 0; i < 1000; ++i) {
    (void)off.jitter(0.0);
    const double j = on.jitter(0.01);
    EXPECT_GT(j, 0.9);
    EXPECT_LT(j, 1.1);
  }
  EXPECT_EQ(off.engine(), on.engine());
  EXPECT_EQ(off.uniform(0.0, 1.0), on.uniform(0.0, 1.0));
}
