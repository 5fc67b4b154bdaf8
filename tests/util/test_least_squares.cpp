#include "mpath/util/least_squares.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "mpath/util/rng.hpp"

namespace mu = mpath::util;

TEST(LeastSquares, ExactLine) {
  const std::vector<double> xs{1, 2, 3, 4};
  const std::vector<double> ys{3, 5, 7, 9};  // y = 1 + 2x
  const auto fit = mu::fit_line(xs, ys);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(LeastSquares, RecoversHockneyParamsFromNoisyData) {
  // Simulated transfer times T = alpha + n/beta with 1% noise: the fit
  // must recover parameters to a few percent — this is exactly the
  // parameter-extraction step of the paper (Fig. 2a Step 1).
  const double alpha = 5e-6;
  const double beta = 46e9;
  std::vector<double> ns, ts;
  for (double n = 1e6; n <= 512e6; n *= 2) {
    ns.push_back(n);
    ts.push_back((alpha + n / beta) * mu::keyed_jitter(123, ns.size(), 0.01));
  }
  const auto fit = mu::fit_line(ns, ts);
  EXPECT_NEAR(1.0 / fit.slope, beta, 0.05 * beta);
  // The intercept is tiny relative to the times of large messages; just
  // check it's in a sane band.
  EXPECT_GT(fit.intercept, -1e-4);
  EXPECT_LT(fit.intercept, 1e-3);
  EXPECT_GT(fit.r_squared, 0.999);
}

TEST(LeastSquares, ThrowsOnDegenerateInput) {
  const std::vector<double> one{1.0};
  EXPECT_THROW((void)mu::fit_line(one, one), std::invalid_argument);
  const std::vector<double> xs{2.0, 2.0};
  const std::vector<double> ys{1.0, 3.0};
  EXPECT_THROW((void)mu::fit_line(xs, ys), std::invalid_argument);
  const std::vector<double> a{1.0, 2.0}, b{1.0};
  EXPECT_THROW((void)mu::fit_line(a, b), std::invalid_argument);
}

TEST(LeastSquares, Proportional) {
  const std::vector<double> xs{1, 2, 4};
  const std::vector<double> ys{2, 4, 8};
  EXPECT_NEAR(mu::fit_proportional(xs, ys), 2.0, 1e-12);
  const std::vector<double> zeros{0.0, 0.0};
  EXPECT_THROW((void)mu::fit_proportional(zeros, zeros),
               std::invalid_argument);
}
