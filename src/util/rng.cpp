#include "mpath/util/rng.hpp"

#include <array>
#include <cmath>
#include <cstddef>

namespace mpath::util {

namespace {

constexpr std::size_t kKnots = 4097;  ///< 4,096 cells, one per top-12 bits

/// Φ⁻¹((i + 0.5) / kKnots) for every knot i, by Acklam's rational
/// approximation (relative error below 1.15e-9, far inside what the
/// linear interpolation between knots changes). It costs no iteration and
/// no erfc, so building the table takes tens of microseconds. The right
/// half mirrors the left, so the table is exactly antisymmetric and the
/// draws' mean is exactly 1.
std::array<double, kKnots> normal_quantiles() {
  constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                          -2.759285104469687e+02, 1.383577518672690e+02,
                          -3.066479806614716e+01, 2.506628277459239e+00};
  constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                          -1.556989798598866e+02, 6.680131188771972e+01,
                          -1.328068155288572e+01};
  constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                          -2.400758277161838e+00, -2.549732539343734e+00,
                          4.374664141464968e+00,  2.938163982698783e+00};
  constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                          2.445134137142996e+00, 3.754408661907416e+00};
  std::array<double, kKnots> q{};  // the middle knot, p = 0.5, stays 0
  for (std::size_t i = 0; i < kKnots / 2; ++i) {
    const double p = (static_cast<double>(i) + 0.5) / kKnots;
    double x = 0.0;
    if (p < 0.02425) {  // lower tail
      const double t = std::sqrt(-2.0 * std::log(p));
      x = (((((c[0] * t + c[1]) * t + c[2]) * t + c[3]) * t + c[4]) * t +
           c[5]) /
          ((((d[0] * t + d[1]) * t + d[2]) * t + d[3]) * t + 1.0);
    } else {  // central region
      const double u = p - 0.5;
      const double r = u * u;
      x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
           a[5]) *
          u /
          (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
    }
    q[i] = x;
    q[kKnots - 1 - i] = -x;
  }
  return q;
}

}  // namespace

double keyed_jitter(std::uint64_t key, std::uint64_t index, double rel_sigma) {
  if (rel_sigma <= 0.0) return 1.0;
  static const std::array<double, kKnots> quantiles = normal_quantiles();
  const std::uint64_t h = mix_seed(key, index);
  const double* cell = quantiles.data() + (h >> 52);
  const double t =
      static_cast<double>(h & ((std::uint64_t{1} << 52) - 1)) * 0x1p-52;
  const double z = cell[0] + t * (cell[1] - cell[0]);
  const double j = 1.0 + rel_sigma * z;
  return j > 0.01 ? j : 0.01;
}

}  // namespace mpath::util
