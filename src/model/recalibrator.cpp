#include "mpath/model/recalibrator.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

namespace mpath::model {

/// EWMA gain per unit theta: a path carrying the whole message moves its
/// smoothed ratio by this fraction of the residual per observation.
constexpr double kGain = 0.25;
/// Publish once |smoothed ratio - 1| exceeds this (and kMinSamples met).
constexpr double kDriftThreshold = 0.05;
/// Observations required on a path before its first publication.
constexpr int kMinSamples = 3;

void Recalibrator::observe(topo::DeviceId src, topo::DeviceId dst,
                           const TransferConfig& config, double actual_s) {
  if (actual_s <= 0.0 || config.predicted_time <= 0.0) return;
  const double n = static_cast<double>(config.total_bytes);
  // The equal-time theta solve makes every active path's predicted finish
  // ~the transfer's predicted finish, and only the transfer-level duration
  // is observable — so each active path is charged the transfer ratio,
  // confidence-weighted by its theta share.
  const double ratio = actual_s / config.predicted_time;

  std::vector<std::pair<PathCalKey, PathCalibration>> updates;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.observations;
    const CalibrationStore::SnapshotPtr snap = store_->snapshot();
    for (const PathShare& share : config.paths) {
      if (share.bytes == 0 || share.predicted_time <= 0.0) continue;
      const PathCalKey key = PathCalKey::of(src, dst, share.plan);
      Ewma& e = ewma_[key];
      const double g = std::min(1.0, kGain * share.theta);
      e.ratio += g * (ratio - e.ratio);
      ++e.samples;
      if (e.samples < kMinSamples ||
          std::abs(e.ratio - 1.0) <= kDriftThreshold) {
        continue;
      }
      // Attribute the residual between the bandwidth and latency terms by
      // their share of the modeled path time: a big message's drift is a
      // bandwidth story, a tiny one's is latency.
      const double bw_time = share.theta * n * share.terms.omega;
      const double path_time = bw_time + share.terms.delta;
      const double w = path_time > 0.0 ? bw_time / path_time : 1.0;
      const double bw_corr = 1.0 + w * (e.ratio - 1.0);
      const double lat_corr = 1.0 + (1.0 - w) * (e.ratio - 1.0);
      const PathCalibration* cur = snap->find(src, dst, share.plan);
      const PathCalibration base = cur != nullptr ? *cur : PathCalibration{};
      PathCalibration next;
      // Slower than predicted (ratio > 1) means less effective bandwidth
      // (beta_scale shrinks) and more startup latency (alpha_scale grows).
      // A non-positive bw_corr would flip the correction's sign, so it is
      // pinned to the guard-rail floor (and counted as clamped below).
      const double raw_beta = bw_corr > 0.0 ? base.beta_scale / bw_corr
                                            : kMinCalibrationScale;
      const double raw_alpha = base.alpha_scale * lat_corr;
      next.beta_scale =
          std::clamp(raw_beta, kMinCalibrationScale, kMaxCalibrationScale);
      next.alpha_scale =
          std::clamp(raw_alpha, kMinCalibrationScale, kMaxCalibrationScale);
      next.samples = base.samples + static_cast<std::uint64_t>(e.samples);
      // Detect guard-rail hits against the pre-clamp values directly: a
      // multiply/divide round-trip comparison can misfire on FP rounding.
      if (bw_corr <= 0.0 || next.beta_scale != raw_beta ||
          next.alpha_scale != raw_alpha) {
        ++stats_.clamped;
      }
      updates.emplace_back(key, next);
      // The published scales absorb the drift seen so far; the EWMA starts
      // over so residual error is measured against the *new* model.
      e = Ewma{};
    }
    if (!updates.empty()) ++stats_.publications;
  }
  if (!updates.empty()) store_->publish(updates);
}

RecalibratorStats Recalibrator::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace mpath::model
