// Online alpha/beta recalibration from observed transfer times.
//
// The feedback half of the learned-link-health loop (Bienz/Gropp-style
// measured-vs-modeled refinement): every completed transfer contributes
// one observation ratio r = actual / predicted per active path. The ratios
// are folded into a per-path EWMA (gain weighted by the path's theta share
// — a path that carried 5% of the message says little about its own
// bandwidth); when a path's smoothed ratio drifts past a threshold, the
// correction is attributed between the latency and bandwidth terms by the
// path's modeled time composition w = theta*n*Omega / (theta*n*Omega +
// Delta), clamped to guard rails against the *base* model, and published
// to the CalibrationStore as a new snapshot. Downstream, configurators
// stamped with the old version recompute on their next lookup.
//
// Observation policy: callers should only feed transfers that completed
// without watchdog timeouts — a severed path's stall is a fault (the
// PathHealthManager's job), not parameter drift, and folding it in would
// slam the guard rails for no benefit — and that ran the config they
// report: an attempt that carried probe slices had its anchor's share cut
// short, so its measured time belongs to a different split.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>

#include "mpath/model/calibration_store.hpp"
#include "mpath/model/configurator.hpp"

namespace mpath::model {

/// Guard rails: cumulative scales are clamped into
/// [kMinCalibrationScale, kMaxCalibrationScale] relative to the base
/// (registry) parameters.
inline constexpr double kMinCalibrationScale = 0.25;
inline constexpr double kMaxCalibrationScale = 4.0;

struct RecalibratorStats {
  std::uint64_t observations = 0;  ///< transfers folded in
  std::uint64_t publications = 0;  ///< snapshots published
  std::uint64_t clamped = 0;       ///< scale updates limited by guard rails
};

class Recalibrator {
 public:
  /// The store must outlive the recalibrator.
  explicit Recalibrator(CalibrationStore& store) : store_(&store) {}
  Recalibrator(const Recalibrator&) = delete;
  Recalibrator& operator=(const Recalibrator&) = delete;

  /// Fold one completed transfer in: `config` is the plan it ran under
  /// (per-path theta, terms and predicted times), `actual_s` its measured
  /// duration. Publishes a new calibration snapshot when any path's drift
  /// crosses the threshold. Thread-safe.
  void observe(topo::DeviceId src, topo::DeviceId dst,
               const TransferConfig& config, double actual_s);

  [[nodiscard]] RecalibratorStats stats() const;

 private:
  struct Ewma {
    double ratio = 1.0;  ///< smoothed actual/predicted
    int samples = 0;     ///< observations since the last publication
  };

  CalibrationStore* store_;
  mutable std::mutex mu_;
  std::map<PathCalKey, Ewma> ewma_;
  RecalibratorStats stats_;
};

}  // namespace mpath::model
