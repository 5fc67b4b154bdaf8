// Versioned per-path calibration snapshots.
//
// The paper's Algorithm 1 runs from offline-fitted Hockney (alpha, beta);
// on a real node those drift (thermals, PCIe renegotiation, neighbour
// traffic). The CalibrationStore closes that gap without perturbing the
// paper-faithful arithmetic: it holds immutable snapshots of per-path
// multiplicative corrections {alpha_scale, beta_scale}, published
// copy-on-write under a mutex; readers copy the reference-counted current
// snapshot pointer under the same mutex and then read the snapshot without
// holding it. A monotonically increasing version number travels with every
// snapshot so configuration caches can stamp entries and invalidate them on
// publication instead of being flushed.
//
// A path with no entry in the current snapshot gets *no* correction applied
// — not a multiply by 1.0 — so an empty store is bit-identical to running
// without one (the paper-faithful mode the benches gate on).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <utility>

#include "mpath/topo/paths.hpp"

namespace mpath::model {

/// Multiplicative correction to every hop of one candidate path:
/// alpha' = alpha * alpha_scale, beta' = beta * beta_scale. A beta_scale
/// below 1 models a link delivering less bandwidth than the offline fit.
struct PathCalibration {
  double alpha_scale = 1.0;
  double beta_scale = 1.0;
  std::uint64_t samples = 0;  ///< observations folded into this entry

  [[nodiscard]] bool identity() const {
    return alpha_scale == 1.0 && beta_scale == 1.0;
  }
};

/// Identity of one calibrated path: the (src, dst, plan) tuple the
/// configurator resolves parameters for.
struct PathCalKey {
  topo::DeviceId src = 0;
  topo::DeviceId dst = 0;
  topo::PathKind kind = topo::PathKind::Direct;
  topo::DeviceId stage = topo::kInvalidDevice;

  friend auto operator<=>(const PathCalKey&, const PathCalKey&) = default;

  [[nodiscard]] static PathCalKey of(topo::DeviceId src, topo::DeviceId dst,
                                     const topo::PathPlan& plan) {
    return PathCalKey{src, dst, plan.kind, plan.stage};
  }
};

/// One immutable published calibration state. Never mutated after
/// publication; safe to read from any thread without synchronization.
class CalibrationSnapshot {
 public:
  [[nodiscard]] std::uint64_t version() const { return version_; }
  /// The correction for this path, or nullptr when none was learned (the
  /// caller must then leave the base parameters untouched).
  [[nodiscard]] const PathCalibration* find(topo::DeviceId src,
                                            topo::DeviceId dst,
                                            const topo::PathPlan& plan) const {
    const auto it = entries_.find(PathCalKey::of(src, dst, plan));
    return it != entries_.end() ? &it->second : nullptr;
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const std::map<PathCalKey, PathCalibration>& entries() const {
    return entries_;
  }

 private:
  friend class CalibrationStore;
  std::uint64_t version_ = 0;
  std::map<PathCalKey, PathCalibration> entries_;
};

/// Read-mostly store of calibration snapshots. One mutex guards the current
/// shared snapshot pointer: readers (`snapshot()`, `version()`) hold it only
/// to copy the pointer (or read the version); writers (`publish()`) hold it
/// to copy the current entry map, apply their updates and install the copy
/// as version N+1. A snapshot lives exactly as long as the store or an
/// outstanding reader still references it, so a reader holding a snapshot
/// across a publication never races reclamation, and superseded snapshots
/// are reclaimed instead of accumulating for the store's lifetime.
class CalibrationStore {
 public:
  using SnapshotPtr = std::shared_ptr<const CalibrationSnapshot>;

  CalibrationStore() : current_(std::make_shared<CalibrationSnapshot>()) {}
  CalibrationStore(const CalibrationStore&) = delete;
  CalibrationStore& operator=(const CalibrationStore&) = delete;

  /// The current snapshot. The returned pointer keeps it alive even if
  /// newer versions are published (and reclaim older ones) meanwhile.
  [[nodiscard]] SnapshotPtr snapshot() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return current_;
  }

  /// Version of the current snapshot (0 = pristine identity store).
  [[nodiscard]] std::uint64_t version() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return current_->version();
  }

  /// Publish one updated entry. Returns the new snapshot's version.
  std::uint64_t publish(const PathCalKey& key, const PathCalibration& cal) {
    const std::pair<PathCalKey, PathCalibration> one{key, cal};
    return publish(std::span<const std::pair<PathCalKey, PathCalibration>>(
        &one, 1));
  }

  /// Publish a batch of updated entries as a single new version (entries
  /// not mentioned carry over from the current snapshot).
  std::uint64_t publish(
      std::span<const std::pair<PathCalKey, PathCalibration>> updates) {
    const std::lock_guard<std::mutex> lock(mu_);
    auto next = std::make_shared<CalibrationSnapshot>();
    next->entries_ = current_->entries_;
    for (const auto& [key, cal] : updates) next->entries_[key] = cal;
    next->version_ = current_->version_ + 1;
    current_ = std::move(next);
    return current_->version_;
  }

  /// Snapshots published so far, including the initial identity snapshot.
  /// (Superseded snapshots are freed once the last reader drops them.)
  [[nodiscard]] std::size_t snapshot_count() const {
    return static_cast<std::size_t>(version()) + 1;
  }

 private:
  mutable std::mutex mu_;
  SnapshotPtr current_;
};

}  // namespace mpath::model
