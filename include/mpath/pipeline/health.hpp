// Per-path health state machine with probation and readmission.
//
// Since PR 2 a path whose watchdog fired was dead for the rest of its
// transfer — and because the candidate set is rebuilt per transfer, the
// *next* transfer would retry the dead path at its full theta share and
// eat another watchdog stall. The PathHealthManager replaces both failure
// modes with a persistent (channel-lifetime) state machine per
// (src, dst, path):
//
//       healthy ──timeout──▶ suspect ──probe──▶ probation
//          ▲                    ▲                  │ │
//          │                    └───probe failed───┘ │
//          └────── probe ok (readmission) ◀──────────┘
//                               │
//            dead ◀── kDeadAfter consecutive failures
//             │  ▲
//             └──┴── readmission probes on an exponentially
//                    backed-off cooldown
//
// Suspect/dead paths are excluded from the theta solve; instead they get a
// small probe slice carved out of the anchor path's share on subsequent
// transfers (a suspect path is due a probe at once). A probe that delivers
// its slice readmits the path into the active set (state erased — pristine
// healthy); failures escalate an extra per-path watchdog-slack multiplier
// and, past kDeadAfter consecutive failures, an exponential probe cooldown
// bounded by kMaxCooldownS. Single-threaded like the channel that owns it.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "mpath/topo/paths.hpp"

namespace mpath::pipeline {

enum class PathHealth { kHealthy, kSuspect, kProbation, kDead };

struct HealthOptions {
  /// Master switch. Off (default) preserves the PR 2 drop-for-the-transfer
  /// behaviour exactly — paper-faithful mode.
  bool enabled = false;
  /// First readmission-probe cooldown once dead; grows by kHealthBackoff
  /// per further failure up to kMaxCooldownS.
  double dead_cooldown_s = 20e-3;
};

/// Probe slice: this fraction of the segment, clamped to
/// [kMinProbeBytes, kMaxProbeBytes] and never more than the segment.
inline constexpr double kProbeFraction = 0.05;
inline constexpr std::uint64_t kMinProbeBytes = 256 * 1024;
inline constexpr std::uint64_t kMaxProbeBytes = 8ull << 20;
/// Consecutive failures (initial timeout + failed probes) before a path is
/// declared dead and moves to the cooldown schedule.
inline constexpr int kDeadAfter = 3;
/// Per-failure growth of a path's extra watchdog-slack multiplier and of
/// the dead-path probe cooldown.
inline constexpr double kHealthBackoff = 2.0;
/// Bound on the extra slack multiplier (composes with the transfer-level
/// retry escalation, escalated_slack()).
inline constexpr double kMaxPathSlackFactor = 8.0;
/// Bound on the dead-path probe cooldown.
inline constexpr double kMaxCooldownS = 500e-3;

struct HealthStats {
  std::uint64_t timeouts = 0;         ///< failures reported (any state)
  std::uint64_t probes_launched = 0;
  std::uint64_t probes_failed = 0;
  std::uint64_t probes_succeeded = 0;
  std::uint64_t deaths = 0;           ///< transitions into kDead
  /// Paths restored by a successful probation probe — the readmission
  /// mechanism actually proving the path healthy again.
  std::uint64_t readmissions = 0;
  /// Tracked-but-unprobed paths (suspect, or dead paths force-included when
  /// nothing else was healthy) cleared by delivering a regular share. Not a
  /// readmission: no probe was issued.
  std::uint64_t suspect_clears = 0;
};

class PathHealthManager {
 public:
  /// Throws std::invalid_argument unless 0 <= dead_cooldown_s <=
  /// kMaxCooldownS.
  explicit PathHealthManager(HealthOptions options = {})
      : options_(validated(options)) {}

  /// Split `candidates` into paths to plan over (`active`) and paths due a
  /// probe slice right now (`probes`). Healthy paths are always active;
  /// suspect/dead paths land in `probes` once their next-probe time has
  /// passed, else nowhere. If nothing is active the caller should fall
  /// back to probing everything (see force_probes).
  void partition(topo::DeviceId src, topo::DeviceId dst,
                 const std::vector<topo::PathPlan>& candidates, double now,
                 std::vector<topo::PathPlan>* active,
                 std::vector<topo::PathPlan>* probes) const;

  /// The caller actually carved a probe slice for this path: transition to
  /// probation. (partition() only proposes; unissued probes stay due.)
  void on_probe_issued(topo::DeviceId src, topo::DeviceId dst,
                       const topo::PathPlan& plan);

  /// The path's watchdog fired (planned share or probe slice).
  void on_timeout(topo::DeviceId src, topo::DeviceId dst,
                  const topo::PathPlan& plan, double now);

  /// The path delivered its slice. Readmits non-healthy paths (state
  /// erased); a no-op for paths with no tracked state.
  void on_success(topo::DeviceId src, topo::DeviceId dst,
                  const topo::PathPlan& plan, double now);

  /// Extra watchdog-slack multiplier for this path (1 when healthy).
  [[nodiscard]] double slack_multiplier(topo::DeviceId src,
                                        topo::DeviceId dst,
                                        const topo::PathPlan& plan) const;

  /// Probe slice size for a segment of `total` bytes.
  [[nodiscard]] std::uint64_t probe_bytes(std::uint64_t total) const;

  [[nodiscard]] PathHealth state(topo::DeviceId src, topo::DeviceId dst,
                                 const topo::PathPlan& plan) const;
  [[nodiscard]] const HealthStats& stats() const { return stats_; }
  [[nodiscard]] const HealthOptions& options() const { return options_; }
  [[nodiscard]] std::size_t tracked_count() const { return entries_.size(); }
  void reset() { entries_.clear(); }

 private:
  struct Key {
    topo::DeviceId src = 0;
    topo::DeviceId dst = 0;
    topo::PathKind kind = topo::PathKind::Direct;
    topo::DeviceId stage = topo::kInvalidDevice;
    friend auto operator<=>(const Key&, const Key&) = default;
  };
  struct Entry {
    PathHealth state = PathHealth::kSuspect;
    int fail_streak = 0;
    double slack_mult = 1.0;
    double next_probe_t = 0.0;
    double cooldown_s = 0.0;
  };

  [[nodiscard]] static Key key_of(topo::DeviceId src, topo::DeviceId dst,
                                  const topo::PathPlan& plan) {
    return Key{src, dst, plan.kind, plan.stage};
  }

  /// Returns `options` unchanged or throws std::invalid_argument.
  [[nodiscard]] static HealthOptions validated(const HealthOptions& options);

  HealthOptions options_;
  /// Only unhealthy paths are tracked; absence means healthy.
  std::map<Key, Entry> entries_;
  HealthStats stats_;
};

}  // namespace mpath::pipeline
