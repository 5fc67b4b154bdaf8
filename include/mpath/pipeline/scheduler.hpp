// Node-level joint transfer scheduler.
//
// Each ModelDrivenChannel used to run Algorithm 1 as if it owned the node:
// under concurrent transfers the fluid network's max-min arbitration makes
// every solo plan's predicted T_i wrong, and the theta splits fight each
// other for the same links. The scheduler is the node-wide fix: every
// transfer is admitted through it, so planning sees the live contention
// state —
//
//   * admission plans the arriving transfer with model::JointThetaSolver:
//     a capped max-min water-fill over the fluid links' capacities, with
//     every in-flight transfer's paths as fixed flows and non-scheduler
//     traffic folded in as per-link background weight snapshotted from
//     FluidNetwork::link_flow_weight;
//   * the resulting per-path rates replace the solo Omegas in the Eq. 24
//     equal-time solve, so both the split and the predicted times are
//     contention-aware (recovery watchdog deadlines inherit the slack
//     automatically);
//   * departures / failures / recovery re-plans update the footprint, so
//     later admissions water-fill against reality;
//   * link-capacity changes (sever/degrade/restore) close the residue
//     integration window at the instant they happen, so the elapsed window
//     integrates at the capacities that governed it.
//
// The contention state is kept current, not rebuilt per call: the per-link
// own weights (the ledger that separates this scheduler's paths from
// background traffic) and the live-flow view change only on register,
// re-plan, retire and when a path's modeled residue drains, and the
// water-fill reads each live path's FixedFlow in place. The view's order —
// live-ticket order x path order, drained paths skipped — is the
// water-fill's flow order and so part of every result: retire keeps its
// swap-remove. audit() recounts the ledger. A path's links come from the
// runtime's route table (topo::NetworkBinding::route), the one the copies
// themselves run over, so footprints and flows name the same links.
//
// Prediction accounting: each admission records a predicted duration. The
// record stays live ("unfrozen") while the simulated clock has not advanced
// past the admit instant, and same-timestamp admissions refresh each
// other's predictions — a K-transfer storm arriving at one instant ends up
// with all K predictions solved against the full set. The first event at a
// strictly later time freezes the prediction; `history()` then pairs it
// with the measured completion for |predicted - simulated| / simulated
// reporting (the bench/multi_tenant gate).
//
// Single-threaded like the rest of the simulator: the scheduler is driven
// from coroutines on one sim::Engine.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mpath/model/configurator.hpp"
#include "mpath/model/theta.hpp"
#include "mpath/pipeline/engine.hpp"

namespace mpath::pipeline {

struct SchedulerOptions {
  /// When false, admissions solve solo Eq. 24 exactly like an unscheduled
  /// ModelDrivenChannel — same admission bookkeeping, same history records.
  /// This is the ablation baseline the joint gate compares against.
  bool joint = true;
};

class TransferScheduler {
 public:
  using TicketId = std::uint64_t;
  static constexpr TicketId kInvalidTicket = 0;

  struct Admission {
    TicketId ticket = kInvalidTicket;
    model::TransferConfig config;
    /// The plan was solved with nothing else on its links: no live flow
    /// shares them, no background traffic, and the joint water-fill applied
    /// no rate override (or the scheduler runs in solo mode, where plans
    /// never depend on contention). Only uncontended admissions produce
    /// configs worth compiling into a replay template — their split is a
    /// pure function of (tuple, calibration), so a later admit_replay can
    /// reproduce the identical ledger entry.
    bool uncontended = false;
  };

  /// One admitted transfer's ledger entry (kept after departure).
  struct Record {
    double t_admit = 0.0;
    double t_depart = -1.0;    ///< simulated completion; -1 while in flight
    double predicted_s = 0.0;  ///< frozen planner prediction (duration)
    std::uint64_t bytes = 0;
    int replans = 0;
    bool failed = false;
    [[nodiscard]] bool completed() const { return t_depart >= 0.0 && !failed; }
    [[nodiscard]] double actual_s() const { return t_depart - t_admit; }
  };

  struct Stats {
    std::uint64_t admitted = 0;
    std::uint64_t departed = 0;
    std::uint64_t failed = 0;
    std::uint64_t replans = 0;
    std::uint64_t joint_iterations = 0;  ///< summed solver rounds
    std::uint64_t capacity_events = 0;   ///< observed link capacity changes
    std::uint64_t replay_admits = 0;     ///< admit_replay accepted
    std::uint64_t replay_rejects = 0;    ///< admit_replay: links contended
    /// admit_replay: compiled config no longer describes the request
    /// (size/path-set drift) — caller must recompile.
    std::uint64_t replay_plan_mismatches = 0;
    /// Departure-side invariant: every depart/fail re-derives the ticket's
    /// link footprint and checks it against what admission charged.
    std::uint64_t footprint_checks = 0;
    std::uint64_t footprint_mismatches = 0;  ///< should stay 0
  };

  /// Both references must outlive the scheduler. The configurator supplies
  /// Algorithm 1's prepare/config halves; theta comes from the joint solve.
  TransferScheduler(PipelineEngine& engine,
                    model::PathConfigurator& configurator,
                    SchedulerOptions options = {});
  ~TransferScheduler();
  TransferScheduler(const TransferScheduler&) = delete;
  TransferScheduler& operator=(const TransferScheduler&) = delete;

  /// Plan one transfer against the live contention state and register it as
  /// in-flight. `paths` must be non-empty; paths[0] is the anchor.
  [[nodiscard]] Admission admit(topo::DeviceId src, topo::DeviceId dst,
                                std::uint64_t bytes,
                                std::span<const topo::PathPlan> paths);

  /// Admit a transfer that will *replay* a compiled template instead of
  /// being freshly planned. Accepts only when the compiled split is still
  /// exactly what a fresh admission would produce: the template must
  /// describe this request (same bytes and candidate paths — else
  /// replay_plan_mismatches), and under joint planning nothing else may
  /// touch the template's links (no live scheduled flow, no background
  /// traffic — else replay_rejects). On acceptance the ticket and history
  /// record are registered exactly as admit() would, using the compiled
  /// config's terms, so the departure-side ledger is indistinguishable
  /// from a fresh admission. A rejected admission returns kInvalidTicket;
  /// the caller falls back to a fresh compile.
  [[nodiscard]] Admission admit_replay(topo::DeviceId src, topo::DeviceId dst,
                                       std::uint64_t bytes,
                                       std::span<const topo::PathPlan> paths,
                                       const model::TransferConfig& compiled);

  /// Recovery re-plan: replace the ticket's footprint with a fresh joint
  /// plan for the undelivered `bytes` over the `survivors` subset
  /// (survivors[0] is the anchor, configure_over semantics). The ticket's
  /// history record is continued, not re-created.
  [[nodiscard]] model::TransferConfig replan(
      TicketId ticket, std::uint64_t bytes,
      std::span<const topo::PathPlan> survivors);

  /// The transfer completed: stamp its record and release its footprint.
  void depart(TicketId ticket);
  /// The transfer aborted (TransferError): record the failure and release
  /// its footprint so later plans stop water-filling against it.
  void fail(TicketId ticket);

  /// Invariant check, empty when consistent. Reports a violation when the
  /// per-link own-weight ledger differs from a recount over the live
  /// tickets, when the live-flow view (if current) is not exactly the
  /// undrained paths in ticket x path order, when an in-flight record has
  /// no live ticket or a live ticket's record is closed, or when a
  /// departure footprint mismatched.
  [[nodiscard]] std::vector<std::string> audit() const;

  [[nodiscard]] std::size_t live_count() const { return live_.size(); }
  [[nodiscard]] const std::vector<Record>& history() const { return records_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const SchedulerOptions& options() const { return options_; }
  [[nodiscard]] model::PathConfigurator& configurator() {
    return *configurator_;
  }

 private:
  /// One live path's modeled residue: the water-fill flow it contributes
  /// (its fluid links and solo rate cap) and how much latency/payload is
  /// still ahead of it. A path whose remaining bytes reach 0 is drained: it
  /// stays in its ticket (the departure footprint check counts it) but no
  /// longer water-fills or weighs on its links.
  struct LivePath {
    model::FixedFlow flow;
    double remaining_delta = 0.0;
    double remaining_bytes = 0.0;
  };
  struct Ticket {
    TicketId id = kInvalidTicket;
    std::size_t record = 0;  ///< index into records_
    double t_admit = 0.0;
    topo::DeviceId src = 0;
    topo::DeviceId dst = 0;
    bool frozen = false;  ///< prediction final (clock moved past t_admit)
    util::SmallVec<LivePath, 4> paths;
    /// Sorted link ids admission charged to this ticket (its attributed
    /// water-fill weight). depart/fail re-derive the footprint from the
    /// live paths and verify it matches — a mismatch means a replay or
    /// replan released different weight than admission charged.
    util::SmallVec<std::uint32_t, 8> charged;
  };

  /// One request's fresh plan and its candidates' solo terms and links.
  struct Planned {
    model::TransferConfig config;
    util::SmallVec<model::JointPath, 4> jpaths;
    bool squeezed = false;  ///< the water-fill capped a path below solo
  };
  /// Plan one transfer over `paths` (paths[0] = anchor) without
  /// registering it — a joint water-fill with every live flow (refreshing
  /// their predictions), or a solo solve. Admission and recovery re-plans
  /// share it.
  [[nodiscard]] Planned plan_request(topo::DeviceId src, topo::DeviceId dst,
                                     std::uint64_t bytes,
                                     std::span<const topo::PathPlan> paths);
  /// Advance every live path's modeled residue to `now` at the current
  /// water-fill rates and freeze predictions whose admit instant has
  /// passed. Called at the top of every public mutation.
  void integrate_to(double now);
  /// Current per-link capacities + non-scheduler background weight (the
  /// network's flow weight minus the ledger's own weight).
  [[nodiscard]] std::span<const model::JointLink> snapshot_links();
  /// Every undrained live path's flow, in live-ticket order x path order;
  /// owners_ holds (ticket index, path index) per flow. Rebuilt only after
  /// a register, re-plan, retire or drain changed it. The order is part of
  /// the result: it is the water-fill's flow order, so ties freeze in it.
  [[nodiscard]] std::span<const model::FixedFlow* const> live_flows();
  /// Fluid links occupied by `plan` while streaming (both hops of a staged
  /// path — they are pipelined, so they are concurrently loaded), read from
  /// the runtime's route table, which lowers each pair once.
  [[nodiscard]] util::SmallVec<std::uint32_t, 4> plan_links(
      topo::DeviceId src, topo::DeviceId dst, const topo::PathPlan& plan);
  /// Refresh the prediction of every unfrozen ticket from its residue and
  /// the given per-flow rates (aligned with owners_).
  void refresh_predictions(std::span<const double> rates);
  /// Live residues for the carrying shares of `config`, charged at the
  /// links and solo terms `solo` gives each path (parallel to the shares).
  [[nodiscard]] static util::SmallVec<LivePath, 4> live_paths(
      const model::TransferConfig& config,
      std::span<const model::JointPath> solo);
  /// Add `weight` (+1 or -1) per traversal of each of the ticket's
  /// undrained paths to the own-weight ledger.
  void charge(const Ticket& t, double weight);
  /// Register a live ticket and its history record for an admitted
  /// config: the one place admission and replay charge the ledger.
  [[nodiscard]] TicketId register_ticket(
      topo::DeviceId src, topo::DeviceId dst, std::uint64_t bytes,
      const model::TransferConfig& config,
      std::span<const model::JointPath> solo, double now);
  [[nodiscard]] std::size_t find(TicketId ticket);
  /// Verify and release the live ticket at `index`, stamping its record
  /// departed (or failed) at `now`: the one place a ticket leaves. The
  /// last ticket moves into its slot (swap-remove), which is what fixes
  /// the live-flow order.
  void retire(std::size_t index, double now, bool failed);
  /// Sorted union (with multiplicity) of the ticket's live-path links.
  [[nodiscard]] static util::SmallVec<std::uint32_t, 8> footprint_of(
      const Ticket& t);
  /// Check the satellite invariant before releasing `index`: the footprint
  /// being released is the one admission charged.
  void verify_footprint(std::size_t index);
  /// True when any live scheduled flow or background traffic touches a
  /// link of one of `paths`.
  [[nodiscard]] bool links_contended(
      std::span<const model::JointPath> paths) const;

  PipelineEngine* engine_;
  model::PathConfigurator* configurator_;
  SchedulerOptions options_;
  sim::FluidNetwork* net_;
  std::uint64_t capacity_listener_ = 0;
  std::vector<Ticket> live_;
  std::vector<Record> records_;
  Stats stats_;
  TicketId next_id_ = 1;
  double last_event_ = 0.0;
  /// Per fluid link, the scheduler's own weight: one per traversal by an
  /// undrained live path. Kept current on register, re-plan, retire and
  /// drain; audit() recounts it.
  std::vector<double> own_;
  std::vector<const model::FixedFlow*> flows_;
  std::vector<std::pair<std::size_t, std::size_t>> owners_;
  bool flows_stale_ = false;
  std::vector<model::JointLink> links_;
  model::JointThetaSolver solver_;
};

}  // namespace mpath::pipeline
