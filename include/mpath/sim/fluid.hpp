// Fluid-flow network model with max-min fair bandwidth sharing.
//
// Each transfer ("flow") occupies a set of directed links simultaneously
// (cut-through). Active flows share every link max-min fairly: whenever a
// flow starts, finishes, or is cancelled, or a link's capacity changes,
// allocations are re-solved by water-filling in that same call, and the
// network's one completion timer is re-armed at the earliest finish (or
// disarmed when no flow can finish). This reproduces the contention
// phenomena behind the paper's evaluation — saturated NVLink, shared
// PCIe/UPI on host-staged paths, and bidirectional interference — without
// packet-level simulation.
//
// The solver is *incremental*: every link keeps the set of flows that
// traverse it, a flow add/remove only dirties the links it touches, and the
// water-filling re-solve is restricted to the connected component of the
// flow/link sharing graph reachable from the dirty links (flows in disjoint
// components cannot change rate, so their allocations are reused as-is).
// All completions that land on one timestamp drain together and share one
// re-solve. Within a pass, bottleneck selection runs over a
// lazily-invalidated min-heap keyed by (fair share, LinkId) instead of a
// linear rescan, so a component of n links water-fills in O(n log n) rather
// than O(n^2). The original whole-network solver is retained as
// `reference_rates()`, the oracle that `set_self_check` audits every
// re-solve against.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mpath/sim/engine.hpp"
#include "mpath/sim/task.hpp"
#include "mpath/util/small_vec.hpp"

namespace mpath::sim {

class Tracer;

using LinkId = std::uint32_t;
/// Opaque handle to an in-flight flow (valid until completion/cancel).
using FlowId = std::uint64_t;
inline constexpr FlowId kInvalidFlow = 0;

/// A route through the link graph. Every shipped topology's paths are at
/// most 3 edges (direct peer, host-staged up/down), so 4 inline slots keep
/// route handling off the heap; longer synthetic routes spill transparently.
using Route = util::SmallVec<LinkId, 4>;

struct LinkSpec {
  std::string name;
  double capacity_bps = 0.0;  ///< bytes per second, > 0
  double latency_s = 0.0;     ///< per-traversal startup latency, >= 0
};

class FluidNetwork {
 public:
  /// Counters describing solver work done so far (monotonic).
  struct SolverStats {
    /// Flow starts and cancels, capacity changes and completion drains.
    std::uint64_t resolve_requests = 0;
    /// Requests absorbed by a pending solve: stays 0, since every request
    /// re-solves in place. Kept for the metrics that report it.
    std::uint64_t coalesced = 0;
    std::uint64_t resolves = 0;     ///< water-filling passes actually run
    std::uint64_t full_resolves = 0;     ///< passes that visited every link
    std::uint64_t flows_resolved = 0;    ///< flow-rate assignments summed
    std::uint64_t links_resolved = 0;    ///< component link visits summed
    std::uint64_t heap_pushes = 0;   ///< bottleneck-heap entries pushed
    std::uint64_t heap_reinserts = 0;  ///< stale keys re-queued on pop
    std::uint64_t timers_fired = 0;      ///< completion timers processed
    /// Superseded timers discarded: stays 0, since re-arming the completion
    /// timer replaces its pending firing instead of queueing another. Kept
    /// for the metrics that report it.
    std::uint64_t timers_stale = 0;
    std::uint64_t cancelled_flows = 0;   ///< flows aborted via cancel_flow
    std::uint64_t capacity_changes = 0;  ///< set_link_capacity calls
  };

  explicit FluidNetwork(Engine& engine)
      : engine_(&engine),
        completion_timer_(engine, [this] { on_completion_timer(); }) {}
  FluidNetwork(const FluidNetwork&) = delete;
  FluidNetwork& operator=(const FluidNetwork&) = delete;

  /// Register a directed link. Throws std::invalid_argument unless the
  /// capacity is finite and > 0 and the latency finite and >= 0.
  LinkId add_link(LinkSpec spec);

  [[nodiscard]] const LinkSpec& link(LinkId id) const;
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }

  /// Change a link's capacity mid-simulation (fault injection / dynamic
  /// contention). `bps == 0` severs the link: flows traversing it stall at
  /// rate 0 (they stay live and resume if capacity is restored; cancel them
  /// via cancel_flow to abort). Only the connected component containing the
  /// link is re-solved. Throws std::out_of_range on a bad id and
  /// std::invalid_argument unless the capacity is finite and >= 0.
  void set_link_capacity(LinkId id, double bps);

  /// Capacity-change notification: invoked synchronously from
  /// set_link_capacity after in-flight bytes have been credited at the old
  /// rates but BEFORE the new capacity takes effect — so a listener that
  /// integrates modeled state (the transfer scheduler) brackets its window
  /// at the rates that actually governed it, and the first query after the
  /// call sees the new capacity. Listeners must not mutate the network.
  using CapacityListener = InlineFn<void(LinkId, double /*old_bps*/,
                                         double /*new_bps*/)>;
  /// Register a listener; returns a handle for remove_capacity_listener.
  std::uint64_t add_capacity_listener(CapacityListener fn);
  /// Deregister; returns false if the handle is unknown (already removed).
  bool remove_capacity_listener(std::uint64_t handle);

  /// Move `bytes` across `route`. Pays the sum of the route's latencies
  /// once, then streams at the flow's max-min fair rate until done. A
  /// route may traverse the same link more than once (each traversal
  /// consumes a share). An empty route completes after zero time. Throws
  /// std::invalid_argument (when awaited) on NaN bytes.
  [[nodiscard]] Task<void> transfer(Route route, double bytes);
  /// Convenience overload for contiguous containers (vectors, arrays): the
  /// route is copied into inline Route storage, so it stays allocation-free
  /// for routes of <= 4 links.
  [[nodiscard]] Task<void> transfer(std::span<const LinkId> route,
                                    double bytes) {
    return transfer(Route(route), bytes);
  }

  /// Start a flow immediately (no latency leg, no coroutine). The route is
  /// copied into the flow's (inline-capacity, slot-recycled) storage.
  /// Ownership of `done` (may be null) transfers to the network; it fires
  /// on completion or cancellation. Throws std::invalid_argument on an
  /// empty route, non-positive or NaN bytes, or a bad link id.
  FlowId start_flow(std::span<const LinkId> route, double bytes,
                    Latch* done = nullptr);
  FlowId start_flow(std::initializer_list<LinkId> route, double bytes,
                    Latch* done = nullptr) {
    return start_flow(std::span<const LinkId>(route.begin(), route.size()),
                      bytes, done);
  }

  /// Abort an in-flight flow: undelivered bytes are dropped, its completion
  /// latch fires at the current time, and rates re-solve. Returns false if
  /// the id is stale (flow already completed or cancelled).
  bool cancel_flow(FlowId id);

  /// Instantaneous aggregate rate allocated on a link (bytes/s).
  [[nodiscard]] double link_allocated_rate(LinkId id) const;
  /// Instantaneous flow weight on a link: the sum of traversal
  /// multiplicities of live flows crossing it. This is the contention
  /// snapshot the joint transfer scheduler folds into its water-fill as
  /// background load for traffic it does not own.
  [[nodiscard]] double link_flow_weight(LinkId id) const;
  /// Cumulative bytes moved across a link since construction.
  [[nodiscard]] double link_bytes_transferred(LinkId id) const;
  [[nodiscard]] std::size_t active_flow_count() const {
    return active_.size();
  }
  /// Live flows currently pinned at rate 0 by a zero-capacity link.
  [[nodiscard]] std::size_t stalled_flow_count() const;

  /// When enabled, every incremental solve is checked against a full
  /// whole-network water-filling oracle; a rate mismatch beyond 1e-9
  /// relative throws std::logic_error. Test/debug aid.
  void set_self_check(bool on) { self_check_ = on; }

  /// Re-run max-min water-filling over the whole network from scratch and
  /// return the rate of every active flow (unordered). Does not modify
  /// solver state — this is the reference oracle used by tests.
  [[nodiscard]] std::vector<double> reference_rates() const;

  [[nodiscard]] const SolverStats& stats() const { return stats_; }

  /// Emit per-resolve counter samples ("rate_resolves", "resolved_flows")
  /// onto `tracer` track "fluid". Pass nullptr to detach.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  struct Flow {
    // Route normalised to distinct links with traversal multiplicity; a
    // double traversal consumes two shares but the flow still gets one
    // bottleneck share as its rate (matching the per-traversal solver).
    // Inline small-vectors: slot recycling keeps any spilled capacity, so
    // steady-state flow churn never touches the allocator.
    util::SmallVec<LinkId, 4> links;
    util::SmallVec<double, 4> mult;
    util::SmallVec<std::uint32_t, 4> pos;  ///< index into links_[l].entries
    double remaining = 0.0;
    double rate = 0.0;
    double bytes_total = 0.0;
    double done_eps = 0.0;  ///< completion threshold, relative to size
    std::unique_ptr<Latch> done;
    std::uint32_t gen = 0;         ///< slot generation (FlowId validity)
    std::uint32_t active_pos = 0;  ///< index into active_
    std::uint64_t visit_mark = 0;  ///< solver scratch (epoch-stamped)
    std::uint64_t frozen_mark = 0;  ///< solver scratch (epoch-stamped)
    bool live = false;
    bool stalled = false;  ///< frozen at rate 0 by a severed link
  };
  struct LinkEntry {
    std::uint32_t flow;
    double mult;
  };
  struct LinkState {
    LinkSpec spec;
    double bytes_transferred = 0.0;
    double allocated = 0.0;  ///< sum of rate*mult over entries
    std::vector<LinkEntry> entries;
    std::uint64_t dirty_mark = 0;  ///< epoch when queued in dirty_links_
    std::uint64_t visit_mark = 0;  ///< solver scratch (epoch-stamped)
    // Water-filling scratch, valid only during resolve_dirty():
    double residual = 0.0;
    double unfrozen_mult = 0.0;
  };

  void progress_to_now();
  void mark_link_dirty(LinkId l);
  /// React to a flow or capacity change (its links are already dirty):
  /// water-fill the connected component reachable from the dirty links,
  /// then re-arm the completion timer.
  void resolve_and_reschedule();
  void resolve_dirty();
  void run_self_check() const;
  /// Re-arm the completion timer at the earliest finish of a flow with
  /// positive rate, or disarm it if there is none.
  void schedule_next_completion();
  void on_completion_timer();
  /// Detach `slot` from links/active lists and release its slot. Marks the
  /// flow's links dirty. Does not fire the latch.
  void detach_flow(std::uint32_t slot);
  std::uint32_t allocate_flow(std::span<const LinkId> route, double bytes,
                              Latch* done);

  Engine* engine_;
  std::vector<LinkState> links_;
  std::vector<Flow> flows_;                  ///< slot-addressed storage
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> active_;        ///< dense list of live slots
  /// Bottleneck-selection heap entry: the link's fair share at push time.
  /// Keys only ever grow as flows freeze, so stale entries are detected by
  /// recomputing the share on pop (lazy invalidation).
  struct HeapEntry {
    double share;
    LinkId link;
  };

  std::vector<std::pair<std::uint64_t, CapacityListener>> capacity_listeners_;
  std::uint64_t next_listener_ = 1;
  std::vector<LinkId> dirty_links_;
  std::vector<LinkId> comp_links_;           ///< resolve scratch
  std::vector<std::uint32_t> comp_flows_;    ///< resolve scratch
  std::vector<HeapEntry> heap_;              ///< bottleneck-selection scratch
  std::vector<std::uint32_t> completed_scratch_;  ///< timer-drain scratch
  std::uint64_t dirty_epoch_ = 1;  ///< bumps when dirty_links_ drains
  std::uint64_t visit_epoch_ = 0;  ///< bumps per resolve pass
  bool self_check_ = false;
  SolverStats stats_;
  Tracer* tracer_ = nullptr;
  Time last_progress_ = 0.0;
  // Declared last, so it is disarmed before anything it reads is torn down.
  Timer completion_timer_;
};

}  // namespace mpath::sim
