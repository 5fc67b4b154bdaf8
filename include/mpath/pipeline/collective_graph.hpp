// Collective graph chaining: compile a whole collective once, replay it
// every iteration.
//
// PR 9 made single transfers replayable (TransferGraph); a collective still
// paid per-step, per-iteration lookup + theta churn. This module captures
// the *entire* collective — every per-rank transfer of every round,
// identified by (tag, src_rank, dst_rank) at the transport tap — into one
// chain of TransferGraph steps. The first invocation records the transfer
// DAG (capture), the seal compiles one private graph per step, and later
// invocations replay step graphs as each message reaches the channel. The
// payload is part of the chain's identity: a new payload captures its own
// chain.
//
// A chain step is an ordinary compiled template: its claim passes the
// channel's one replay gate, exactly like a GraphCache hit — not busy,
// every path healthy, compiled under the current capacity epoch, and on
// scheduled channels admitted through TransferScheduler::admit_replay on
// arrival. The controller holds no scheduler tickets; a replayed step's
// ticket belongs to the channel's plan, as for any replay.
//
// Replay is bit-identical to the uncaptured collective by construction:
// each step replay issues the same runtime-call / issue-cost sequence
// (same keyed jitter draws) as the uncompiled channel path, and
// capture/claim bookkeeping takes no simulated time. On scheduled channels
// an admitted replay registers the ticket a fresh admission would, and a
// refused one falls back to that fresh admission.
//
// Invalidation causes (per-cause counters in ChainStats): a step template
// mid-replay (busy — step falls back, chain survives), a step template path
// on probation (unhealthy — step falls back, chain survives), link-capacity
// epoch superseded, calibration version superseded, step-key/size mismatch
// (algorithm drift), and a contended step (admit_replay refusal — step
// falls back, chain survives). A killed chain is removed from the cache
// and recaptured on the next invocation.
// Under recovery a claimed step is watched like any replayed template, and
// a step whose capture attempt re-planned stays passthrough.
//
// Lifetime: chains hold TransferGraphs, which borrow streams and events
// from the runtime and lease staging only while a step replays — destroy
// the controller (or clear() it) before the runtime, and clear the World's
// transfer tap (destroy the World) before the controller. Single-threaded
// like the rest of the engine.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <string>

#include "mpath/pipeline/channels.hpp"
#include "mpath/pipeline/graph.hpp"
#include "mpath/transport/fabric.hpp"

namespace mpath::pipeline {

/// One captured collective; the controller's private record.
class CollectiveGraph;

/// Identity of a captured collective: one cache entry per tuple.
struct ChainKey {
  std::string name;           ///< collective name ("allreduce-rhd", ...)
  int world = 0;              ///< communicator size
  std::uint64_t payload = 0;  ///< the collective's byte size
  int algo = 0;               ///< algorithm id (disambiguates same name)
  int variant = 0;            ///< extra identity (e.g. broadcast root)
  friend bool operator==(const ChainKey&, const ChainKey&) = default;
};

struct ChainStats {
  std::uint64_t captures = 0;            ///< chains sealed Ready
  std::uint64_t capture_aborts = 0;      ///< capture gave up (overflow/dup)
  std::uint64_t iterations_captured = 0;  ///< invocations spent capturing
  std::uint64_t iterations_replayed = 0;  ///< invocations entered Ready
  std::uint64_t bypasses = 0;            ///< enter() during another chain
  std::uint64_t replayed_steps = 0;      ///< steps run via chain fast path
  std::uint64_t passthrough_steps = 0;   ///< chain steps with no template
  // -- invalidation causes --------------------------------------------------
  std::uint64_t busy_fallbacks = 0;      ///< step template mid-replay
  std::uint64_t unhealthy_steps = 0;     ///< a step template path unhealthy
  std::uint64_t epoch_kills = 0;         ///< link capacities changed
  std::uint64_t stale_cal_kills = 0;     ///< calibration superseded
  std::uint64_t mismatch_kills = 0;      ///< step key/size drifted
  std::uint64_t contended_steps = 0;     ///< admit_replay refused a step
};

/// Capture/replay orchestrator. Owns the chain cache, observes every
/// matched message through the transport tap (World::set_chain_controller
/// installs it), and hands the attached ModelDrivenChannel pending replay
/// steps. One controller per channel.
class ChainController {
 public:
  /// What the tap staged for the channel transfer that is about to run.
  struct Pending {
    CollectiveGraph* chain = nullptr;
    std::uint32_t step = 0;
    bool capture = false;  ///< record the step's config after the transfer
    bool replay = false;   ///< try the chain fast path first
  };

  explicit ChainController(ModelDrivenChannel& channel)
      : channel_(&channel) {}
  ChainController(const ChainController&) = delete;
  ChainController& operator=(const ChainController&) = delete;
  ~ChainController();

  // -- collective scope (called by the collectives via ChainScope) ---------
  /// A rank is entering the named collective whose tags start at
  /// `base_tag`. The first rank in resolves the chain (cached -> replay
  /// iteration; otherwise a fresh capture); later ranks join. Returns
  /// false — an inert scope — when a different collective invocation is
  /// already active (overlap is not chainable).
  [[nodiscard]] bool enter(const char* name, int world, std::uint64_t payload,
                           int algo, int variant, int base_tag);
  /// The matching rank left. The last rank out seals a capture (compiles
  /// the step templates).
  void leave();

  // -- transport tap --------------------------------------------------------
  /// Invoked synchronously immediately before every channel transfer.
  void on_transfer(const transport::TransferSite& site);

  // -- channel side ---------------------------------------------------------
  /// Consume the pending step staged by the tap for the transfer that is
  /// now executing (empty when no chain invocation is active).
  [[nodiscard]] Pending take_pending();
  /// The step's template when it passes the channel's replay gate, which
  /// fills `plan`'s ticket and config as for any replay. Null means the
  /// caller takes the normal path (cause already counted; the chain may
  /// have been killed).
  [[nodiscard]] GraphPtr claim_step(const Pending& p,
                                    ModelDrivenChannel::Plan& plan);
  /// Record the capture-iteration outcome of a step: `config` is the
  /// reproducible compiled-eligible configuration, or null when the step
  /// must stay passthrough (small, contended, re-planned, or otherwise
  /// unreproducible).
  void record_step(const Pending& p, const model::TransferConfig* config);

  // -- introspection --------------------------------------------------------
  [[nodiscard]] const ChainStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t cache_size() const { return cache_.size(); }
  /// Drop every cached chain (releases their templates' events).
  void clear();

 private:
  using ChainPtr = std::shared_ptr<CollectiveGraph>;

  /// The cached chain for `key`, or null (capture needed). Stale
  /// calibration / superseded capacity epochs kill the resident entry.
  [[nodiscard]] ChainPtr resolve(const ChainKey& key);
  /// Compile per-step templates, stamp versions, and publish the chain as
  /// Ready.
  void seal(const ChainPtr& chain);
  /// Mark the chain dead for `cause` (a ChainStats member) and drop it
  /// from the cache.
  void kill(CollectiveGraph& chain, std::uint64_t ChainStats::* cause);
  [[nodiscard]] std::uint64_t scheduler_epoch() const;

  ModelDrivenChannel* channel_;
  ChainStats stats_;
  /// LRU chain cache, most-recently-used first (linear scan: a handful of
  /// collectives per workload).
  std::list<ChainPtr> cache_;

  // Active invocation state.
  bool active_ = false;
  bool capturing_ = false;
  int base_tag_ = 0;
  int refcount_ = 0;
  ChainPtr inv_chain_;
  Pending pending_;
};

/// RAII collective scope: enter on construction, leave on destruction.
/// Null controller (chaining not wired) makes the scope inert.
class ChainScope {
 public:
  ChainScope(ChainController* ctl, const char* name, int world,
             std::uint64_t payload, int algo, int variant, int base_tag)
      : ctl_(ctl) {
    if (ctl_ != nullptr) {
      active_ = ctl_->enter(name, world, payload, algo, variant, base_tag);
    }
  }
  ChainScope(const ChainScope&) = delete;
  ChainScope& operator=(const ChainScope&) = delete;
  ~ChainScope() {
    if (active_) ctl_->leave();
  }

 private:
  ChainController* ctl_;
  bool active_ = false;
};

}  // namespace mpath::pipeline
