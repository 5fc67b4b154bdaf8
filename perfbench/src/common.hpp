// Shared pieces of the repository benchmark: layer counters read from the
// library's public stats, host-time spans recorded around the benchmark's
// calls into each layer, and the workload interface the timed loop drives.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mpath/benchcore/stack.hpp"
#include "mpath/model/configurator.hpp"
#include "mpath/topo/system.hpp"

namespace perfbench {

namespace bc = mpath::benchcore;
namespace mg = mpath::gpusim;
namespace mm = mpath::model;
namespace mp = mpath::pipeline;
namespace ms = mpath::sim;
namespace mt = mpath::topo;

inline constexpr std::uint64_t kMiB = 1ull << 20;
inline constexpr std::uint64_t kKiB = 1ull << 10;

[[nodiscard]] inline double now_ns() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// -- layer counters -------------------------------------------------------

/// Monotonic layer counters, summed over every stack a workload drove.
/// `events` is the sum of sim::Engine::run() returns, which the benchmark
/// collects itself; everything else is read from public stats.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t resolve_requests = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t resolves = 0;
  std::uint64_t flows_resolved = 0;
  std::uint64_t timers_fired = 0;
  std::uint64_t timers_stale = 0;
  std::uint64_t capacity_changes = 0;
  std::uint64_t gpu_ops = 0;
  std::uint64_t copy_bytes = 0;
  std::uint64_t execs = 0;
  std::uint64_t pipe_bytes = 0;  ///< PipelineEngine::bytes_on, all kinds
  std::uint64_t plan_ns = 0;
  std::uint64_t compiles = 0;
  std::uint64_t busy_fallbacks = 0;
  std::uint64_t replays = 0;
  std::uint64_t chain_replayed = 0;
  std::uint64_t chain_passthrough = 0;
  std::uint64_t admitted = 0;
  std::uint64_t joint_iterations = 0;
  std::uint64_t replans = 0;
  std::uint64_t footprint_mismatches = 0;
  std::uint64_t path_timeouts = 0;
  std::uint64_t transfers_failed = 0;
  std::uint64_t probes_launched = 0;
  std::uint64_t cfg_hits = 0;
  std::uint64_t cfg_misses = 0;
  std::uint64_t msgs = 0;
  std::uint64_t rndv = 0;
  std::uint64_t fabric_bytes = 0;
  std::uint64_t wakeups_scheduled = 0;
  std::uint64_t wakeups_coalesced = 0;

  Counters& operator+=(const Counters& o);
  [[nodiscard]] Counters operator-(const Counters& o) const;
};

struct CounterField {
  const char* name;
  std::uint64_t Counters::*member;
};
/// Every Counters member with its name, in declaration order.
[[nodiscard]] std::span<const CounterField> counter_fields();

/// Current totals of one stack (plus its configurator's cache counters).
/// `events` is left 0: the caller adds what Engine::run returned.
[[nodiscard]] Counters read_counters(bc::SimStack& stack,
                                     const mm::PathConfigurator& cfg);

/// Sum of PipelineEngine::bytes_on over every path kind.
[[nodiscard]] std::uint64_t pipeline_bytes(mp::PipelineEngine& pipe);

/// Max over links of bytes moved / (capacity × seconds), for the bytes a
/// stack's links moved between two snapshots.
struct LinkSnapshot {
  std::vector<double> bytes;
  double t = 0.0;
};
[[nodiscard]] LinkSnapshot snapshot_links(bc::SimStack& stack);
[[nodiscard]] double link_util_max(const LinkSnapshot& from,
                                   const LinkSnapshot& to,
                                   std::span<const double> capacity);
[[nodiscard]] std::vector<double> link_capacities(bc::SimStack& stack);

// -- host-time spans ------------------------------------------------------

/// One recorded call into a layer. Times are steady-clock nanoseconds.
struct Span {
  const char* name = "";
  double t0 = 0.0;
  double t1 = 0.0;
  int parent = -1;
  std::int64_t step = -1;  ///< -1 during set-up
  bool has_counters = false;
  Counters delta;  ///< layer counters accumulated inside the span
};

/// In-memory span recorder. Disabled, it records nothing and costs one
/// branch per call; enabled, spans are written once at exit.
class Tracer {
 public:
  class Scope {
   public:
    Scope() = default;
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { close(); }
    void close();
    [[nodiscard]] int index() const { return index_; }

   private:
    Tracer* tracer_ = nullptr;
    int index_ = -1;
  };

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void set_step(std::int64_t step) { step_ = step; }

  /// Open a span as a child of the innermost open span.
  [[nodiscard]] Scope open(const char* name);
  /// Attach the layer counters accumulated inside a closed span.
  void attach(int index, const Counters& delta);
  /// Record a synthetic child of a closed span lasting `dur_ns`, placed at
  /// the parent's start (its position is irrelevant to self time).
  void add_child(int parent, const char* name, double dur_ns);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Host time inside spans named `name` minus their children's time.
  [[nodiscard]] double self_ns(const char* name) const;
  /// Sum of `name` spans' full durations, and how many there were.
  [[nodiscard]] double total_ns(const char* name, std::size_t* count) const;
  /// Counters attached to `name` spans, summed.
  [[nodiscard]] Counters counters(const char* name) const;

  /// Chrome trace-event JSON ("X" phase, microseconds), one thread track.
  void write_chrome_trace(const std::string& path) const;
  /// Markdown table of self time by layer (the span name's first segment).
  [[nodiscard]] std::string layer_table() const;

 private:
  void close(int index);
  [[nodiscard]] std::vector<double> child_ns() const;

  bool enabled_ = false;
  std::int64_t step_ = -1;
  double origin_ = now_ns();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// -- workloads ------------------------------------------------------------

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What a timed step did.
struct StepOutcome {
  std::uint64_t units = 0;
  std::uint64_t failed = 0;  ///< units that errored or failed a check
};

/// Results a workload reports once its timed phase is over.
struct Finish {
  double sim_gbps = 0.0;
  double speedup_vs_direct = 0.0;
  double pred_err_pct = 0.0;
  /// Checks outside the timed phase; a failure fails every unit.
  std::vector<std::string> failures;
  double link_util_max = 0.0;
  std::uint64_t events_leaked = 0;
  std::uint64_t multipath_transfers = 0;  ///< denominator of replay_frac
  std::uint64_t chain_captures = 0;       ///< including set-up's captures
};

/// Which layers a workload is meant to hit (true) or bypass (false); the
/// layer-separation self-check compares these against the counts.
struct LayerUse {
  bool transport = false;
  int graphs = -1;  ///< 1 = must compile, 0 = must not, -1 = unchecked
  bool joint = false;
  bool chain = false;
  bool configurator_misses = false;  ///< cache_hit_frac must stay below 1
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual LayerUse layers() const = 0;
  /// Everything before the first timed step. Called several times; each
  /// call rebuilds all state from scratch.
  virtual void setup() = 0;
  /// One timed step.
  [[nodiscard]] virtual StepOutcome step(std::int64_t index) = 0;
  /// Steps in one cycle over the workload's inputs. The timed phase ends on
  /// a cycle boundary, so every input weighs the same in the timings.
  [[nodiscard]] virtual std::int64_t cycle() const = 0;
  /// Steps the timed phase runs however long they take (the simulated
  /// metrics are read from them, and peak_rss_mib right after them); a
  /// whole number of cycles.
  [[nodiscard]] virtual std::int64_t min_steps() const = 0;
  /// Layer counters accumulated since setup() returned.
  [[nodiscard]] virtual Counters counters() = 0;
  /// Outside-phase checks and simulated metrics; also releases resources.
  [[nodiscard]] virtual Finish finish() = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_osu_p2p(const Options& opt,
                                                     Tracer& tracer);
[[nodiscard]] std::unique_ptr<Workload> make_churn32(const Options& opt,
                                                     Tracer& tracer);
[[nodiscard]] std::unique_ptr<Workload> make_collective_chain(
    const Options& opt, Tracer& tracer);
[[nodiscard]] std::unique_ptr<Workload> make_tenants_faulted(
    const Options& opt, Tracer& tracer);

// -- helpers shared by the workloads --------------------------------------

/// topo::make_system and tuning::calibrate behind spans.
struct CalibratedSystem {
  mt::System system;
  mm::ModelRegistry registry;
};
[[nodiscard]] CalibratedSystem build_system(Tracer& tracer,
                                            const char* name);

/// The model's predicted configuration behind a span.
[[nodiscard]] mm::TransferConfig predict(Tracer& tracer,
                                         const mm::PathConfigurator& cfg,
                                         const mt::Topology& topo,
                                         mt::DeviceId src, mt::DeviceId dst,
                                         std::uint64_t bytes,
                                         const mt::PathPolicy& policy);

/// Drive `stack`'s engine to completion after `launch()` spawns the work,
/// inside a span named `name`. Traced, the span gets the stack's counter
/// delta and a synthetic `pipeline.plan` child sized from plan_ns.
/// Returns the events processed.
template <typename Launch>
std::uint64_t drive(Tracer& tracer, const char* name, bc::SimStack& stack,
                    const mm::PathConfigurator& cfg, Launch&& launch) {
  if (!tracer.enabled()) {
    launch();
    return stack.engine().run();
  }
  const Counters before = read_counters(stack, cfg);
  auto span = tracer.open(name);
  launch();
  const std::uint64_t events = stack.engine().run();
  span.close();
  Counters delta = read_counters(stack, cfg) - before;
  delta.events = events;
  tracer.attach(span.index(), delta);
  tracer.add_child(span.index(), "pipeline.plan",
                   static_cast<double>(delta.plan_ns));
  return events;
}

/// One materialized 4 MiB multi-path transfer from GPU 0 to GPU 1 on a
/// hand-built model-driven stack with materialized staging (SimStack
/// stages simulated payloads, which would carry no bytes). Returns a
/// failure description, or an empty string when the destination matches
/// the source and every path kind in `must_use` carried bytes.
struct MaterializedCheck {
  mt::PathPolicy policy = mt::PathPolicy::three_gpus();
  std::vector<mt::PathKind> must_use = {mt::PathKind::GpuStaged};
  bool graphs = false;     ///< replay a compiled template (second transfer)
  bool scheduled = false;  ///< admit through a TransferScheduler
  bool recovery = false;   ///< watchdogs + path health on
};
[[nodiscard]] std::string materialized_transfer_check(
    const CalibratedSystem& cal, const MaterializedCheck& check,
    std::uint64_t seed);

/// Mean of |predicted - simulated| / simulated, in percent.
struct ErrorMean {
  double sum = 0.0;
  std::uint64_t n = 0;
  void add(double predicted, double simulated) {
    sum += std::abs(predicted - simulated) / simulated;
    ++n;
  }
  [[nodiscard]] double pct() const {
    return n == 0 ? 0.0 : 100.0 * sum / static_cast<double>(n);
  }
};

}  // namespace perfbench
