#include "common.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "mpath/pipeline/collective_graph.hpp"
#include "mpath/pipeline/graph.hpp"
#include "mpath/pipeline/scheduler.hpp"
#include "mpath/topo/paths.hpp"
#include "mpath/tuning/calibration.hpp"

namespace perfbench {

// -- counters -------------------------------------------------------------

#define PERFBENCH_FIELD(f) CounterField{#f, &Counters::f}
std::span<const CounterField> counter_fields() {
  static const std::array kFields = {
      PERFBENCH_FIELD(events),
      PERFBENCH_FIELD(resolve_requests),
      PERFBENCH_FIELD(coalesced),
      PERFBENCH_FIELD(resolves),
      PERFBENCH_FIELD(flows_resolved),
      PERFBENCH_FIELD(timers_fired),
      PERFBENCH_FIELD(timers_stale),
      PERFBENCH_FIELD(capacity_changes),
      PERFBENCH_FIELD(gpu_ops),
      PERFBENCH_FIELD(copy_bytes),
      PERFBENCH_FIELD(execs),
      PERFBENCH_FIELD(pipe_bytes),
      PERFBENCH_FIELD(plan_ns),
      PERFBENCH_FIELD(compiles),
      PERFBENCH_FIELD(busy_fallbacks),
      PERFBENCH_FIELD(replays),
      PERFBENCH_FIELD(chain_replayed),
      PERFBENCH_FIELD(chain_passthrough),
      PERFBENCH_FIELD(admitted),
      PERFBENCH_FIELD(joint_iterations),
      PERFBENCH_FIELD(replans),
      PERFBENCH_FIELD(footprint_mismatches),
      PERFBENCH_FIELD(path_timeouts),
      PERFBENCH_FIELD(transfers_failed),
      PERFBENCH_FIELD(probes_launched),
      PERFBENCH_FIELD(cfg_hits),
      PERFBENCH_FIELD(cfg_misses),
      PERFBENCH_FIELD(msgs),
      PERFBENCH_FIELD(rndv),
      PERFBENCH_FIELD(fabric_bytes),
      PERFBENCH_FIELD(wakeups_scheduled),
      PERFBENCH_FIELD(wakeups_coalesced),
  };
  static_assert(sizeof(Counters) == kFields.size() * sizeof(std::uint64_t),
                "every Counters member needs a field entry");
  return kFields;
}
#undef PERFBENCH_FIELD

Counters& Counters::operator+=(const Counters& o) {
  for (const CounterField& f : counter_fields()) this->*f.member += o.*f.member;
  return *this;
}

Counters Counters::operator-(const Counters& o) const {
  Counters d = *this;
  for (const CounterField& f : counter_fields()) d.*f.member -= o.*f.member;
  return d;
}

std::uint64_t pipeline_bytes(mp::PipelineEngine& pipe) {
  return pipe.bytes_on(mt::PathKind::Direct) +
         pipe.bytes_on(mt::PathKind::GpuStaged) +
         pipe.bytes_on(mt::PathKind::HostStaged);
}

Counters read_counters(bc::SimStack& stack, const mm::PathConfigurator& cfg) {
  Counters c;
  const auto& fl = stack.network().stats();
  c.resolve_requests = fl.resolve_requests;
  c.coalesced = fl.coalesced;
  c.resolves = fl.resolves;
  c.flows_resolved = fl.flows_resolved;
  c.timers_fired = fl.timers_fired;
  c.timers_stale = fl.timers_stale;
  c.capacity_changes = fl.capacity_changes;
  c.gpu_ops = stack.runtime().ops_issued();
  c.copy_bytes = stack.runtime().bytes_copied();
  c.execs = stack.pipeline_engine().transfers_executed();
  c.pipe_bytes = pipeline_bytes(stack.pipeline_engine());
  if (auto* md = dynamic_cast<mp::ModelDrivenChannel*>(&stack.channel())) {
    const mp::GraphUseStats& g = md->graph_stats();
    c.plan_ns = g.plan_ns;
    c.compiles = g.compiles;
    c.busy_fallbacks = g.busy_fallbacks;
    c.replays = g.replays;
    c.path_timeouts = md->recovery_stats().path_timeouts;
    c.transfers_failed = md->recovery_stats().transfers_failed;
    c.probes_launched = md->health().stats().probes_launched;
  }
  if (const mp::ChainController* chain = stack.chain()) {
    const mp::ChainStats& s = chain->stats();
    c.chain_replayed = s.replayed_steps;
    c.chain_passthrough = s.passthrough_steps;
  }
  if (const mp::TransferScheduler* sched = stack.scheduler()) {
    const auto& s = sched->stats();
    c.admitted = s.admitted;
    c.joint_iterations = s.joint_iterations;
    c.replans = s.replans;
    c.footprint_mismatches = s.footprint_mismatches;
  }
  c.cfg_hits = cfg.cache_hits();
  c.cfg_misses = cfg.cache_misses();
  const auto& fab = stack.world().fabric();
  c.msgs = fab.messages_sent();
  c.rndv = fab.rendezvous_count();
  c.fabric_bytes = fab.bytes_sent();
  c.wakeups_scheduled = fab.wakeups_scheduled();
  c.wakeups_coalesced = fab.wakeups_coalesced();
  return c;
}

LinkSnapshot snapshot_links(bc::SimStack& stack) {
  LinkSnapshot s;
  const ms::FluidNetwork& net = stack.network();
  s.bytes.reserve(net.link_count());
  for (std::size_t l = 0; l < net.link_count(); ++l) {
    s.bytes.push_back(net.link_bytes_transferred(static_cast<ms::LinkId>(l)));
  }
  s.t = stack.engine().now();
  return s;
}

std::vector<double> link_capacities(bc::SimStack& stack) {
  std::vector<double> cap;
  const ms::FluidNetwork& net = stack.network();
  for (std::size_t l = 0; l < net.link_count(); ++l) {
    cap.push_back(net.link(static_cast<ms::LinkId>(l)).capacity_bps);
  }
  return cap;
}

double link_util_max(const LinkSnapshot& from,
                     const LinkSnapshot& to, std::span<const double> capacity) {
  const double dt = to.t - from.t;
  if (!(dt > 0.0)) return 0.0;
  double best = 0.0;
  for (std::size_t l = 0; l < capacity.size() && l < to.bytes.size(); ++l) {
    best = std::max(best, (to.bytes[l] - from.bytes[l]) / (capacity[l] * dt));
  }
  return best;
}

// -- tracer ---------------------------------------------------------------

Tracer::Scope Tracer::open(const char* name) {
  if (!enabled_) return {};
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.step = step_;
  s.t0 = now_ns();
  spans_.push_back(s);
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return {this, index};
}

void Tracer::Scope::close() {
  if (tracer_ == nullptr) return;
  tracer_->close(index_);
  tracer_ = nullptr;
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].t1 = now_ns();
  // Scopes close innermost-first; drop this span and anything left above.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

void Tracer::attach(int index, const Counters& delta) {
  if (index < 0) return;
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.has_counters = true;
  s.delta = delta;
}

void Tracer::add_child(int parent, const char* name, double dur_ns) {
  if (!enabled_ || parent < 0) return;
  const Span& p = spans_[static_cast<std::size_t>(parent)];
  Span s;
  s.name = name;
  s.parent = parent;
  s.step = p.step;
  s.t0 = p.t0;
  s.t1 = p.t0 + std::min(dur_ns, p.t1 - p.t0);
  spans_.push_back(s);
}

std::vector<double> Tracer::child_ns() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
  }
  return child;
}

double Tracer::self_ns(const char* name) const {
  const std::vector<double> child = child_ns();
  double sum = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (std::string_view(spans_[i].name) == name) {
      sum += spans_[i].t1 - spans_[i].t0 - child[i];
    }
  }
  return sum;
}

double Tracer::total_ns(const char* name, std::size_t* count) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const Span& s : spans_) {
    if (std::string_view(s.name) == name) {
      sum += s.t1 - s.t0;
      ++n;
    }
  }
  if (count != nullptr) *count = n;
  return sum;
}

Counters Tracer::counters(const char* name) const {
  Counters sum;
  for (const Span& s : spans_) {
    if (s.has_counters && std::string_view(s.name) == name) sum += s.delta;
  }
  return sum;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out.precision(15);
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string_view name(s.name);
    out << "{\"name\":\"" << name << "\",\"cat\":\""
        << name.substr(0, name.find('.')) << "\",\"ph\":\"X\",\"pid\":1,"
        << "\"tid\":1,\"ts\":" << (s.t0 - origin_) * 1e-3
        << ",\"dur\":" << (s.t1 - s.t0) * 1e-3 << ",\"args\":{\"id\":" << i
        << ",\"parent\":" << s.parent << ",\"step\":" << s.step;
    if (s.has_counters) {
      for (const CounterField& f : counter_fields()) {
        out << ",\"" << f.name << "\":" << s.delta.*f.member;
      }
    }
    out << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

std::string Tracer::layer_table() const {
  const std::vector<double> child = child_ns();
  std::map<std::string, std::pair<std::size_t, double>> by_layer;
  double all = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string_view name(spans_[i].name);
    const double self = spans_[i].t1 - spans_[i].t0 - child[i];
    auto& row = by_layer[std::string(name.substr(0, name.find('.')))];
    ++row.first;
    row.second += self;
    all += self;
  }
  std::ostringstream os;
  os << "| layer | spans | self ms | self % |\n|---|---|---|---|\n";
  char line[160];
  for (const auto& [layer, row] : by_layer) {
    std::snprintf(line, sizeof line, "| %s | %zu | %.3f | %.1f |\n",
                  layer.c_str(), row.first, row.second * 1e-6,
                  all > 0.0 ? 100.0 * row.second / all : 0.0);
    os << line;
  }
  return os.str();
}

// -- helpers --------------------------------------------------------------

CalibratedSystem build_system(Tracer& tracer, const char* name) {
  mt::System system = [&] {
    auto span = tracer.open("topo.make_system");
    return mt::make_system(name);
  }();
  auto span = tracer.open("tuning.calibrate");
  mm::ModelRegistry registry = mpath::tuning::calibrate(system);
  span.close();
  return {std::move(system), std::move(registry)};
}

mm::TransferConfig predict(Tracer& tracer, const mm::PathConfigurator& cfg,
                           const mt::Topology& topo, mt::DeviceId src,
                           mt::DeviceId dst, std::uint64_t bytes,
                           const mt::PathPolicy& policy) {
  const std::vector<mt::PathPlan> paths =
      mt::enumerate_paths(topo, src, dst, policy);
  auto span = tracer.open("model.compute_config");
  return cfg.compute_config(src, dst, bytes, paths);
}

std::string materialized_transfer_check(const CalibratedSystem& cal,
                                        const MaterializedCheck& check,
                                        std::uint64_t seed) {
  constexpr std::uint64_t kBytes = 4 * kMiB;
  const mt::System system = cal.system;
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  mg::GpuRuntime rt(system, engine, net, seed);
  mp::PipelineEngine pipe(rt, 16, mg::Payload::Materialized);
  mm::PathConfigurator cfg(cal.registry);
  mp::GraphCache cache;
  mp::ModelDrivenOptions opt;
  if (check.graphs) opt.graphs = &cache;
  opt.recovery.enabled = check.recovery;
  opt.health.enabled = check.recovery;
  std::unique_ptr<mp::TransferScheduler> sched;
  std::unique_ptr<mp::ModelDrivenChannel> ch;
  if (check.scheduled) {
    sched = std::make_unique<mp::TransferScheduler>(pipe, cfg);
    ch = std::make_unique<mp::ModelDrivenChannel>(pipe, *sched, cfg,
                                                  check.policy, opt);
  } else {
    ch = std::make_unique<mp::ModelDrivenChannel>(pipe, cfg, check.policy,
                                                  opt);
  }
  const auto gpus = system.topology.gpus();
  std::string failure;
  const int rounds = check.graphs ? 2 : 1;
  for (int r = 0; r < rounds && failure.empty(); ++r) {
    mg::DeviceBuffer src(gpus[0], kBytes);
    mg::DeviceBuffer dst(gpus[1], kBytes);
    src.fill_pattern(seed + static_cast<std::uint64_t>(r));
    dst.fill_pattern(~seed);
    engine.spawn(ch->transfer(dst, 0, src, 0, kBytes), "materialized");
    engine.run();
    if (!dst.same_content(src)) {
      failure = "materialized transfer " + std::to_string(r) +
                " delivered different bytes";
    }
  }
  for (mt::PathKind kind : check.must_use) {
    if (failure.empty() && pipe.bytes_on(kind) == 0) {
      failure = "materialized transfer never used " +
                std::string(mt::to_string(kind)) + " paths";
    }
  }
  if (failure.empty() && pipeline_bytes(pipe) != kBytes * rounds) {
    failure = "materialized transfer byte accounting is off";
  }
  if (failure.empty() && check.graphs && ch->graph_stats().replays == 0) {
    failure = "materialized transfer never replayed its compiled template";
  }
  cache.clear();
  return failure;
}

}  // namespace perfbench
