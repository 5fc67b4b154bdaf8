#include "mpath/pipeline/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace mpath::pipeline {

namespace {

/// `prepared` with every path the joint water-fill squeezed below its solo
/// cap carrying its effective Omega, so predicted times — and the recovery
/// watchdog deadlines derived from them — are contention-aware instead of
/// optimistic. `*squeezed` (when given) is set if any path was.
model::PreparedTransfer effective(const model::PreparedTransfer& prepared,
                                  std::span<const double> rates,
                                  bool* squeezed) {
  model::PreparedTransfer eff = prepared;
  for (std::size_t i = 0; i < eff.terms.size(); ++i) {
    const double cap = 1.0 / prepared.terms[i].omega;
    if (rates[i] > 0.0 && rates[i] < cap) {
      eff.terms[i].omega = 1.0 / rates[i];
      if (squeezed != nullptr) *squeezed = true;
    }
  }
  return eff;
}

/// Template integrity: the compiled config must describe exactly this
/// request, or replaying it would execute a stale split.
bool describes(const model::TransferConfig& compiled, std::uint64_t bytes,
               std::span<const topo::PathPlan> paths) {
  return compiled.total_bytes == bytes &&
         std::equal(compiled.paths.begin(), compiled.paths.end(),
                    paths.begin(), paths.end(),
                    [](const model::PathShare& share,
                       const topo::PathPlan& plan) {
                      return share.plan == plan;
                    });
}

}  // namespace

TransferScheduler::TransferScheduler(PipelineEngine& engine,
                                     model::PathConfigurator& configurator,
                                     SchedulerOptions options)
    : engine_(&engine),
      configurator_(&configurator),
      options_(options),
      net_(&engine.runtime().binding().network()),
      own_(net_->link_count(), 0.0) {
  // Close the residue-integration window at the instant of every capacity
  // change, while the *old* rates still hold (the network notifies
  // pre-mutation): the elapsed window integrates at the capacities that
  // governed it, and the very next plan or query water-fills against the
  // new ones. Otherwise a restore mid-transfer would apply retroactively
  // across the whole window, and readmission probes would plan against
  // capacities that never existed.
  capacity_listener_ = net_->add_capacity_listener(
      [this](sim::LinkId, double, double) {
        integrate_to(engine_->runtime().engine().now());
        ++stats_.capacity_events;
      });
}

TransferScheduler::~TransferScheduler() {
  net_->remove_capacity_listener(capacity_listener_);
}

util::SmallVec<std::uint32_t, 4> TransferScheduler::plan_links(
    topo::DeviceId src, topo::DeviceId dst, const topo::PathPlan& plan) {
  topo::NetworkBinding& routes = engine_->runtime().binding();
  if (plan.kind == topo::PathKind::Direct) return routes.route(src, dst).links;
  // Both hops of a staged path are pipelined — concurrently loaded — so
  // the footprint is the union of both hops' links.
  util::SmallVec<std::uint32_t, 4> links = routes.route(src, plan.stage).links;
  for (const sim::LinkId l : routes.route(plan.stage, dst).links) {
    links.push_back(l);
  }
  return links;
}

std::span<const model::JointLink> TransferScheduler::snapshot_links() {
  links_.resize(net_->link_count());
  for (std::uint32_t l = 0; l < links_.size(); ++l) {
    // Severed links (capacity 0, fault injection) are floored at 1 B/s so
    // the solver stays defined; paths over them plan as effectively dead.
    links_[l].capacity_bps = std::max(net_->link(l).capacity_bps, 1.0);
    // Whatever streams on the link beyond this scheduler's own live paths
    // (per-chunk flows are attributed to their owning path, not double
    // counted) is background traffic that still takes max-min shares.
    links_[l].background_flows =
        std::max(0.0, net_->link_flow_weight(l) - own_[l]);
  }
  return links_;
}

std::span<const model::FixedFlow* const> TransferScheduler::live_flows() {
  if (flows_stale_) {
    flows_.clear();
    owners_.clear();
    for (std::size_t ti = 0; ti < live_.size(); ++ti) {
      const Ticket& t = live_[ti];
      for (std::size_t pi = 0; pi < t.paths.size(); ++pi) {
        if (t.paths[pi].remaining_bytes <= 0.0) continue;
        flows_.push_back(&t.paths[pi].flow);
        owners_.emplace_back(ti, pi);
      }
    }
    flows_stale_ = false;
  }
  return flows_;
}

void TransferScheduler::integrate_to(double now) {
  if (now > last_event_ && !live_.empty()) {
    const auto flows = live_flows();
    if (!flows.empty()) {
      const auto rates = solver_.maxmin_rates(flows, snapshot_links());
      const double dt = now - last_event_;
      for (std::size_t j = 0; j < flows.size(); ++j) {
        LivePath& p = live_[owners_[j].first].paths[owners_[j].second];
        // A path spends its latency prefix first, then streams.
        const double lat = std::min(p.remaining_delta, dt);
        p.remaining_delta -= lat;
        p.remaining_bytes =
            std::max(0.0, p.remaining_bytes - rates[j] * (dt - lat));
        if (p.remaining_bytes <= 0.0) {
          // Drained: the path leaves the water-fill and its links' own
          // weight (the ticket keeps it for the footprint check).
          for (std::uint32_t l : p.flow.links) own_[l] -= 1.0;
          flows_stale_ = true;
        }
      }
    }
    // The clock moved past these tickets' admit instant: their recorded
    // predictions are final.
    for (Ticket& t : live_) {
      if (t.t_admit < now) t.frozen = true;
    }
  }
  last_event_ = std::max(last_event_, now);
}

void TransferScheduler::refresh_predictions(std::span<const double> rates) {
  // Reset the estimate of every unfrozen ticket that still has live flows;
  // the stale admission prediction is superseded by this refresh.
  for (const auto& [ti, pi] : owners_) {
    Ticket& t = live_[ti];
    if (!t.frozen) records_[t.record].predicted_s = 0.0;
  }
  for (std::size_t j = 0; j < owners_.size(); ++j) {
    Ticket& t = live_[owners_[j].first];
    if (t.frozen) continue;
    const LivePath& p = t.paths[owners_[j].second];
    const double path_time =
        rates[j] > 0.0
            ? p.remaining_delta + p.remaining_bytes / rates[j]
            : p.remaining_delta + p.remaining_bytes;  // severed: degenerate
    // The transfer finishes when its slowest fixed-split path does.
    Record& rec = records_[t.record];
    rec.predicted_s =
        std::max(rec.predicted_s, (last_event_ - t.t_admit) + path_time);
  }
}

TransferScheduler::Admission TransferScheduler::admit(
    topo::DeviceId src, topo::DeviceId dst, std::uint64_t bytes,
    std::span<const topo::PathPlan> paths) {
  const double now = engine_->runtime().engine().now();
  integrate_to(now);
  if (paths.empty()) {
    throw std::invalid_argument("TransferScheduler: no candidate paths");
  }
  if (bytes == 0) {
    throw std::invalid_argument("TransferScheduler: zero-byte transfer");
  }

  Planned planned = plan_request(src, dst, bytes, paths);
  Admission out;
  // Replay eligibility: the split depended on nothing but the tuple and
  // calibration. Solo planning never looks at contention; a joint plan
  // qualifies only when nothing squeezed it and no other flow touches its
  // candidates (checked before its own ticket is registered).
  out.uncontended = !options_.joint ||
                    (!planned.squeezed && !links_contended(planned.jpaths));
  out.ticket =
      register_ticket(src, dst, bytes, planned.config, planned.jpaths, now);
  out.config = std::move(planned.config);
  return out;
}

TransferScheduler::Planned TransferScheduler::plan_request(
    topo::DeviceId src, topo::DeviceId dst, std::uint64_t bytes,
    std::span<const topo::PathPlan> paths) {
  Planned out;
  const model::PreparedTransfer prepared =
      configurator_->prepare(src, dst, bytes, paths);
  out.jpaths.resize(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    out.jpaths[i].terms = prepared.terms[i];
    out.jpaths[i].links = plan_links(src, dst, paths[i]);
  }
  if (!options_.joint) {
    const model::ThetaSolution sol =
        model::ThetaSolver::solve(prepared.terms, static_cast<double>(bytes));
    out.config = configurator_->config_from_theta(prepared, bytes, paths, sol);
    return out;
  }
  model::JointTransfer jt;
  jt.n_bytes = static_cast<double>(bytes);
  jt.paths = out.jpaths;
  const model::JointSolution jsol =
      solver_.solve({&jt, 1}, live_flows(), snapshot_links());
  stats_.joint_iterations += static_cast<std::uint64_t>(jsol.iterations);
  const util::SmallVec<double, 4>& rates = jsol.path_rates[0];
  out.config = configurator_->config_from_theta(
      effective(prepared, {rates.data(), rates.size()}, &out.squeezed), bytes,
      paths, jsol.transfers[0]);
  // In-flight (and same-instant, still unfrozen) transfers now share links
  // with the arrival: refresh their recorded predictions.
  refresh_predictions(jsol.fixed_rates);
  return out;
}

model::TransferConfig TransferScheduler::replan(
    TicketId ticket, std::uint64_t bytes,
    std::span<const topo::PathPlan> survivors) {
  const double now = engine_->runtime().engine().now();
  integrate_to(now);
  if (survivors.empty()) {
    throw std::invalid_argument("TransferScheduler: no surviving paths");
  }
  if (bytes == 0) {
    throw std::invalid_argument("TransferScheduler: zero-byte replan");
  }
  Ticket& t = live_[find(ticket)];
  // The old footprint is gone: timed-out paths were cancelled, healthy ones
  // completed their slices. The remainder gets a fresh joint plan.
  charge(t, -1.0);
  t.paths.clear();
  Planned planned = plan_request(t.src, t.dst, bytes, survivors);
  t.paths = live_paths(planned.config, planned.jpaths);
  charge(t, 1.0);
  // Re-plans replace the footprint: the charge the departure check expects
  // is the latest one.
  t.charged = footprint_of(t);
  ++records_[t.record].replans;
  ++stats_.replans;
  return std::move(planned.config);
}

void TransferScheduler::depart(TicketId ticket) {
  const double now = engine_->runtime().engine().now();
  integrate_to(now);
  retire(find(ticket), now, /*failed=*/false);
  ++stats_.departed;
}

void TransferScheduler::fail(TicketId ticket) {
  const double now = engine_->runtime().engine().now();
  integrate_to(now);
  retire(find(ticket), now, /*failed=*/true);
  ++stats_.failed;
}

util::SmallVec<std::uint32_t, 8> TransferScheduler::footprint_of(
    const Ticket& t) {
  util::SmallVec<std::uint32_t, 8> out;
  for (const LivePath& p : t.paths) {
    for (std::uint32_t l : p.flow.links) out.push_back(l);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void TransferScheduler::verify_footprint(std::size_t index) {
  // The attributed link weight being released must be exactly what the
  // latest admission/replan charged — a replayed transfer in particular
  // must not depart with a footprint its template never registered.
  ++stats_.footprint_checks;
  const Ticket& t = live_[index];
  if (footprint_of(t) != t.charged) {
    ++stats_.footprint_mismatches;
    assert(false && "TransferScheduler: departure footprint mismatch");
  }
}

bool TransferScheduler::links_contended(
    std::span<const model::JointPath> paths) const {
  for (const model::JointPath& jp : paths) {
    for (std::uint32_t l : jp.links) {
      // A live scheduled flow, or traffic that bypasses the scheduler.
      if (own_[l] > 0.0 || net_->link_flow_weight(l) - own_[l] > 0.0) {
        return true;
      }
    }
  }
  return false;
}

TransferScheduler::Admission TransferScheduler::admit_replay(
    topo::DeviceId src, topo::DeviceId dst, std::uint64_t bytes,
    std::span<const topo::PathPlan> paths,
    const model::TransferConfig& compiled) {
  const double now = engine_->runtime().engine().now();
  integrate_to(now);
  if (paths.empty()) {
    throw std::invalid_argument("TransferScheduler: no candidate paths");
  }
  if (bytes == 0) {
    throw std::invalid_argument("TransferScheduler: zero-byte transfer");
  }

  if (!describes(compiled, bytes, paths)) {
    ++stats_.replay_plan_mismatches;
    return {};
  }

  // Resolve the candidate footprint once; it doubles as the contention
  // probe and (filtered to carrying paths) the ticket registration.
  // Uncontended templates carry solo terms (no omega override), so the
  // ticket registers the identical cap/residue a fresh admission would.
  util::SmallVec<model::JointPath, 4> solo;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    solo.push_back(model::JointPath{compiled.paths[i].terms,
                                    plan_links(src, dst, paths[i])});
  }

  if (options_.joint && links_contended(solo)) {
    // Contention changed since compile: a fresh joint solve could pick a
    // different split, so the template is not admissible as-is.
    ++stats_.replay_rejects;
    return {};
  }

  Admission out;
  out.config = compiled;
  out.uncontended = true;
  out.ticket = register_ticket(src, dst, bytes, compiled, solo, now);
  ++stats_.replay_admits;
  return out;
}

util::SmallVec<TransferScheduler::LivePath, 4> TransferScheduler::live_paths(
    const model::TransferConfig& config,
    std::span<const model::JointPath> solo) {
  util::SmallVec<LivePath, 4> out;
  for (std::size_t i = 0; i < config.paths.size(); ++i) {
    if (config.paths[i].bytes == 0) continue;
    LivePath p;
    p.flow.links = solo[i].links;
    p.flow.cap_bps = 1.0 / solo[i].terms.omega;
    p.remaining_delta = solo[i].terms.delta;
    p.remaining_bytes = static_cast<double>(config.paths[i].bytes);
    out.push_back(std::move(p));
  }
  return out;
}

void TransferScheduler::charge(const Ticket& t, double weight) {
  for (const LivePath& p : t.paths) {
    if (p.remaining_bytes <= 0.0) continue;  // released when it drained
    for (std::uint32_t l : p.flow.links) own_[l] += weight;
  }
  flows_stale_ = true;
}

TransferScheduler::TicketId TransferScheduler::register_ticket(
    topo::DeviceId src, topo::DeviceId dst, std::uint64_t bytes,
    const model::TransferConfig& config,
    std::span<const model::JointPath> solo, double now) {
  Ticket t;
  t.id = next_id_++;
  t.record = records_.size();
  t.t_admit = now;
  t.src = src;
  t.dst = dst;
  t.paths = live_paths(config, solo);
  t.charged = footprint_of(t);
  charge(t, 1.0);
  Record rec;
  rec.t_admit = now;
  rec.predicted_s = config.predicted_time;
  rec.bytes = bytes;
  records_.push_back(rec);
  live_.push_back(std::move(t));
  ++stats_.admitted;
  return live_.back().id;
}

std::size_t TransferScheduler::find(TicketId ticket) {
  for (std::size_t i = 0; i < live_.size(); ++i) {
    if (live_[i].id == ticket) return i;
  }
  throw std::invalid_argument("TransferScheduler: unknown ticket");
}

void TransferScheduler::retire(std::size_t index, double now, bool failed) {
  verify_footprint(index);
  charge(live_[index], -1.0);
  Record& rec = records_[live_[index].record];
  rec.t_depart = now;
  rec.failed = failed;
  live_[index] = std::move(live_.back());
  live_.pop_back();
}

std::vector<std::string> TransferScheduler::audit() const {
  std::vector<std::string> out;
  std::vector<double> recount(own_.size(), 0.0);
  std::vector<const model::FixedFlow*> flows;
  std::vector<char> ticketed(records_.size(), 0);
  for (const Ticket& t : live_) {
    for (const LivePath& p : t.paths) {
      if (p.remaining_bytes <= 0.0) continue;
      for (std::uint32_t l : p.flow.links) recount[l] += 1.0;
      flows.push_back(&p.flow);
    }
    if (t.record >= records_.size()) {
      out.push_back("ticket " + std::to_string(t.id) + " has no record");
      continue;
    }
    ticketed[t.record] = 1;
    if (records_[t.record].t_depart >= 0.0) {
      out.push_back("ticket " + std::to_string(t.id) +
                    " is live but its record is closed");
    }
  }
  for (std::size_t l = 0; l < own_.size(); ++l) {
    if (own_[l] != recount[l]) {
      out.push_back("link " + std::to_string(l) + ": own weight " +
                    std::to_string(own_[l]) + ", recount " +
                    std::to_string(recount[l]));
    }
  }
  if (!flows_stale_ && flows != flows_) {
    out.push_back("live-flow view is not the undrained paths in order");
  }
  for (std::size_t r = 0; r < records_.size(); ++r) {
    if (records_[r].t_depart < 0.0 && !ticketed[r]) {
      out.push_back("record " + std::to_string(r) +
                    " is in flight with no live ticket");
    }
  }
  if (stats_.footprint_mismatches != 0) {
    out.push_back(std::to_string(stats_.footprint_mismatches) +
                  " departure footprint mismatches");
  }
  return out;
}

}  // namespace mpath::pipeline
