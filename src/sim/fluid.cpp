#include "mpath/sim/fluid.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "mpath/sim/trace.hpp"
#include "mpath/util/log.hpp"

namespace mpath::sim {

namespace {
// Completion threshold for a flow of `bytes` total: relative so that
// floating-point dust cannot postpone completion forever, with a tiny
// absolute floor so genuinely sub-byte control messages still stream at
// their allocated rate instead of completing instantly at rate 0.
double completion_eps(double bytes) {
  return std::max(1e-12 * bytes, 1e-9);
}
}  // namespace

LinkId FluidNetwork::add_link(LinkSpec spec) {
  // Written so that NaN fails too: an infinite or NaN capacity leaves the
  // flows on the link with no finite completion time.
  if (!(std::isfinite(spec.capacity_bps) && spec.capacity_bps > 0.0)) {
    throw std::invalid_argument(
        "FluidNetwork: capacity must be finite and positive (" + spec.name +
        ")");
  }
  if (!(std::isfinite(spec.latency_s) && spec.latency_s >= 0.0)) {
    throw std::invalid_argument(
        "FluidNetwork: latency must be finite and >= 0 (" + spec.name + ")");
  }
  LinkState ls;
  ls.spec = std::move(spec);
  links_.push_back(std::move(ls));
  return static_cast<LinkId>(links_.size() - 1);
}

const LinkSpec& FluidNetwork::link(LinkId id) const {
  return links_.at(id).spec;
}

void FluidNetwork::set_link_capacity(LinkId id, double bps) {
  if (id >= links_.size()) {
    throw std::out_of_range("FluidNetwork::set_link_capacity: bad LinkId");
  }
  if (!(std::isfinite(bps) && bps >= 0.0)) {
    throw std::invalid_argument(
        "FluidNetwork::set_link_capacity: capacity must be finite and >= 0 (" +
        links_[id].spec.name + ")");
  }
  // Credit bytes streamed at the old rates before the capacity changes,
  // then re-solve the dirty component: only the component containing this
  // link is touched.
  progress_to_now();
  // Notify before the mutation lands: listeners integrating modeled state
  // (the transfer scheduler) must close their window at the rates that
  // governed it, not retroactively apply the new capacity.
  const double old_bps = links_[id].spec.capacity_bps;
  for (auto& [handle, fn] : capacity_listeners_) fn(id, old_bps, bps);
  links_[id].spec.capacity_bps = bps;
  ++stats_.capacity_changes;
  if (tracer_ != nullptr) {
    tracer_->add_instant("fluid",
                         "set_capacity " + links_[id].spec.name + " " +
                             std::to_string(bps),
                         engine_->now());
  }
  // A capacity change with no flows on the link still updates `allocated`
  // bookkeeping, and zero-capacity links need their flows stalled, so mark
  // dirty unconditionally.
  mark_link_dirty(id);
  resolve_and_reschedule();
}

std::uint64_t FluidNetwork::add_capacity_listener(CapacityListener fn) {
  const std::uint64_t handle = next_listener_++;
  capacity_listeners_.emplace_back(handle, std::move(fn));
  return handle;
}

bool FluidNetwork::remove_capacity_listener(std::uint64_t handle) {
  for (auto it = capacity_listeners_.begin();
       it != capacity_listeners_.end(); ++it) {
    if (it->first == handle) {
      capacity_listeners_.erase(it);
      return true;
    }
  }
  return false;
}

std::size_t FluidNetwork::stalled_flow_count() const {
  std::size_t n = 0;
  for (std::uint32_t slot : active_) {
    if (flows_[slot].stalled) ++n;
  }
  return n;
}

double FluidNetwork::link_allocated_rate(LinkId id) const {
  return links_.at(id).allocated;
}

double FluidNetwork::link_bytes_transferred(LinkId id) const {
  return links_.at(id).bytes_transferred;
}

double FluidNetwork::link_flow_weight(LinkId id) const {
  if (id >= links_.size()) throw std::out_of_range("bad LinkId");
  double weight = 0.0;
  for (const LinkEntry& e : links_[id].entries) weight += e.mult;
  return weight;
}

void FluidNetwork::progress_to_now() {
  const Time now = engine_->now();
  const double dt = now - last_progress_;
  last_progress_ = now;
  if (dt <= 0.0) return;
  for (std::uint32_t slot : active_) {
    Flow& f = flows_[slot];
    const double delivered = std::min(f.remaining, f.rate * dt);
    if (delivered <= 0.0) continue;
    f.remaining -= delivered;
    for (std::size_t i = 0; i < f.links.size(); ++i) {
      links_[f.links[i]].bytes_transferred += delivered * f.mult[i];
    }
  }
}

void FluidNetwork::mark_link_dirty(LinkId l) {
  LinkState& ls = links_[l];
  if (ls.dirty_mark == dirty_epoch_) return;
  ls.dirty_mark = dirty_epoch_;
  dirty_links_.push_back(l);
}

void FluidNetwork::resolve_and_reschedule() {
  // Every caller has already credited bytes up to now() at the old rates.
  ++stats_.resolve_requests;
  resolve_dirty();
  schedule_next_completion();
}

void FluidNetwork::resolve_dirty() {
  if (dirty_links_.empty()) return;
  ++stats_.resolves;
  ++visit_epoch_;

  // Gather the connected component of the flow/link sharing graph that is
  // reachable from the dirty links. Rates outside it cannot change: a flow
  // not sharing (transitively) any link with a changed one keeps its
  // allocation, so the water-filling below touches only the component.
  comp_links_.clear();
  comp_flows_.clear();
  for (LinkId l : dirty_links_) {
    if (links_[l].visit_mark == visit_epoch_) continue;
    links_[l].visit_mark = visit_epoch_;
    comp_links_.push_back(l);
  }
  for (std::size_t qi = 0; qi < comp_links_.size(); ++qi) {
    for (const LinkEntry& e : links_[comp_links_[qi]].entries) {
      Flow& f = flows_[e.flow];
      if (f.visit_mark == visit_epoch_) continue;
      f.visit_mark = visit_epoch_;
      comp_flows_.push_back(e.flow);
      for (LinkId l : f.links) {
        if (links_[l].visit_mark == visit_epoch_) continue;
        links_[l].visit_mark = visit_epoch_;
        comp_links_.push_back(l);
      }
    }
  }

  // Water-filling max-min fairness restricted to the component. A route may
  // traverse a link multiple times; each traversal consumes one share of
  // that link (mult), but the flow's rate is the single bottleneck share.
  for (LinkId l : comp_links_) {
    LinkState& ls = links_[l];
    ls.residual = ls.spec.capacity_bps;
    ls.unfrozen_mult = 0.0;
  }
  for (std::uint32_t slot : comp_flows_) {
    Flow& f = flows_[slot];
    f.rate = 0.0;
    for (std::size_t i = 0; i < f.links.size(); ++i) {
      links_[f.links[i]].unfrozen_mult += f.mult[i];
    }
  }
  // Bottleneck selection runs over a min-heap keyed by (fair share, LinkId)
  // instead of rescanning every component link per round, so a component of
  // n links water-fills in O(n log n) rather than O(n^2). Keys are lazily
  // invalidated: freezing a bottleneck's flows at share s can only *raise*
  // a surviving link's share ((r - s*m) / (u - m) >= r/u whenever
  // s <= r/u), so a popped entry whose stored key is below the link's
  // current share is stale — re-queue it under the fresh key and pop again.
  // The LinkId tie-break freezes equal-share bottlenecks in the same
  // ascending order as reference_rates()' linear scan, keeping freeze order
  // (and therefore floating-point rate arithmetic) aligned with the oracle.
  const auto heap_later = [](const HeapEntry& a, const HeapEntry& b) {
    if (a.share != b.share) return a.share > b.share;
    return a.link > b.link;
  };
  heap_.clear();
  for (LinkId l : comp_links_) {
    const LinkState& ls = links_[l];
    if (ls.unfrozen_mult <= 0.0) continue;
    heap_.push_back(HeapEntry{ls.residual / ls.unfrozen_mult, l});
  }
  std::make_heap(heap_.begin(), heap_.end(), heap_later);
  stats_.heap_pushes += heap_.size();
  std::size_t unfrozen = comp_flows_.size();
  while (unfrozen > 0) {
    if (heap_.empty()) {
      throw std::logic_error(
          "FluidNetwork: water-filling found no bottleneck for " +
          std::to_string(unfrozen) + " unfrozen flow(s)");
    }
    std::pop_heap(heap_.begin(), heap_.end(), heap_later);
    const HeapEntry top = heap_.back();
    heap_.pop_back();
    LinkState& bls = links_[top.link];
    if (bls.unfrozen_mult <= 0.0) continue;  // fully frozen since pushed
    const double best_share = bls.residual / bls.unfrozen_mult;
    if (best_share > top.share) {
      heap_.push_back(HeapEntry{best_share, top.link});
      std::push_heap(heap_.begin(), heap_.end(), heap_later);
      ++stats_.heap_pushes;
      ++stats_.heap_reinserts;
      continue;
    }
    // Freeze every unfrozen flow through the bottleneck at its fair share.
    for (const LinkEntry& e : bls.entries) {
      Flow& f = flows_[e.flow];
      if (f.frozen_mark == visit_epoch_) continue;
      f.frozen_mark = visit_epoch_;
      f.rate = best_share;
      // A zero-capacity (severed) bottleneck freezes its flows at rate 0;
      // they stay live but stalled until the link is restored or they are
      // cancelled, and must not participate in completion scheduling.
      f.stalled = best_share <= 0.0;
      for (std::size_t i = 0; i < f.links.size(); ++i) {
        LinkState& ls = links_[f.links[i]];
        ls.residual -= best_share * f.mult[i];
        ls.unfrozen_mult -= f.mult[i];
      }
      --unfrozen;
    }
  }
  for (LinkId l : comp_links_) {
    LinkState& ls = links_[l];
    ls.allocated = std::max(0.0, ls.spec.capacity_bps - ls.residual);
  }

  stats_.flows_resolved += comp_flows_.size();
  stats_.links_resolved += comp_links_.size();
  if (comp_links_.size() == links_.size()) ++stats_.full_resolves;
  dirty_links_.clear();
  ++dirty_epoch_;

  if (tracer_ != nullptr) {
    const Time now = engine_->now();
    tracer_->add_counter("fluid", "rate_resolves", now,
                         static_cast<double>(stats_.resolves));
    tracer_->add_counter("fluid", "resolved_flows", now,
                         static_cast<double>(comp_flows_.size()));
  }
  if (self_check_) run_self_check();
}

std::vector<double> FluidNetwork::reference_rates() const {
  // The original whole-network water-filling solver, kept verbatim as an
  // oracle: O(links * iterations + flows * route) per call, no reuse.
  const std::size_t nflows = active_.size();
  std::vector<double> rates(nflows, 0.0);
  std::vector<char> frozen(nflows, 0);
  std::vector<double> residual(links_.size());
  std::vector<double> unfrozen_mult(links_.size(), 0.0);
  for (std::size_t l = 0; l < links_.size(); ++l) {
    residual[l] = links_[l].spec.capacity_bps;
  }
  for (std::uint32_t slot : active_) {
    const Flow& f = flows_[slot];
    for (std::size_t i = 0; i < f.links.size(); ++i) {
      unfrozen_mult[f.links[i]] += f.mult[i];
    }
  }
  std::size_t left = nflows;
  while (left > 0) {
    double best_share = std::numeric_limits<double>::infinity();
    std::size_t best = links_.size();
    for (std::size_t l = 0; l < links_.size(); ++l) {
      if (unfrozen_mult[l] <= 0.0) continue;
      const double share = residual[l] / unfrozen_mult[l];
      if (share < best_share) {
        best_share = share;
        best = l;
      }
    }
    assert(best < links_.size() && "unfrozen flow with no links");
    for (std::size_t i = 0; i < nflows; ++i) {
      if (frozen[i]) continue;
      const Flow& f = flows_[active_[i]];
      const auto it = std::find(f.links.begin(), f.links.end(),
                                static_cast<LinkId>(best));
      if (it == f.links.end()) continue;
      frozen[i] = 1;
      rates[i] = best_share;
      for (std::size_t j = 0; j < f.links.size(); ++j) {
        residual[f.links[j]] -= best_share * f.mult[j];
        unfrozen_mult[f.links[j]] -= f.mult[j];
      }
      --left;
    }
  }
  return rates;
}

void FluidNetwork::run_self_check() const {
  const std::vector<double> ref = reference_rates();
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const Flow& f = flows_[active_[i]];
    const double tol = 1e-9 * std::max(1.0, std::abs(ref[i]));
    if (std::abs(f.rate - ref[i]) > tol) {
      throw std::logic_error(
          "FluidNetwork self-check: incremental rate " +
          std::to_string(f.rate) + " != reference " + std::to_string(ref[i]) +
          " for flow slot " + std::to_string(active_[i]) + " at t=" +
          std::to_string(engine_->now()));
    }
  }
}

void FluidNetwork::schedule_next_completion() {
  double min_dt = std::numeric_limits<double>::infinity();
  for (std::uint32_t slot : active_) {
    const Flow& f = flows_[slot];
    if (f.stalled && f.rate <= 0.0) continue;  // waits for restore or cancel
    if (f.rate <= 0.0) {
      // Rates are always re-solved before this point; a live flow with no
      // rate means the solver regressed. Fail loudly instead of leaving the
      // flow stranded with no future event (which would present as a
      // silent hang or an engine deadlock far from the root cause).
      MPATH_ERROR << "FluidNetwork: active flow (slot " << slot << ", "
                  << f.remaining << " B remaining) has rate " << f.rate
                  << " at t=" << engine_->now();
      throw SimError("FluidNetwork: active flow with non-positive rate at t=" +
                     std::to_string(engine_->now()));
    }
    min_dt = std::min(min_dt, std::max(0.0, f.remaining) / f.rate);
  }
  if (!std::isfinite(min_dt)) {
    // No flow can complete (none live, or every one stalled): nothing to
    // wait for until a flow starts or a link is restored, which re-solves.
    completion_timer_.disarm();
    return;
  }
  // Re-arming replaces the pending deadline, so a superseded completion
  // never reaches the event queue.
  completion_timer_.arm(engine_->now() + min_dt);
}

void FluidNetwork::on_completion_timer() {
  ++stats_.timers_fired;
  progress_to_now();
  // A flow is complete when its remaining bytes fall below its relative
  // epsilon, or when they would stream in less than ~2 ulps of the clock —
  // otherwise the next timer could round to the current timestamp, deliver
  // nothing, and re-arm forever without advancing time.
  const double time_quantum = 4.5e-16 * std::abs(engine_->now());
  // Detach mutates active_, so collect first (into member scratch — this
  // runs once per completion timestamp and must not allocate in steady
  // state). All completions that land on this timestamp drain in this one
  // pass and share one rate re-solve.
  completed_scratch_.clear();
  for (std::uint32_t slot : active_) {
    const Flow& f = flows_[slot];
    if (f.remaining <= f.done_eps + f.rate * time_quantum) {
      completed_scratch_.push_back(slot);
    }
  }
  for (std::uint32_t slot : completed_scratch_) {
    Flow& f = flows_[slot];
    if (f.done) f.done->fire();
    detach_flow(slot);  // marks the flow's links dirty
  }
  if (completed_scratch_.empty()) {
    // Defensive re-arm: rounding pushed the nearest completion past this
    // timer. Rates are unchanged, so just schedule the next event.
    schedule_next_completion();
  } else {
    resolve_and_reschedule();
  }
}

void FluidNetwork::detach_flow(std::uint32_t slot) {
  Flow& f = flows_[slot];
  assert(f.live);
  for (std::size_t i = 0; i < f.links.size(); ++i) {
    const LinkId l = f.links[i];
    mark_link_dirty(l);
    auto& entries = links_[l].entries;
    const std::uint32_t p = f.pos[i];
    assert(p < entries.size() && entries[p].flow == slot);
    entries[p] = entries.back();
    entries.pop_back();
    if (p < entries.size()) {
      // Fix the moved entry's back-pointer.
      Flow& moved = flows_[entries[p].flow];
      for (std::size_t j = 0; j < moved.links.size(); ++j) {
        if (moved.links[j] == l) {
          moved.pos[j] = p;
          break;
        }
      }
    }
  }
  // Swap-remove from the dense active list.
  const std::uint32_t ap = f.active_pos;
  active_[ap] = active_.back();
  active_.pop_back();
  if (ap < active_.size()) flows_[active_[ap]].active_pos = ap;
  f.live = false;
  f.rate = 0.0;
  f.done.reset();
  ++f.gen;  // invalidate outstanding FlowIds
  free_slots_.push_back(slot);
}

std::uint32_t FluidNetwork::allocate_flow(std::span<const LinkId> route,
                                          double bytes, Latch* done) {
  std::unique_ptr<Latch> owned(done);
  for (LinkId l : route) {
    if (l >= links_.size()) {
      throw std::invalid_argument("FluidNetwork: bad LinkId in route");
    }
  }
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    flows_.emplace_back();
    slot = static_cast<std::uint32_t>(flows_.size() - 1);
  }
  Flow& f = flows_[slot];
  f.links.clear();
  f.mult.clear();
  f.pos.clear();
  for (LinkId l : route) {  // routes are short; quadratic dedup is fine
    const auto it = std::find(f.links.begin(), f.links.end(), l);
    if (it == f.links.end()) {
      f.links.push_back(l);
      f.mult.push_back(1.0);
    } else {
      f.mult[static_cast<std::size_t>(it - f.links.begin())] += 1.0;
    }
  }
  f.remaining = bytes;
  f.bytes_total = bytes;
  f.done_eps = completion_eps(bytes);
  f.rate = 0.0;
  f.stalled = false;
  f.done = std::move(owned);
  f.live = true;
  f.active_pos = static_cast<std::uint32_t>(active_.size());
  active_.push_back(slot);
  f.pos.resize(f.links.size());
  for (std::size_t i = 0; i < f.links.size(); ++i) {
    auto& entries = links_[f.links[i]].entries;
    f.pos[i] = static_cast<std::uint32_t>(entries.size());
    entries.push_back(LinkEntry{slot, f.mult[i]});
  }
  return slot;
}

FlowId FluidNetwork::start_flow(std::span<const LinkId> route, double bytes,
                                Latch* done) {
  if (route.empty() || !(bytes > 0.0)) {  // also catches NaN
    std::unique_ptr<Latch> owned(done);
    throw std::invalid_argument(
        "FluidNetwork::start_flow: route must be non-empty and bytes > 0");
  }
  progress_to_now();
  const std::uint32_t slot = allocate_flow(route, bytes, done);
  for (LinkId l : flows_[slot].links) mark_link_dirty(l);
  resolve_and_reschedule();
  return (static_cast<FlowId>(flows_[slot].gen) << 32) |
         static_cast<FlowId>(slot + 1);
}

bool FluidNetwork::cancel_flow(FlowId id) {
  if (id == kInvalidFlow) return false;
  const std::uint64_t low = id & 0xffffffffull;
  if (low == 0 || low > flows_.size()) return false;
  const std::uint32_t slot = static_cast<std::uint32_t>(low - 1);
  Flow& f = flows_[slot];
  if (!f.live || f.gen != static_cast<std::uint32_t>(id >> 32)) return false;
  progress_to_now();  // account bytes delivered up to the cancel point
  ++stats_.cancelled_flows;
  if (tracer_ != nullptr) {
    const Time now = engine_->now();
    tracer_->add_instant("fluid", "cancel_flow slot=" + std::to_string(slot),
                         now);
    tracer_->add_counter("fluid", "cancelled_flows", now,
                         static_cast<double>(stats_.cancelled_flows));
  }
  if (f.done) f.done->fire();
  detach_flow(slot);  // marks the flow's links dirty
  resolve_and_reschedule();
  return true;
}

Task<void> FluidNetwork::transfer(Route route, double bytes) {
  if (std::isnan(bytes)) {
    throw std::invalid_argument("FluidNetwork::transfer: bytes is NaN");
  }
  double latency = 0.0;
  for (LinkId l : route) {
    latency += links_.at(l).spec.latency_s;
  }
  if (latency > 0.0) co_await engine_->delay(latency);
  if (bytes <= 0.0 || route.empty()) co_return;
  // The Latch must outlive this coroutine frame's suspension: ownership is
  // transferred to the Flow, which the network destroys after firing it.
  // Latch::operator new recycles through the simulator pool.
  auto latch = std::make_unique<Latch>(*engine_);
  Latch* lp = latch.get();
  (void)start_flow(route, bytes, latch.release());
  co_await lp->wait();
}

}  // namespace mpath::sim
