#include "mpath/pipeline/collective_graph.hpp"

#include <map>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mpath/pipeline/scheduler.hpp"

namespace mpath::pipeline {

namespace {

/// Cached chains (LRU).
constexpr std::size_t kChainCacheCapacity = 8;
/// Capture safety valve per chain.
constexpr std::size_t kMaxChainSteps = 4096;

/// Packed (rel_tag, src_rank, dst_rank): a step's identity in its chain.
std::uint64_t step_key(int rel_tag, int src_rank, int dst_rank) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rel_tag))
          << 40) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src_rank) &
                                     0xfffffu)
          << 20) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst_rank) &
                                     0xfffffu));
}

}  // namespace

/// One captured collective: steps keyed by (rel_tag, src_rank, dst_rank).
/// Owned by the controller's cache and shared with in-flight iterations.
class CollectiveGraph {
 public:
  enum class State : std::uint8_t { kCapturing, kReady, kDead };

  struct Step {
    topo::DeviceId src_dev = topo::kInvalidDevice;
    topo::DeviceId dst_dev = topo::kInvalidDevice;
    std::uint64_t bytes = 0;
    /// Compiled template; null = passthrough (small message or
    /// non-reproducible capture). Steps with identical (src_dev, dst_dev,
    /// bytes) share one template.
    GraphPtr graph;
    model::TransferConfig config;  ///< recorded at capture (if has_config)
    bool has_config = false;
  };

  ChainKey key;
  State state = State::kCapturing;
  std::vector<Step> steps;
  std::unordered_map<std::uint64_t, std::uint32_t> index;  ///< key -> step
  std::uint64_t capacity_epoch = 0;  ///< scheduler epoch at seal
  std::uint64_t cal_version = 0;     ///< calibration version at seal
  bool aborted = false;              ///< capture overflow / duplicate key
};

ChainController::~ChainController() { clear(); }

std::uint64_t ChainController::scheduler_epoch() const {
  TransferScheduler* sched = channel_->scheduler();
  return sched != nullptr ? sched->stats().capacity_events : 0;
}

bool ChainController::enter(const char* name, int world, std::uint64_t payload,
                            int algo, int variant, int base_tag) {
  if (active_) {
    if (base_tag == base_tag_) {
      ++refcount_;
      return true;
    }
    // Overlapping invocation of a *different* collective (no barrier
    // between them): the tap could not attribute messages, so the newcomer
    // runs unchained. Its own next non-overlapping invocation chains fine.
    ++stats_.bypasses;
    return false;
  }
  ChainKey key{name, world, payload, algo, variant};
  ChainPtr chain = resolve(key);
  if (chain != nullptr) {
    capturing_ = false;
    ++stats_.iterations_replayed;
  } else {
    chain = std::make_shared<CollectiveGraph>();
    chain->key = std::move(key);
    capturing_ = true;
    ++stats_.iterations_captured;
  }
  active_ = true;
  base_tag_ = base_tag;
  refcount_ = 1;
  inv_chain_ = std::move(chain);
  pending_ = {};
  return true;
}

void ChainController::leave() {
  if (!active_ || --refcount_ > 0) return;
  if (inv_chain_ != nullptr && capturing_) seal(inv_chain_);
  active_ = false;
  capturing_ = false;
  inv_chain_ = nullptr;
  pending_ = {};
}

ChainController::ChainPtr ChainController::resolve(const ChainKey& key) {
  for (auto it = cache_.begin(); it != cache_.end(); ++it) {
    if ((*it)->key != key) continue;
    ChainPtr chain = *it;
    if (chain->cal_version != channel_->graph_cal_version()) {
      // Calibration superseded: every compiled split is stale.
      kill(*chain, &ChainStats::stale_cal_kills);
      return nullptr;
    }
    if (channel_->scheduler() != nullptr &&
        chain->capacity_epoch != scheduler_epoch()) {
      kill(*chain, &ChainStats::epoch_kills);
      return nullptr;
    }
    cache_.splice(cache_.begin(), cache_, it);
    return chain;
  }
  return nullptr;
}

void ChainController::seal(const ChainPtr& chain) {
  CollectiveGraph& c = *chain;
  if (c.aborted || c.steps.empty()) return;  // nothing usable; discard
  // One private template per distinct (src, dst, bytes) among the
  // reproducible steps; identical steps share it (a same-instant collision
  // at replay falls back via busy()). Templates are chain-owned — never
  // shared with the channel's GraphCache.
  std::map<std::tuple<topo::DeviceId, topo::DeviceId, std::uint64_t>, GraphPtr>
      dedupe;
  for (CollectiveGraph::Step& step : c.steps) {
    if (!step.has_config) continue;
    const auto key = std::make_tuple(step.src_dev, step.dst_dev, step.bytes);
    auto it = dedupe.find(key);
    if (it != dedupe.end()) {
      step.graph = it->second;
      continue;
    }
    // A recorded config already ran as planned, through the same
    // validation, so compiling it cannot throw out of leave().
    GraphPtr g = channel_->engine_->compile_graph(step.src_dev, step.dst_dev,
                                                  step.config);
    g->set_capacity_epoch(scheduler_epoch());
    dedupe.emplace(key, g);
    step.graph = std::move(g);
  }
  c.cal_version = channel_->graph_cal_version();
  c.capacity_epoch = scheduler_epoch();
  c.state = CollectiveGraph::State::kReady;
  ++stats_.captures;
  cache_.push_front(chain);
  while (cache_.size() > kChainCacheCapacity) cache_.pop_back();
}

void ChainController::kill(CollectiveGraph& chain,
                           std::uint64_t ChainStats::* cause) {
  ++(stats_.*cause);
  chain.state = CollectiveGraph::State::kDead;
  for (auto it = cache_.begin(); it != cache_.end(); ++it) {
    if (it->get() == &chain) {
      cache_.erase(it);
      break;
    }
  }
}

void ChainController::on_transfer(const transport::TransferSite& site) {
  pending_ = {};
  if (!active_ || inv_chain_ == nullptr) return;
  const int rel = site.tag - base_tag_;
  if (rel < 0 || rel >= 64) return;  // not this collective's message
  CollectiveGraph& chain = *inv_chain_;
  const std::uint64_t key = step_key(rel, site.src_rank, site.dst_rank);
  if (capturing_) {
    if (chain.aborted) return;
    if (chain.steps.size() >= kMaxChainSteps ||
        !chain.index
             .emplace(key, static_cast<std::uint32_t>(chain.steps.size()))
             .second) {
      // Overflow, or two messages with identical (tag, src, dst) in one
      // invocation — replay could not tell them apart. Give up; the
      // collective keeps running uncaptured.
      chain.aborted = true;
      ++stats_.capture_aborts;
      return;
    }
    CollectiveGraph::Step step;
    step.src_dev = site.src_device;
    step.dst_dev = site.dst_device;
    step.bytes = site.bytes;
    chain.steps.push_back(std::move(step));
    pending_.chain = &chain;
    pending_.step = static_cast<std::uint32_t>(chain.steps.size() - 1);
    pending_.capture = true;
    return;
  }
  if (chain.state != CollectiveGraph::State::kReady) return;
  const auto it = chain.index.find(key);
  if (it == chain.index.end()) {
    // The algorithm produced a message the capture never saw: the chain no
    // longer describes this collective.
    kill(chain, &ChainStats::mismatch_kills);
    return;
  }
  const CollectiveGraph::Step& step = chain.steps[it->second];
  if (step.bytes != site.bytes || step.src_dev != site.src_device ||
      step.dst_dev != site.dst_device) {
    kill(chain, &ChainStats::mismatch_kills);
    return;
  }
  pending_.chain = &chain;
  pending_.step = it->second;
  pending_.replay = true;
}

ChainController::Pending ChainController::take_pending() {
  return std::exchange(pending_, Pending{});
}

void ChainController::record_step(const Pending& p,
                                  const model::TransferConfig* config) {
  if (p.chain == nullptr || !p.capture) return;
  CollectiveGraph& chain = *p.chain;
  if (chain.aborted || p.step >= chain.steps.size()) return;
  if (config != nullptr) {
    chain.steps[p.step].config = *config;
    chain.steps[p.step].has_config = true;
  }
}

GraphPtr ChainController::claim_step(const Pending& p,
                                     ModelDrivenChannel::Plan& plan) {
  if (p.chain == nullptr || !p.replay) return nullptr;
  CollectiveGraph& chain = *p.chain;
  if (chain.state != CollectiveGraph::State::kReady) return nullptr;
  const CollectiveGraph::Step& step = chain.steps[p.step];
  if (step.graph == nullptr) {
    ++stats_.passthrough_steps;
    return nullptr;
  }
  switch (channel_->replay_gate(*step.graph, step.src_dev, step.dst_dev,
                                step.bytes, step.graph->key_paths(), plan)) {
    case ModelDrivenChannel::Gate::kReplay:
      ++stats_.replayed_steps;
      return step.graph;
    case ModelDrivenChannel::Gate::kBusy:
      // The shared template is mid-replay (identical concurrent step):
      // this step alone falls back to the fresh path; the chain survives.
      ++stats_.busy_fallbacks;
      break;
    case ModelDrivenChannel::Gate::kStaleEpoch:
      kill(chain, &ChainStats::epoch_kills);
      break;
    case ModelDrivenChannel::Gate::kContended:
      ++stats_.contended_steps;
      break;
    case ModelDrivenChannel::Gate::kUnhealthy:
      // A template path is on probation: this step plans around it and
      // the chain survives to replay it once the path is readmitted.
      // Killing the chain would recapture with the path still excluded.
      ++stats_.unhealthy_steps;
      break;
  }
  return nullptr;
}

void ChainController::clear() {
  cache_.clear();
  inv_chain_ = nullptr;
  capturing_ = false;
  pending_ = {};
}

}  // namespace mpath::pipeline
