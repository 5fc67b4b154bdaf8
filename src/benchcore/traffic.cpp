#include "mpath/benchcore/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "mpath/util/rng.hpp"

namespace mpath::benchcore {

std::string_view to_string(ArrivalPattern pattern) {
  switch (pattern) {
    case ArrivalPattern::kStorm:
      return "storm";
    case ArrivalPattern::kPoisson:
      return "poisson";
    case ArrivalPattern::kHeavyTail:
      return "heavy-tail";
  }
  return "?";
}

std::vector<Arrival> make_arrivals(const topo::Topology& topo,
                                   const TrafficOptions& options) {
  if (options.transfers <= 0) {
    throw std::invalid_argument("make_arrivals: transfers must be > 0");
  }
  if (options.sizes.empty()) {
    throw std::invalid_argument("make_arrivals: sizes must be non-empty");
  }
  for (std::uint64_t s : options.sizes) {
    if (s == 0) throw std::invalid_argument("make_arrivals: zero size");
  }
  if (!(options.mean_interarrival_s >= 0.0)) {
    throw std::invalid_argument(
        "make_arrivals: mean_interarrival_s must be >= 0");
  }
  if (options.pattern == ArrivalPattern::kStorm && options.storm_width < 1) {
    throw std::invalid_argument("make_arrivals: storm_width must be >= 1");
  }
  const std::vector<topo::DeviceId> gpus = topo.gpus();
  if (gpus.size() < 2) {
    throw std::invalid_argument("make_arrivals: need at least 2 GPUs");
  }

  util::Rng rng(options.seed);
  const double mean = options.mean_interarrival_s;
  // Pareto scale so the gap mean equals `mean`.
  const double pareto_xm = mean * (kParetoAlpha - 1.0) / kParetoAlpha;

  std::vector<Arrival> out;
  out.reserve(static_cast<std::size_t>(options.transfers));
  double clock = 0.0;
  for (int i = 0; i < options.transfers; ++i) {
    Arrival a;
    switch (options.pattern) {
      case ArrivalPattern::kStorm:
        // Bursts of storm_width same-instant arrivals, `mean` apart.
        a.t = static_cast<double>(i / options.storm_width) * mean;
        break;
      case ArrivalPattern::kPoisson:
        clock += -mean * std::log1p(-rng.uniform(0.0, 1.0));
        a.t = clock;
        break;
      case ArrivalPattern::kHeavyTail:
        clock += pareto_xm * std::pow(1.0 - rng.uniform(0.0, 1.0),
                                      -1.0 / kParetoAlpha);
        a.t = clock;
        break;
    }
    const auto si = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(gpus.size()) - 1));
    auto di = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(gpus.size()) - 2));
    if (di >= si) ++di;
    a.src = gpus[si];
    a.dst = gpus[di];
    a.bytes = options.sizes[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(options.sizes.size()) - 1))];
    out.push_back(a);
  }
  return out;
}

namespace {

struct RunState {
  int completed = 0;
  int failed = 0;
  double last_done_s = 0.0;
};

sim::Task<void> one_transfer(SimStack& stack, Arrival arrival, RunState& state,
                             gpusim::DeviceBuffer& src,
                             gpusim::DeviceBuffer& dst) {
  co_await stack.engine().delay(arrival.t);
  try {
    co_await stack.channel().transfer(dst, 0, src, 0, arrival.bytes);
    ++state.completed;
    state.last_done_s = std::max(state.last_done_s, stack.engine().now());
  } catch (const gpusim::TransferError&) {
    ++state.failed;
    // A failed transfer still pins down the makespan: the node was busy
    // with it until it gave up.
    state.last_done_s = std::max(state.last_done_s, stack.engine().now());
  }
}

}  // namespace

TrafficReport run_traffic(SimStack& stack, std::span<const Arrival> arrivals) {
  TrafficReport report;
  report.transfers = static_cast<int>(arrivals.size());
  if (arrivals.empty()) return report;

  RunState state;
  std::vector<std::unique_ptr<gpusim::DeviceBuffer>> buffers;
  buffers.reserve(arrivals.size() * 2);
  for (const Arrival& a : arrivals) {
    report.bytes_offered += a.bytes;
    auto& src = *buffers.emplace_back(
        std::make_unique<gpusim::DeviceBuffer>(a.src, a.bytes));
    auto& dst = *buffers.emplace_back(
        std::make_unique<gpusim::DeviceBuffer>(a.dst, a.bytes));
    stack.engine().spawn(one_transfer(stack, a, state, src, dst), "traffic");
  }
  stack.engine().run();

  report.completed = state.completed;
  report.failed = state.failed;
  const double t0 = arrivals.front().t;
  report.makespan_s = std::max(0.0, state.last_done_s - t0);
  if (report.makespan_s > 0.0) {
    report.transfers_per_s =
        static_cast<double>(report.completed) / report.makespan_s;
    report.aggregate_bandwidth =
        static_cast<double>(report.bytes_offered) / report.makespan_s;
  }
  return report;
}

}  // namespace mpath::benchcore
