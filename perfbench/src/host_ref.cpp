#include "host_ref.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common.hpp"

namespace perfbench {

// Fixed forever: changing this kernel changes every normalized host metric.
double run_reference() {
  const double t0 = now_ns();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  // A pending-event heap, a growing hash table and one small heap object
  // per event: the simulator's mix of sift, hash lookup and allocation.
  std::vector<std::pair<double, std::uint64_t>> heap;
  for (int i = 0; i < 4096; ++i) {
    heap.emplace_back(static_cast<double>(next() % 1000000), next());
  }
  std::make_heap(heap.begin(), heap.end(), std::greater<>());
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  std::uint64_t sink = 0;
  for (int i = 0; i < 60000; ++i) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const auto ev = heap.back();
    heap.pop_back();
    auto obj = std::make_unique<std::array<std::uint64_t, 12>>();
    (*obj)[ev.second % 12] = ev.second;
    table[ev.second & 0xffff] += (*obj)[ev.second % 12];
    sink += table.size();
    heap.emplace_back(ev.first + static_cast<double>(next() % 1000), next());
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  const double dt = now_ns() - t0;
  // Keep the work observable so it cannot be folded away.
  volatile std::uint64_t keep = sink;
  (void)keep;
  return dt;
}

}  // namespace perfbench
