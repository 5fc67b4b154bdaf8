#include "mpath/benchcore/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <limits>
#include <optional>
#include <thread>

#include "mpath/util/rng.hpp"

namespace mpath::benchcore {

namespace {
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
}  // namespace

SweepRunner::SweepRunner(SweepOptions options)
    : jobs_(options.jobs > 0 ? options.jobs : hardware_jobs()) {
  stats_.jobs = jobs_;
}

int SweepRunner::hardware_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void SweepRunner::dispatch(std::size_t n, void* ctx, ScenarioFn invoke) {
  if (n == 0) return;
  const auto workers = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(jobs_), n));
  const auto t0 = Clock::now();

  // One contiguous block per worker; the atomic cursor is both the local
  // work source and the steal target. Cache-line alignment keeps cursor
  // traffic from false-sharing between workers.
  struct alignas(64) Block {
    std::atomic<std::size_t> next{0};
    std::size_t end = 0;
  };
  std::vector<Block> blocks(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    const auto uw = static_cast<std::size_t>(w);
    blocks[uw].next.store(n * uw / static_cast<std::size_t>(workers),
                          std::memory_order_relaxed);
    blocks[uw].end = n * (uw + 1) / static_cast<std::size_t>(workers);
  }

  struct alignas(64) WorkerLog {
    double busy_s = 0.0;
    std::uint64_t ran = 0;
    std::uint64_t steals = 0;
    std::size_t error_index = std::numeric_limits<std::size_t>::max();
    std::exception_ptr error;
  };
  std::vector<WorkerLog> logs(static_cast<std::size_t>(workers));

  auto work = [&](int w) {
    WorkerLog& log = logs[static_cast<std::size_t>(w)];
    const auto run_one = [&](std::size_t i, bool stolen) {
      const auto s0 = Clock::now();
      try {
        invoke(ctx, i);
      } catch (...) {
        // Keep running the rest of the grid; remember the lowest-index
        // failure so the rethrown error is schedule-independent.
        if (i < log.error_index) {
          log.error_index = i;
          log.error = std::current_exception();
        }
      }
      log.busy_s += seconds_since(s0);
      ++log.ran;
      if (stolen) ++log.steals;
    };
    // Drain the home block, then sweep the others for leftovers.
    for (int step = 0; step < workers; ++step) {
      Block& b = blocks[static_cast<std::size_t>((w + step) % workers)];
      for (;;) {
        const std::size_t i = b.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= b.end) break;
        run_one(i, step != 0);
      }
    }
  };

  // Workers on every core leave none for the jitter filler thread, which
  // could then only take CPU time from them (DESIGN.md, "Parallel sweeps").
  std::optional<util::JitterStream::OwnFills> own_fills;
  if (workers >= hardware_jobs()) own_fills.emplace();

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers - 1));
  for (int w = 1; w < workers; ++w) pool.emplace_back(work, w);
  work(0);  // the caller is worker 0; --jobs 1 never spawns a thread
  for (auto& t : pool) t.join();

  stats_.scenarios += n;
  stats_.wall_s += seconds_since(t0);
  if (stats_.worker_busy_s.size() < static_cast<std::size_t>(workers)) {
    stats_.worker_busy_s.resize(static_cast<std::size_t>(workers), 0.0);
    stats_.worker_scenarios.resize(static_cast<std::size_t>(workers), 0);
  }
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;
  for (int w = 0; w < workers; ++w) {
    const auto uw = static_cast<std::size_t>(w);
    stats_.worker_busy_s[uw] += logs[uw].busy_s;
    stats_.worker_scenarios[uw] += logs[uw].ran;
    stats_.steals += logs[uw].steals;
    if (logs[uw].error_index < error_index) {
      error_index = logs[uw].error_index;
      error = logs[uw].error;
    }
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace mpath::benchcore
