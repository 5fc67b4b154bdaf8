// FIG-7 — Reproduces paper Figure 7: latency speedup of MPI_Alltoall and
// MPI_Allreduce over the default (direct-path) MPI+UCC+UCX stack, on
// Beluga and Narval, with 2 and 3 GPU paths (host staging excluded, as in
// the paper, because of its bidirectional contention).
//
// Series per panel: statically tuned multi-path and dynamic (model-driven)
// multi-path, both as speedup over the single-path baseline.
//
// Expected shape (paper): both collectives gain (up to ~1.4x); Alltoall
// gains more than Allreduce (reduction compute caps the latter,
// Observation 3); model-driven matches or beats static (Observation 2);
// gains are larger on Beluga (Observation 1).
#include <algorithm>
#include <cstdio>
#include <sstream>

#include "bench_common.hpp"
#include "mpath/mpisim/collectives.hpp"

namespace mb = mpath::bench;
namespace bc = mpath::benchcore;
namespace mi = mpath::mpisim;
namespace ms = mpath::sim;
namespace mt = mpath::topo;
namespace mu = mpath::util;
using namespace mpath::util::literals;

namespace {

enum class Op { Alltoall, Allreduce };

/// Latency of one collective at `bytes` per rank on the given stack.
double collective_latency(bc::SimStack& stack, Op op, std::size_t bytes) {
  bc::CollectiveOptions opt;
  opt.iterations = 3;
  opt.warmup = 1;
  return bc::measure_collective_latency(
      stack.world(),
      [op, bytes](mi::Communicator& comm) -> ms::Task<void> {
        if (op == Op::Alltoall) {
          const auto p = static_cast<std::size_t>(comm.size());
          const std::size_t blk = bytes / p;
          mpath::gpusim::DeviceBuffer send(comm.device(), p * blk,
                                           mpath::gpusim::Payload::Simulated);
          mpath::gpusim::DeviceBuffer recv(comm.device(), p * blk,
                                           mpath::gpusim::Payload::Simulated);
          co_await mi::alltoall(comm, send, recv, blk,
                                mi::AlltoallAlgo::Bruck);
        } else {
          // Element count must divide by the world size.
          const std::size_t floats =
              bytes / sizeof(float) / static_cast<std::size_t>(comm.size()) *
              static_cast<std::size_t>(comm.size());
          mpath::gpusim::DeviceBuffer data(comm.device(),
                                           floats * sizeof(float),
                                           mpath::gpusim::Payload::Simulated);
          co_await mi::allreduce_sum(
              comm, data, mi::AllreduceAlgo::RecursiveHalvingDoubling);
        }
      },
      opt);
}

/// --graphs=on|off: run the dynamic stacks with collective graph chaining.
/// Defaults to off; CI diffs the two fingerprints for bit-identity.
bool graphs_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string a(argv[i]);
    if (a == "--graphs=on") return true;
    if (a == "--graphs=off") return false;
  }
  return false;
}

/// --fingerprint=FILE: dump every cell latency at full precision for CI's
/// byte-identity gates (graphs on vs off, --jobs 1 vs 2).
std::string fingerprint_path(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string a(argv[i]);
    if (a.rfind("--fingerprint=", 0) == 0) return a.substr(14);
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = mb::quick_mode(argc, argv);
  const int jobs = mb::jobs_mode(argc, argv);
  const bool graphs = graphs_mode(argc, argv);
  const std::string fp_path = fingerprint_path(argc, argv);
  std::printf("FIG-7: collective latency speedup (paper Figure 7)%s\n\n",
              graphs ? " [collective graphs ON]" : "");

  const std::vector<std::string> systems = {"beluga", "narval"};
  // Host staging is excluded for collectives, as in the paper.
  const std::vector<mt::PathPolicy> policies = {mt::PathPolicy::two_gpus(),
                                                mt::PathPolicy::three_gpus()};
  const std::vector<Op> ops = {Op::Alltoall, Op::Allreduce};
  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{32_MiB, 128_MiB}
            : std::vector<std::size_t>{8_MiB, 32_MiB, 128_MiB, 512_MiB};
  const std::size_t n_pol = policies.size();
  const std::size_t n_op = ops.size();
  const std::size_t n_size = sizes.size();

  bc::SweepRunner runner(bc::SweepOptions{jobs});

  // Phase A — calibrate each system once.
  auto cals = runner.run(systems.size(), [&](std::size_t s) {
    return std::make_unique<mb::CalibratedSystem>(
        mt::make_system(systems[s]));
  });

  // Phase B — tune the static baseline per (system, policy, anchor). The
  // static plan targets the per-step P2P size (~bytes/2 is the typical
  // step size of both algorithms at 4 ranks).
  std::vector<std::size_t> anchors;
  for (std::size_t bytes : sizes) {
    const std::size_t a = mb::tuning_anchor(bytes / 2);
    if (std::find(anchors.begin(), anchors.end(), a) == anchors.end()) {
      anchors.push_back(a);
    }
  }
  const std::size_t n_anchor = anchors.size();
  const auto anchor_index = [&](std::size_t bytes) {
    return static_cast<std::size_t>(
        std::find(anchors.begin(), anchors.end(),
                  mb::tuning_anchor(bytes / 2)) -
        anchors.begin());
  };
  auto tuned = runner.run(
      systems.size() * n_pol * n_anchor, [&](std::size_t t) {
        const std::size_t s = t / (n_pol * n_anchor);
        const std::size_t p = (t / n_anchor) % n_pol;
        const std::size_t a = t % n_anchor;
        mpath::tuning::StaticTuner tuner(
            cals[s]->system, policies[p],
            mb::tuner_options(mpath::tuning::TuneMetric::Unidirectional,
                              quick));
        return tuner.tune(anchors[a]).plan;
      });

  // Phase C — the (system, policy, op, size) measurement grid, one
  // private stack trio per cell.
  struct Cell {
    double direct = 0.0;
    double static_s = 0.0;
    double dynamic = 0.0;
    std::uint64_t chain_replays = 0;  ///< chained steps replayed (graphs on)
  };
  auto cells = runner.run(
      systems.size() * n_pol * n_op * n_size, [&](std::size_t idx) {
        const std::size_t s = idx / (n_pol * n_op * n_size);
        const std::size_t p = (idx / (n_op * n_size)) % n_pol;
        const Op op = ops[(idx / n_size) % n_op];
        const std::size_t bytes = sizes[idx % n_size];
        const mb::CalibratedSystem& cal = *cals[s];

        Cell cell;
        auto direct_stack = bc::SimStack::direct(cal.system);
        cell.direct = collective_latency(direct_stack, op, bytes);

        const auto& plan =
            tuned[(s * n_pol + p) * n_anchor + anchor_index(bytes)];
        auto static_stack = bc::SimStack::static_plan(cal.system, plan);
        cell.static_s = collective_latency(static_stack, op, bytes);

        mpath::model::PathConfigurator configurator(cal.registry);
        bc::StackOptions dyn_opt;
        dyn_opt.collective_graphs = graphs;
        auto dyn_stack = bc::SimStack::model_driven(cal.system, configurator,
                                                    policies[p], dyn_opt);
        cell.dynamic = collective_latency(dyn_stack, op, bytes);
        if (dyn_stack.chain() != nullptr) {
          cell.chain_replays = dyn_stack.chain()->stats().replayed_steps;
        }
        return cell;
      });

  // Serial merge in grid order. A --fingerprint run writes no CSV and no
  // sweep stats: CI runs it from the repository root, where this run's grid
  // would replace the committed golden CSV.
  const bool write_results = fp_path.empty();
  mu::CsvWriter csv(mb::results_dir() + "/fig7_collectives.csv");
  if (write_results) {
    csv.header({"system", "collective", "policy", "bytes_per_rank",
                "direct_latency_s", "static_speedup", "dynamic_speedup"});
  }
  std::size_t idx = 0;
  for (std::size_t s = 0; s < systems.size(); ++s) {
    for (std::size_t p = 0; p < n_pol; ++p) {
      for (Op op : ops) {
        const char* op_name = op == Op::Alltoall ? "Alltoall" : "Allreduce";
        mu::Table table({"msg/rank", "direct", "static x", "dynamic x"});
        for (std::size_t bytes : sizes) {
          const Cell& cell = cells[idx++];
          table.add_row({mu::format_bytes(bytes),
                         mu::format_time(cell.direct),
                         mu::Table::fixed(cell.direct / cell.static_s, 2),
                         mu::Table::fixed(cell.direct / cell.dynamic, 2)});
          if (write_results) {
            csv.row({systems[s], op_name, policies[p].label(),
                     std::to_string(bytes), mu::CsvWriter::num(cell.direct),
                     mu::CsvWriter::num(cell.direct / cell.static_s),
                     mu::CsvWriter::num(cell.direct / cell.dynamic)});
          }
        }
        std::printf("-- Figure 7 panel: %s, %s, %s --\n", op_name,
                    systems[s].c_str(), policies[p].label().c_str());
        table.print();
        std::printf("\n");
      }
    }
  }
  if (write_results) {
    csv.close();
    std::printf("CSV written to %s/fig7_collectives.csv\n",
                mb::results_dir().c_str());
    mb::report_sweep("fig7", runner.stats());
  } else {
    // Full-precision latencies in grid order: identical bytes on disk means
    // identical simulated timelines (the chained-replay bit-identity gate).
    std::ostringstream fp;
    std::size_t k = 0;
    for (std::size_t s = 0; s < systems.size(); ++s) {
      for (std::size_t p = 0; p < n_pol; ++p) {
        for (Op op : ops) {
          for (std::size_t bytes : sizes) {
            const Cell& cell = cells[k++];
            char line[256];
            std::snprintf(line, sizeof(line), "%s,%s,%s,%zu,%.17g,%.17g,%.17g\n",
                          systems[s].c_str(),
                          op == Op::Alltoall ? "Alltoall" : "Allreduce",
                          policies[p].label().c_str(), bytes, cell.direct,
                          cell.static_s, cell.dynamic);
            fp << line;
          }
        }
      }
    }
    mu::write_file_atomic(fp_path, fp.str());
    std::printf("fingerprint written to %s\n", fp_path.c_str());
  }
  if (graphs) {
    std::uint64_t replays = 0;
    for (const Cell& cell : cells) replays += cell.chain_replays;
    std::printf("collective graph chaining: %llu chained steps replayed\n",
                static_cast<unsigned long long>(replays));
    if (replays == 0) {
      std::fprintf(stderr,
                   "FIG-7: --graphs=on but no chained step replayed — the "
                   "capture/replay path is not engaging\n");
      return 3;
    }
  }
  return 0;
}
