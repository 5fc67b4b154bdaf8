// Quickstart: model one multi-path transfer end to end.
//
//  1. Build a system description (here: the Beluga preset — 4x V100 with
//     NVLink2 and PCIe3).
//  2. Calibrate the performance model once per system (Fig. 2a Step 1).
//  3. Ask the model for the optimal path configuration of a 64 MB transfer
//     (Algorithm 1): which paths, what fraction each, how many chunks.
//  4. Execute that exact configuration on the simulated node and compare
//     measured against predicted time.
//  5. Reload the persisted model and check that it configures the transfer
//     exactly as the calibrated one does (exits 1 if it does not).
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "mpath/model/configurator.hpp"
#include "mpath/pipeline/channels.hpp"
#include "mpath/tuning/calibration.hpp"
#include "mpath/util/units.hpp"

using namespace mpath;
using namespace mpath::util::literals;

int main() {
  // 1. The system under study.
  topo::System system = topo::make_beluga();
  const auto gpus = system.topology.gpus();
  std::printf("system: %s (%zu GPUs)\n", system.topology.name().c_str(),
              gpus.size());

  // 2. One-time calibration: fits Hockney (alpha, beta) per route and the
  //    staging overhead epsilon from microbenchmarks.
  model::ModelRegistry registry = tuning::calibrate(system);
  // Persist it exactly as the runtime integration would:
  const char* const model_path = "/tmp/mpath_quickstart_model.csv";
  registry.save_csv(model_path);

  // 3. Optimal configuration for a 64 MB transfer GPU0 -> GPU1 using the
  //    direct path, two GPU-staged paths, and the host-staged path.
  model::PathConfigurator configurator(registry);
  const auto policy = topo::PathPolicy::three_gpus_with_host();
  const auto paths =
      topo::enumerate_paths(system.topology, gpus[0], gpus[1], policy);
  const std::size_t bytes = 64_MiB;
  const auto& config =
      configurator.configure(gpus[0], gpus[1], bytes, paths);

  std::printf("\noptimal configuration for a %s transfer:\n",
              util::format_bytes(bytes).c_str());
  for (const auto& share : config.paths) {
    std::printf("  %-12s theta=%5.1f%%  bytes=%-9s chunks=%d\n",
                topo::describe(share.plan, system.topology).c_str(),
                100.0 * share.theta,
                util::format_bytes(share.bytes).c_str(), share.chunks);
  }
  std::printf("predicted time: %s  (predicted bandwidth %.1f GB/s)\n",
              util::format_time(config.predicted_time).c_str(),
              util::to_gbps(config.predicted_bandwidth()));

  // 4. Execute the configuration on the simulated node.
  sim::Engine engine;
  sim::FluidNetwork network(engine);
  gpusim::GpuRuntime runtime(system, engine, network);
  pipeline::PipelineEngine pipeline_engine(runtime);
  gpusim::DeviceBuffer src(gpus[0], bytes);
  gpusim::DeviceBuffer dst(gpus[1], bytes);
  src.fill_pattern(2024);

  double measured = 0.0;
  engine.spawn(
      [](pipeline::PipelineEngine& pe, gpusim::DeviceBuffer& d,
         const gpusim::DeviceBuffer& s, const model::TransferConfig& c,
         double& out) -> sim::Task<void> {
        (void)co_await pe.execute(d, 0, s, 0, c.paths);
        out = pe.runtime().engine().now();
      }(pipeline_engine, dst, src, config, measured),
      "quickstart-transfer");
  engine.run();

  std::printf("measured time:  %s  (measured bandwidth %.1f GB/s)\n",
              util::format_time(measured).c_str(),
              util::to_gbps(static_cast<double>(bytes) / measured));
  std::printf("payload intact: %s\n",
              dst.same_content(src) ? "yes" : "NO (bug!)");
  std::printf("prediction error: %.1f%%\n",
              100.0 *
                  std::abs(measured - config.predicted_time) / measured);

  // 5. The persisted model must plan exactly like the one it came from.
  const model::ModelRegistry reloaded =
      model::ModelRegistry::load_csv(model_path);
  model::PathConfigurator reloaded_configurator(reloaded);
  const bool same =
      reloaded_configurator.configure(gpus[0], gpus[1], bytes, paths) ==
      config;
  std::printf("reloaded model: %s\n",
              same ? "same configuration" : "DIFFERENT configuration (bug!)");
  return same ? 0 : 1;
}
