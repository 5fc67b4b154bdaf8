// Timeline tracing demo: export the chunk-level schedule of one multi-path
// transfer as Chrome trace-event JSON. Open results/multipath_trace.json in
// chrome://tracing or https://ui.perfetto.dev to see the direct lane and
// both staged pipelines running concurrently, chunk by chunk.
//
// Build & run:  ./build/examples/trace_multipath
#include <cstdio>
#include <filesystem>

#include "mpath/model/configurator.hpp"
#include "mpath/pipeline/channels.hpp"
#include "mpath/sim/trace.hpp"
#include "mpath/tuning/calibration.hpp"
#include "mpath/util/units.hpp"

using namespace mpath;
using namespace mpath::util::literals;

int main() {
  topo::System system = topo::make_beluga();
  model::ModelRegistry registry = tuning::calibrate(system);
  model::PathConfigurator configurator(registry);

  sim::Engine engine;
  sim::FluidNetwork network(engine);
  gpusim::GpuRuntime runtime(system, engine, network);
  sim::Tracer tracer;
  runtime.set_tracer(&tracer);
  network.set_tracer(&tracer);  // adds rate-solver counter tracks
  // Queue-depth / stream-occupancy counter tracks; stride 1 samples every
  // event — fine for a single traced transfer, use the default (256) when
  // tracing churn workloads.
  engine.set_tracer(&tracer, /*sample_stride=*/1);
  runtime.set_counter_stride(1);

  pipeline::PipelineEngine pipeline_engine(runtime);
  pipeline::ModelDrivenChannel channel(pipeline_engine, configurator,
                                       topo::PathPolicy::three_gpus_with_host());
  const auto gpus = system.topology.gpus();
  gpusim::DeviceBuffer src(gpus[0], 64_MiB), dst(gpus[1], 64_MiB);
  src.fill_pattern(7);

  engine.spawn(
      [](gpusim::DataChannel& ch, gpusim::DeviceBuffer& d,
         const gpusim::DeviceBuffer& s) -> sim::Task<void> {
        co_await ch.transfer(d, 0, s, 0, s.size());
      }(channel, dst, src),
      "traced-transfer");
  engine.run();

  const std::string path = "results/multipath_trace.json";
  std::filesystem::create_directories("results");
  tracer.write_chrome_trace(path);
  std::printf("transferred %s in %s across %zu copy operations\n",
              util::format_bytes(src.size()).c_str(),
              util::format_time(engine.now()).c_str(), tracer.span_count());
  std::printf("payload intact: %s\n", dst.same_content(src) ? "yes" : "NO");
  std::printf("timeline written to %s (open in chrome://tracing)\n",
              path.c_str());
  return 0;
}
