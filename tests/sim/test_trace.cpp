#include "mpath/sim/trace.hpp"

#include <gtest/gtest.h>

#include <fstream>

#include "mpath/pipeline/engine.hpp"
#include "mpath/topo/system.hpp"
#include "mpath/util/units.hpp"

namespace mg = mpath::gpusim;
namespace mm = mpath::model;
namespace mp = mpath::pipeline;
namespace ms = mpath::sim;
namespace mt = mpath::topo;
using namespace mpath::util::literals;

TEST(Tracer, CollectsSpansAndInstants) {
  ms::Tracer tracer;
  tracer.add_span("track-a", "work", 0.0, 1.5e-6);
  tracer.add_span("track-b", "other", 1.0e-6, 2.0e-6);
  tracer.add_instant("track-a", "mark", 0.5e-6);
  EXPECT_EQ(tracer.span_count(), 2u);
  EXPECT_EQ(tracer.instant_count(), 1u);
  tracer.clear();
  EXPECT_EQ(tracer.span_count(), 0u);
}

TEST(Tracer, CollectsCounters) {
  ms::Tracer tracer;
  tracer.add_counter("fluid", "rate_resolves", 0.0, 1.0);
  tracer.add_counter("fluid", "rate_resolves", 1e-6, 2.0);
  EXPECT_EQ(tracer.counter_count(), 2u);
  const std::string json = tracer.chrome_trace_json();
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("rate_resolves"), std::string::npos);
  EXPECT_NE(json.find("\"value\":2.000000"), std::string::npos);
  tracer.clear();
  EXPECT_EQ(tracer.counter_count(), 0u);
}

TEST(Tracer, FluidNetworkEmitsResolveCounters) {
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  ms::Tracer tracer;
  net.set_tracer(&tracer);
  const auto link = net.add_link({"l", 100.0, 0.0});
  engine.spawn([](ms::FluidNetwork& n, ms::LinkId l) -> ms::Task<void> {
    std::vector<ms::LinkId> route{l};
    co_await n.transfer(std::move(route), 100.0);
  }(net, link), "counted");
  engine.run();
  // Each resolve emits rate_resolves + resolved_flows samples.
  EXPECT_GE(tracer.counter_count(), 2u);
  const std::string json = tracer.chrome_trace_json();
  EXPECT_NE(json.find("rate_resolves"), std::string::npos);
  EXPECT_NE(json.find("resolved_flows"), std::string::npos);
}

TEST(Tracer, RejectsNegativeDuration) {
  ms::Tracer tracer;
  EXPECT_THROW(tracer.add_span("t", "x", 2.0, 1.0), std::invalid_argument);
}

TEST(Tracer, ChromeJsonIsWellFormed) {
  ms::Tracer tracer;
  tracer.add_span("stream0 (gpu0)", "copy 4MB \"quoted\"", 0.0, 1e-3);
  tracer.add_instant("stream0 (gpu0)", "fire", 5e-4);
  const std::string json = tracer.chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);  // escaped
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  // Microsecond export: 1e-3 s span -> dur 1000 us.
  EXPECT_NE(json.find("\"dur\":1000.000000"), std::string::npos);
}

TEST(Tracer, RuntimeEmitsCopySpans) {
  auto sys = mt::make_beluga();
  sys.costs.jitter_rel = 0;
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  mg::GpuRuntime rt(sys, engine, net);
  ms::Tracer tracer;
  rt.set_tracer(&tracer);
  const auto gpus = sys.topology.gpus();

  mp::PipelineEngine pipe(rt);
  mg::DeviceBuffer src(gpus[0], 8_MiB), dst(gpus[1], 8_MiB);
  engine.spawn([](mp::PipelineEngine& pe, mg::DeviceBuffer& d,
                  const mg::DeviceBuffer& s,
                  std::vector<mt::DeviceId> g) -> ms::Task<void> {
    const std::vector<mm::PathShare> plan{
        {{mt::PathKind::Direct, mt::kInvalidDevice}, 0.5, 4_MiB, 1, 0.0, {}},
        {{mt::PathKind::GpuStaged, g[2]}, 0.5, 4_MiB, 4, 0.0, {}}};
    (void)co_await pe.execute(d, 0, s, 0, plan);
  }(pipe, dst, src, gpus), "traced");
  engine.run();

  // 1 direct copy + 4 chunks x 2 hops = 9 copy spans.
  EXPECT_EQ(tracer.span_count(), 9u);
  const std::string json = tracer.chrome_trace_json();
  EXPECT_NE(json.find("gpu0->gpu2"), std::string::npos);
  EXPECT_NE(json.find("gpu2->gpu1"), std::string::npos);
  EXPECT_NE(json.find("gpu0->gpu1"), std::string::npos);
  // Detach: no further spans recorded.
  rt.set_tracer(nullptr);
  const auto before = tracer.span_count();
  mg::DeviceBuffer src2(gpus[0], 64), dst2(gpus[1], 64);
  const auto stream = rt.create_stream(gpus[0]);
  rt.memcpy_async(dst2, 0, src2, 0, 64, stream);
  engine.spawn([](mg::GpuRuntime& r, mg::StreamId st) -> ms::Task<void> {
    co_await r.synchronize(st);
  }(rt, stream), "untraced");
  engine.run();
  EXPECT_EQ(tracer.span_count(), before);
}

TEST(Tracer, FileExportRoundTrips) {
  ms::Tracer tracer;
  tracer.add_span("t", "s", 0, 1e-6);
  const std::string path = "/tmp/mpath_trace_test.json";
  tracer.write_chrome_trace(path);
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  EXPECT_EQ(content, tracer.chrome_trace_json());
}

TEST(Tracer, EngineEmitsQueueDepthCounter) {
  ms::Engine engine;
  ms::Tracer tracer;
  engine.set_tracer(&tracer, /*sample_stride=*/2);
  for (int i = 0; i < 10; ++i) {
    engine.schedule_callback(1e-6 * i, [] {});
  }
  engine.run();
  // 10 events, stride 2 -> 5 samples on track "engine".
  EXPECT_EQ(tracer.counter_count(), 5u);
  const std::string json = tracer.chrome_trace_json();
  EXPECT_NE(json.find("event_queue_depth"), std::string::npos);
  // Detach: no more samples.
  engine.set_tracer(nullptr);
  engine.schedule_callback(1.0, [] {});
  engine.run();
  EXPECT_EQ(tracer.counter_count(), 5u);
}

TEST(Tracer, RuntimeEmitsStreamOccupancyCounter) {
  auto sys = mt::make_beluga();
  sys.costs.jitter_rel = 0;
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  mg::GpuRuntime rt(sys, engine, net);
  ms::Tracer tracer;
  rt.set_tracer(&tracer);
  rt.set_counter_stride(1);  // sample on every enqueued op
  const auto gpus = sys.topology.gpus();
  mg::DeviceBuffer src(gpus[0], 1_MiB), dst(gpus[1], 1_MiB);
  const auto stream = rt.create_stream(gpus[0]);
  rt.memcpy_async(dst, 0, src, 0, 1_MiB, stream);
  rt.memcpy_async(dst, 0, src, 0, 1_MiB, stream);
  engine.spawn([](mg::GpuRuntime& r, mg::StreamId st) -> ms::Task<void> {
    co_await r.synchronize(st);
  }(rt, stream), "sync");
  engine.run();
  const std::string json = tracer.chrome_trace_json();
  EXPECT_NE(json.find("streams_busy"), std::string::npos);
  // The second enqueue saw the first copy still outstanding.
  EXPECT_NE(json.find("\"value\":1.000000"), std::string::npos);
}
