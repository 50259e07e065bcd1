// Streaming-vs-materialized equivalence: for every Table III workload the
// TraceStream pipeline (ApproxMemory publishing kernels into a bounded
// stream while GpuSim consumes them) must produce bit-identical timing
// counters to the materialize-then-replay path.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sim/gpu_sim.h"
#include "sim/trace_stream.h"
#include "workloads/workload.h"

namespace slc {
namespace {

std::vector<KernelTrace> materialized_trace(const std::string& name) {
  auto wl = make_workload(name, WorkloadScale::kTiny);
  ApproxMemory mem;
  wl->init(mem);
  mem.commit_all();
  wl->run(mem);
  mem.flush();
  return mem.take_trace();
}

// Runs `name` with its trace flowing through a bounded TraceStream into a
// concurrently-draining GpuSim.
SimStats streamed_run(const std::string& name) {
  const GpuSimConfig cfg;
  GpuSim sim(cfg);
  auto stream = std::make_shared<TraceStream>(cfg.stream_chunk_budget);
  SimStats got;
  std::thread consumer([&] { got = sim.run(*stream); });

  auto wl = make_workload(name, WorkloadScale::kTiny);
  ApproxMemory mem;
  mem.set_trace_sink(stream);
  wl->init(mem);
  mem.commit_all();
  wl->run(mem);
  mem.flush();
  mem.end_trace();
  consumer.join();
  return got;
}

class StreamingSimTest : public ::testing::TestWithParam<std::string> {};

// The name predates single-threaded replay; it is kept so the test IDs of
// the nine instances stay stable.
TEST_P(StreamingSimTest, StreamingMatchesMaterializedAtOneAndManyWorkers) {
  const std::vector<KernelTrace> trace = materialized_trace(GetParam());
  ASSERT_FALSE(trace.empty());
  GpuSim ref(GpuSimConfig{});
  const SimStats want = ref.run(trace);

  const GpuSimConfig cfg;
  const SimStats got = streamed_run(GetParam());
  EXPECT_TRUE(want.same_counters(got))
      << GetParam() << ": streaming replay diverged from the materialized replay";
  EXPECT_EQ(got.kernels, trace.size());
  // Backpressure contract: the bounded stream never held more than its
  // chunk budget.
  ASSERT_GT(cfg.stream_chunk_budget, 0u);
  EXPECT_LE(got.stream_chunk_hwm, cfg.stream_chunk_budget);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, StreamingSimTest,
                         ::testing::ValuesIn(workload_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace slc
