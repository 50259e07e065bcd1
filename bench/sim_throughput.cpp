// GpuSim trace-replay throughput: materialized vs streaming (no paper
// figure — it validates the streaming pipeline the workload harness feeds).
//
// Two wall-time rows replay the same synthetic multi-channel trace:
//   materialized — run(vector): the baseline path
//   streaming    — bounded TraceStream fed by a producer thread
// plus one footprint row whose `speedup` is the peak-trace-footprint
// reduction: materialized access high-water (the whole trace, resident at
// once) over the streaming high-water (bounded by stream_chunk_budget
// kernels). That ratio is what CI gates against
// bench/baselines/BENCH_sim.json — it is a property of the backpressure
// contract and transfers across hosts, unlike the streaming wall-time
// ratio, which is reported in the artifact with a zeroed baseline. On a
// 4-vCPU Intel Xeon VM (gcc 12.2, Release) the defaults replay in
// 119-160 ms on either path (six runs).
//
// The binary self-checks the replay contract before reporting: the
// streaming replay must agree with the materialized one on every
// timing/traffic counter (SimStats::same_counters) and keep its chunk
// high-water mark within the budget — a violation exits non-zero, so the
// perf job fails even if the gate row looks healthy.
//
// Usage: sim_throughput [kernels] [blocks_per_kernel] [--json[=path]]
//   defaults: 64 kernels x 4000 blocks, bare --json writes BENCH_sim.json.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "sim/trace_stream.h"

using namespace slc;
using namespace slc::bench;

namespace {

// Heavy, channel-spanning DRAM traffic: low compute per access and full-line
// bursts keep the replay memory-bound, so the per-channel MC work dominates
// each simulated cycle.
std::vector<KernelTrace> synthetic_trace(size_t kernels, size_t blocks_per_kernel) {
  std::vector<KernelTrace> trace;
  trace.reserve(kernels);
  for (size_t k = 0; k < kernels; ++k) {
    KernelTrace kt;
    kt.name = "synth" + std::to_string(k);
    kt.compute_per_access = 0.25;
    kt.accesses_per_cta = 8;
    kt.accesses.reserve(blocks_per_kernel);
    for (size_t i = 0; i < blocks_per_kernel; ++i) {
      TraceAccess a;
      a.addr = (0x1000'0000ull + k * 0x100'0000ull) + i * kBlockBytes;
      a.bursts = 4;
      a.write = (i % 4 == 3);
      kt.accesses.push_back(a);
    }
    trace.push_back(std::move(kt));
  }
  return trace;
}

GpuSimConfig sim_config() {
  GpuSimConfig cfg;
  cfg.num_mcs = 12;  // twice the default channels: more MC work per step
  cfg.decompress_latency = 20;
  return cfg;
}

SimStats replay_materialized(const std::vector<KernelTrace>& trace) {
  GpuSim sim(sim_config());
  return sim.run(trace);
}

SimStats replay_streaming(const std::vector<KernelTrace>& trace, size_t budget) {
  GpuSim sim(sim_config());
  TraceStream stream(budget);
  std::thread producer([&] {
    // Aliased borrows, same as the materialized adapter: the bench times the
    // pipeline, not kernel copies.
    for (const KernelTrace& k : trace)
      if (!stream.push(std::shared_ptr<const KernelTrace>(std::shared_ptr<const void>(), &k)))
        return;
    stream.close();
  });
  const SimStats out = sim.run(stream);
  producer.join();
  return out;
}

}  // namespace

int main(int argc, char** argv) try {
  const std::string json_path = parse_json_flag(argc, argv, "BENCH_sim.json");
  const size_t kernels = argc > 1 ? static_cast<size_t>(std::atoi(argv[1])) : 64;
  const size_t blocks = argc > 2 ? static_cast<size_t>(std::atoi(argv[2])) : 4000;

  print_banner("Sim throughput — streaming vs materialized trace replay",
               "streaming pipeline validation (no paper figure)");

  const GpuSimConfig cfg = sim_config();
  const size_t budget = cfg.stream_chunk_budget;
  const auto trace = synthetic_trace(kernels, blocks);
  const size_t accesses = kernels * blocks;
  std::printf("trace: %zu kernels x %zu blocks (%zu accesses), %u DRAM channels,\n"
              "chunk budget %zu\n\n",
              kernels, blocks, accesses, cfg.num_mcs, budget);

  // Replay-contract self-checks.
  const SimStats want = replay_materialized(trace);
  const SimStats streamed = replay_streaming(trace, budget);
  if (!want.same_counters(streamed)) {
    std::printf("FATAL: streaming replay diverged from the materialized reference\n");
    return 1;
  }
  if (streamed.stream_chunk_hwm > budget) {
    std::printf("FATAL: streaming replay queued %llu chunks against a budget of %zu\n",
                static_cast<unsigned long long>(streamed.stream_chunk_hwm), budget);
    return 1;
  }
  std::printf("The streaming replay reproduced the materialized counters and never\n");
  std::printf("exceeded the %zu-chunk budget.\n\n", budget);

  BenchReport report("sim_throughput");
  constexpr size_t kReps = 3;
  Measurement base = measure_kernel("SIM", "replay", "materialized", accesses, kReps,
                                    [&] { replay_materialized(trace); });
  Measurement streaming = measure_kernel("SIM", "replay", "streaming", accesses, kReps,
                                         [&] { replay_streaming(trace, budget); });
  // Wall-time ratio vs the materialized baseline. Machine-dependent, so the
  // committed baseline zeroes it and CI gates only the footprint row below.
  streaming.speedup = base.p50_ms / streaming.p50_ms;
  report.add(base);
  report.add(streaming);

  // The gated row: peak trace-buffer footprint, materialized over streaming.
  // run(vector) reports the whole trace as its high-water mark; the bounded
  // stream holds at most `budget` kernels, so the reduction is >= kernels /
  // budget regardless of host speed or scheduling.
  Measurement footprint;
  footprint.scheme = "SIM";
  footprint.kernel = "footprint";
  footprint.path = "streaming";
  footprint.blocks = static_cast<size_t>(streamed.stream_access_hwm);
  footprint.reps = 1;
  footprint.speedup = streamed.stream_access_hwm > 0
                          ? static_cast<double>(want.stream_access_hwm) /
                                static_cast<double>(streamed.stream_access_hwm)
                          : 0.0;
  report.add(footprint);

  report.set_meta("kernels", std::to_string(kernels));
  report.set_meta("blocks_per_kernel", std::to_string(blocks));
  report.set_meta("num_mcs", std::to_string(cfg.num_mcs));
  report.set_meta("chunk_budget", std::to_string(budget));
  report.set_meta("materialized_access_hwm", std::to_string(want.stream_access_hwm));
  report.set_meta("streaming_access_hwm", std::to_string(streamed.stream_access_hwm));
  report.set_meta("streaming_chunk_hwm", std::to_string(streamed.stream_chunk_hwm));

  std::printf("%s\n", report.table().to_string().c_str());
  std::printf("footprint row: `blocks` is the streaming peak access footprint and\n");
  std::printf("`speedup` the reduction vs materializing the whole trace (>= %zu by\n",
              kernels / std::max<size_t>(budget, 1));
  std::printf("construction at this kernel count / budget) — the row CI gates.\n");

  if (!json_path.empty() && !report.write_json(json_path)) return 1;
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "sim_throughput: %s\n", e.what());
  return 1;
}
