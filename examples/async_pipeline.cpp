// Async pipeline: the CodecEngine submit()/CodecFuture API and
// ApproxMemory::commit_async() + flush(), end to end.
//
// Four stages:
//   1. Two independent analyze jobs in flight on one engine — submit both,
//      then wait both; each job's shards write index-aligned slots, so its
//      result matches the same job run alone.
//   2. A region commit queued with commit_async() while the caller keeps
//      generating data for the next region (the workload-harness pipeline).
//   3. flush() as the barrier that makes burst counts and stats final.
//   4. GpuSim::run(ApproxMemory&) replaying the captured trace — it flushes
//      in-flight commits itself, so replay always sees final burst counts.
//
// Build & run:   cmake -B build && cmake --build build
//                ./build/examples/async_pipeline
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/block.h"
#include "common/rng.h"
#include "compress/codec_registry.h"
#include "engine/codec_engine.h"
#include "sim/gpu_sim.h"
#include "workloads/approx_memory.h"

using namespace slc;

namespace {

// Value-similar quantized floats — the data shape GPU workloads move.
std::vector<uint8_t> make_stream(uint64_t seed, size_t blocks) {
  Rng rng(seed);
  std::vector<uint8_t> data;
  double walk = 20.0;
  for (size_t i = 0; i < blocks * kBlockBytes / 4; ++i) {
    walk += rng.uniform(-1.0, 1.0);
    const float v = static_cast<float>(std::round(walk * 4.0) / 4.0);
    uint32_t bits;
    __builtin_memcpy(&bits, &v, sizeof bits);
    for (int k = 0; k < 4; ++k) data.push_back(static_cast<uint8_t>(bits >> (8 * k)));
  }
  return data;
}

}  // namespace

int main() {
  // Codec by registry name, trained on a sample of the data it will move.
  CodecOptions opts;
  opts.mag_bytes = 32;
  opts.threshold_bytes = 16;
  opts.training_data = make_stream(1, 128);
  opts.e2mc.sample_fraction = 1.0;
  const auto e2mc = CodecRegistry::instance().create("E2MC", opts);

  auto engine = std::make_shared<CodecEngine>();
  std::printf("engine: %u worker(s)\n\n", engine->num_threads());

  // 1. Two analyze jobs in flight at once. submit() returns a CodecFuture
  //    immediately; the streams shard across the same pool, each shard
  //    writing its blocks' analyses into index-aligned slots, and each job's
  //    result is byte-identical to the same job run alone. The ratios are
  //    folded on this thread after the wait.
  const std::vector<Block> streams[] = {to_blocks(make_stream(2, 96)),
                                        to_blocks(make_stream(3, 96))};
  std::vector<BlockAnalysis> analyses[2];
  CodecFuture jobs[2];
  for (int s = 0; s < 2; ++s) {
    analyses[s].resize(streams[s].size());
    jobs[s] = engine->submit(streams[s].size(), [&, s](size_t begin, size_t end, unsigned) {
      const auto views = to_views(std::span<const Block>(streams[s]).subspan(begin, end - begin));
      e2mc->analyze_batch(views, analyses[s].data() + begin);
    });
  }
  for (int s = 0; s < 2; ++s) {
    jobs[s].wait();
    RatioAccumulator ratios(32);
    for (const BlockAnalysis& a : analyses[s]) ratios.add(kBlockBytes * 8, a.bit_size);
    std::printf("stream %c: %zu blocks, raw ratio %.3f, effective %.3f\n%s", 'A' + s,
                analyses[s].size(), ratios.raw_ratio(), ratios.effective_ratio(),
                s == 1 ? "\n" : "");
  }

  // 2. The memory-model pipeline: queue region r's commit, generate region
  //    r+1 while it compresses. span() settles a region's own pending commit,
  //    so ordering — and therefore every byte — matches serial commit().
  ApproxMemory mem;
  mem.set_engine(engine);
  mem.set_codec(CodecRegistry::instance().create_block_codec("TSLC-OPT", opts));
  const size_t kRegionBlocks = 64;
  std::vector<RegionId> regions;
  for (int r = 0; r < 3; ++r)
    regions.push_back(mem.alloc("buf" + std::to_string(r), kRegionBlocks * kBlockBytes,
                                /*safe=*/true, 16));
  for (size_t r = 0; r < regions.size(); ++r) {
    const auto src = make_stream(10 + r, kRegionBlocks);   // "kernel" output
    auto dst = mem.span<uint8_t>(regions[r]);              // settles region r
    std::copy(src.begin(), src.end(), dst.begin());
    mem.commit_async(regions[r]);                          // queue, don't wait
    std::printf("region %zu committed async (pending: %s)\n", r,
                mem.commit_pending(regions[r]) ? "yes" : "no");
  }

  // 3. Barrier: flush settles everything; stats now cover all commits.
  mem.flush();
  const CommitStats& st = mem.stats();
  std::printf("\nafter flush: %llu blocks committed, %llu lossy, avg bursts %.2f\n",
              static_cast<unsigned long long>(st.blocks),
              static_cast<unsigned long long>(st.lossy_blocks), st.avg_bursts());

  // 4. Capture a kernel trace and replay it through the timing simulator
  //    with writeback commits still in flight — run(ApproxMemory&) flushes
  //    them before consuming the trace's burst counts.
  mem.begin_kernel("consume", /*compute_per_access=*/1.0);
  for (const RegionId r : regions) mem.trace_read(r);
  for (const RegionId r : regions) mem.commit_async(r);
  GpuSim sim(GpuSimConfig{});
  const SimStats replay = sim.run(mem);
  std::printf("replay: %llu block accesses in %llu cycles, %llu DRAM read bursts\n",
              static_cast<unsigned long long>(replay.accesses),
              static_cast<unsigned long long>(replay.cycles),
              static_cast<unsigned long long>(replay.dram_read_bursts));
  return 0;
}
