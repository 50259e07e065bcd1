// CodecEngine throughput: block-stream compress/analyze rate vs worker
// count, with a determinism check, plus the pipelined-vs-barrier region
// commit comparison (ApproxMemory::commit_async + flush against commit).
// Not a paper figure — it validates the engine layer the region commits and
// the CodecServer batch their block work through: near-linear multicore
// scaling on multi-core hosts, byte-identical compression decisions at
// every thread count, and commit/compute overlap from the async job queue.
//
// Usage: engine_throughput [benchmark] [scheme] [repeat] [--json[=path]]
//   defaults: SRAD2 E2MC 4 (repeat multiplies the block stream to give the
//   pool enough work per timing sample); bare --json writes
//   BENCH_engine.json — the same Measurement rows the tables print, for the
//   CI perf artifacts.
//
// Also measures the TSLC-OPT region-commit kernel per block vs batch: the
// same ApproxMemory commits once through process_batch a block at a time
// (spans of 1, SIMD pinned off with simd::force_scalar — the per-block,
// non-vectorized work of a scalar decision loop; the "scalar" row) and once
// through process_batch over whole shards (the "batch" row), inline (no
// engine) so the rows isolate the kernel, not thread scaling. The batch
// row's speedup is gated in CI against bench/baselines/BENCH_engine.json.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "compress/block_codec.h"
#include "compress/simd_dispatch.h"

using namespace slc;
using namespace slc::bench;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// --- block-stream sweep ----------------------------------------------------
// One engine job over the stream: each shard hands its slice to `kernel`
// with the shard's index-aligned result slots.
template <typename Out, typename Kernel>
std::vector<Out> sweep(CodecEngine& engine, std::span<const Block> blocks, Kernel kernel) {
  std::vector<Out> out(blocks.size());
  Out* dst = out.data();
  engine
      .submit(blocks.size(),
              [blocks, dst, &kernel](size_t begin, size_t end, unsigned) {
                kernel(to_views(blocks.subspan(begin, end - begin)), dst + begin);
              })
      .wait();
  return out;
}

std::vector<BlockAnalysis> sweep_analyze(CodecEngine& engine, const Compressor& comp,
                                         std::span<const Block> blocks) {
  return sweep<BlockAnalysis>(engine, blocks,
                              [&comp](std::span<const BlockView> views, BlockAnalysis* out) {
                                comp.analyze_batch(views, out);
                              });
}

std::vector<CompressedBlock> sweep_compress(CodecEngine& engine, const Compressor& comp,
                                            std::span<const Block> blocks) {
  return sweep<CompressedBlock>(engine, blocks,
                                [&comp](std::span<const BlockView> views, CompressedBlock* out) {
                                  comp.compress_batch(views, out);
                                });
}

// --- pipelined vs barrier commits ------------------------------------------
// Models the workload harness inner loop: per "kernel", a single-threaded
// data-generation pass over a region followed by that region's DRAM commit.
// The barrier path waits out each commit (commit()); the pipelined path
// queues it (commit_async()) so the engine compresses region r while the
// caller generates region r+1. Both paths execute the identical sequence of
// reads and commits — settle-on-access keeps results byte-identical.

struct CommitRunResult {
  double seconds = 0.0;
  CommitStats stats;
  std::vector<uint8_t> image;  ///< final contents of every region
};

struct CommitLoopConfig {
  size_t n_regions = 4;
  size_t blocks_per_region = 512;
  size_t iterations = 3;
  size_t gen_passes = 1;  ///< data-generation sweeps per commit (calibrated)
};

void generate_pass(std::span<float> s, size_t pass) {
  for (size_t i = 0; i < s.size(); ++i)
    s[i] = s[i] * 0.9999f + 1e-7f * static_cast<float>(pass + 1);
}

CommitRunResult run_commit_loop(bool pipelined, const CommitLoopConfig& cfg,
                                std::shared_ptr<CodecEngine> engine,
                                std::shared_ptr<const BlockCodec> codec,
                                const std::vector<uint8_t>& seed) {
  ApproxMemory mem;
  mem.set_engine(std::move(engine));
  mem.set_codec(std::move(codec));
  std::vector<RegionId> regions;
  const size_t bytes_per = cfg.blocks_per_region * kBlockBytes;
  for (size_t r = 0; r < cfg.n_regions; ++r) {
    regions.push_back(mem.alloc("pipe" + std::to_string(r), bytes_per, /*safe=*/true, 16));
    auto dst = mem.span<uint8_t>(regions.back());
    // Tile the benchmark image across regions (wraps if the image is small).
    for (size_t i = 0; i < bytes_per; ++i) dst[i] = seed[(r * bytes_per + i) % seed.size()];
  }

  const auto t0 = std::chrono::steady_clock::now();
  for (size_t it = 0; it < cfg.iterations; ++it) {
    for (const RegionId r : regions) {
      // span() settles region r's previous commit before the caller-side
      // generation pass reads/writes it; other regions stay in flight.
      auto s = mem.span<float>(r);
      for (size_t p = 0; p < cfg.gen_passes; ++p) generate_pass(s, p);
      if (pipelined) {
        mem.commit_async(r);
      } else {
        mem.commit(r);
      }
    }
  }
  mem.flush();
  CommitRunResult out;
  out.seconds = seconds_since(t0);
  out.stats = mem.stats();
  for (const RegionId r : regions) {
    const auto bytes = mem.span<const uint8_t>(r);
    out.image.insert(out.image.end(), bytes.begin(), bytes.end());
  }
  return out;
}

// --- region-commit kernel: per block vs batch -------------------------------
// Both paths run the identical commit sequence through ApproxMemory with no
// engine (inline, single-threaded), so the only difference is whether the
// policy's kernel sees one block per call or the whole range.

/// Runs the inner policy's kernel one block at a time (spans of 1).
class PerBlockCodec final : public BlockCodec {
 public:
  explicit PerBlockCodec(std::shared_ptr<const BlockCodec> inner) : inner_(std::move(inner)) {}
  void process_batch(std::span<const BlockView> blocks, bool safe, size_t threshold,
                     BlockCodecResult* out) const override {
    for (size_t i = 0; i < blocks.size(); ++i) out[i] = inner_->process(blocks[i], safe, threshold);
  }
  size_t mag_bytes() const override { return inner_->mag_bytes(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<const BlockCodec> inner_;
};

struct RegionCommitResult {
  Measurement m;
  CommitStats stats;
  std::vector<uint8_t> image;  ///< final contents of every region
};

RegionCommitResult run_region_commits(const char* path, std::shared_ptr<const BlockCodec> codec,
                                      const std::vector<uint8_t>& seed, size_t n_regions,
                                      size_t blocks_per_region, size_t reps) {
  ApproxMemory mem;
  mem.set_engine(nullptr);  // inline commits: measure the kernel, not the pool
  mem.set_codec(std::move(codec));
  std::vector<RegionId> regions;
  const size_t bytes_per = blocks_per_region * kBlockBytes;
  for (size_t r = 0; r < n_regions; ++r) {
    regions.push_back(mem.alloc("rc" + std::to_string(r), bytes_per, /*safe=*/true, 16));
    auto dst = mem.span<uint8_t>(regions.back());
    for (size_t i = 0; i < bytes_per; ++i) dst[i] = seed[(r * bytes_per + i) % seed.size()];
  }
  RegionCommitResult out;
  out.m = measure_kernel("TSLC-OPT", "region-commit", path, n_regions * blocks_per_region, reps,
                         [&] {
                           for (const RegionId r : regions) mem.commit(r);
                         });
  out.stats = mem.stats();
  for (const RegionId r : regions) {
    const auto bytes = mem.span<const uint8_t>(r);
    out.image.insert(out.image.end(), bytes.begin(), bytes.end());
  }
  return out;
}

/// Sizes gen_passes so the caller-side generation costs roughly one commit:
/// the regime the workload harness sits in, and where overlap pays.
size_t calibrate_gen_passes(const CommitLoopConfig& cfg, std::shared_ptr<CodecEngine> engine,
                            std::shared_ptr<const BlockCodec> codec,
                            const std::vector<uint8_t>& seed) {
  ApproxMemory mem;
  mem.set_engine(std::move(engine));
  mem.set_codec(std::move(codec));
  const size_t bytes_per = cfg.blocks_per_region * kBlockBytes;
  const RegionId r = mem.alloc("cal", bytes_per, /*safe=*/true, 16);
  auto dst = mem.span<uint8_t>(r);
  for (size_t i = 0; i < bytes_per; ++i) dst[i] = seed[i % seed.size()];

  auto t0 = std::chrono::steady_clock::now();
  mem.commit(r);
  const double commit_s = seconds_since(t0);

  auto s = mem.span<float>(r);
  t0 = std::chrono::steady_clock::now();
  generate_pass(s, 0);
  const double gen_s = std::max(seconds_since(t0), 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(commit_s / gen_s + 0.5), 1, 512);
}

}  // namespace

int main(int argc, char** argv) try {
  const std::string json_path = parse_json_flag(argc, argv, "BENCH_engine.json");
  const std::string benchmark = argc > 1 ? argv[1] : "SRAD2";
  const std::string scheme = argc > 2 ? argv[2] : "E2MC";
  const size_t repeat = argc > 3 ? static_cast<size_t>(std::atoi(argv[3])) : 4;

  print_banner("Engine throughput — block stream vs worker threads",
               "engine layer validation (no paper figure)");

  const auto comp =
      CodecRegistry::instance().create(scheme, codec_options_for(benchmark, kDefaultMagBytes, 16));
  std::vector<Block> blocks = to_blocks(workload_image_cached(benchmark));
  const size_t base_blocks = blocks.size();
  blocks.reserve(base_blocks * repeat);
  for (size_t r = 1; r < repeat; ++r)
    for (size_t i = 0; i < base_blocks; ++i) blocks.push_back(blocks[i]);

  std::printf("stream: %zu blocks (%.1f MB), scheme %s, host concurrency %u\n\n", blocks.size(),
              static_cast<double>(blocks.size() * kBlockBytes) / 1e6, scheme.c_str(),
              std::thread::hardware_concurrency());

  // 1-thread reference: every other configuration must reproduce these
  // decisions bit for bit.
  CodecEngine reference_engine(1);
  const auto reference = sweep_analyze(reference_engine, *comp, blocks);
  const auto reference_payloads = sweep_compress(reference_engine, *comp, blocks);

  // Every row — human table and BENCH_engine.json alike — comes out of the
  // same Measurement structs, so the two cannot drift.
  BenchReport report("engine_throughput");
  constexpr size_t kScalingReps = 3;
  double analyze_base = 0.0, compress_base = 0.0;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    CodecEngine engine(threads);
    const std::string path = "threads=" + std::to_string(threads);

    std::vector<BlockAnalysis> analyses;
    std::vector<CompressedBlock> payloads;
    Measurement ma = measure_kernel(scheme, "analyze", path, blocks.size(), kScalingReps,
                                    [&] { analyses = sweep_analyze(engine, *comp, blocks); });
    Measurement mc = measure_kernel(scheme, "compress", path, blocks.size(), kScalingReps,
                                    [&] { payloads = sweep_compress(engine, *comp, blocks); });

    // Per-block decisions and payload bytes; the ratios and lossy count are
    // folds of these fields, so they match whenever the fields do.
    bool identical = analyses.size() == reference.size() && payloads.size() == blocks.size();
    for (size_t i = 0; identical && i < blocks.size(); ++i) {
      identical = analyses[i].bit_size == reference[i].bit_size &&
                  analyses[i].lossy == reference[i].lossy &&
                  payloads[i].payload == reference_payloads[i].payload;
    }

    if (threads == 1) {
      analyze_base = ma.blocks_per_sec;
      compress_base = mc.blocks_per_sec;
    }
    ma.speedup = analyze_base > 0 ? ma.blocks_per_sec / analyze_base : 0.0;
    mc.speedup = compress_base > 0 ? mc.blocks_per_sec / compress_base : 0.0;
    report.add(std::move(ma));
    report.add(std::move(mc));
    if (!identical) {
      std::printf("FATAL: %u-thread run diverged from the 1-thread reference\n", threads);
      return 1;
    }
  }

  std::printf("%s\n", report.table().to_string().c_str());
  std::printf("Every thread count above reproduced the 1-thread reference byte for byte.\n");
  std::printf("Speedups are relative to 1 engine worker on this host; expect near-linear\n");
  std::printf("scaling up to the physical core count (a 1-core container shows ~1.0x).\n");

  // --- pipelined vs barrier region commits ---------------------------------
  const auto codec = make_codec("TSLC-OPT", benchmark, kDefaultMagBytes, 16);
  const auto engine = std::make_shared<CodecEngine>();
  CommitLoopConfig cfg;
  cfg.gen_passes = calibrate_gen_passes(cfg, engine, codec, workload_image_cached(benchmark));
  std::printf("\nPipelined vs barrier region commits — %zu regions x %zu iterations,\n",
              cfg.n_regions, cfg.iterations);
  std::printf("%zu blocks/region, %zu generation pass(es) per commit (calibrated to ~1 commit),\n",
              cfg.blocks_per_region, cfg.gen_passes);
  std::printf("codec TSLC-OPT, %u engine worker(s)\n\n", engine->num_threads());

  const auto barrier =
      run_commit_loop(/*pipelined=*/false, cfg, engine, codec, workload_image_cached(benchmark));
  const auto pipelined =
      run_commit_loop(/*pipelined=*/true, cfg, engine, codec, workload_image_cached(benchmark));

  const bool commits_identical =
      pipelined.image == barrier.image && pipelined.stats == barrier.stats;

  // Same Measurement rows as the scaling table (and the JSON file).
  BenchReport commit_report("engine_throughput");
  const auto commit_row = [&](const char* path, const CommitRunResult& r, double speedup) {
    Measurement m;
    m.scheme = "TSLC-OPT";
    m.kernel = "commit";
    m.path = path;
    m.blocks = static_cast<size_t>(r.stats.blocks);
    m.reps = 1;
    m.blocks_per_sec = static_cast<double>(r.stats.blocks) / r.seconds;
    m.gbps = m.blocks_per_sec * static_cast<double>(kBlockBytes) / 1e9;
    m.p50_ms = m.p99_ms = r.seconds * 1e3;
    m.speedup = speedup;
    commit_report.add(m);
  };
  commit_row("barrier", barrier, 0.0);
  commit_row("pipelined", pipelined, barrier.seconds / pipelined.seconds);
  std::printf("%s\n", commit_report.table().to_string().c_str());
  std::printf("Commit results were %s across the two paths.\n",
              commits_identical ? "byte-identical" : "DIVERGENT");
  std::printf("The pipelined path overlaps each commit with the next region's single-threaded\n");
  std::printf("data generation; expect >= 1.2x with 4+ hardware threads. A 1-core host\n");
  std::printf("serializes caller and pool, so both paths cost the same there (~1.0x).\n");
  if (!commits_identical) {
    std::printf("FATAL: pipelined commits diverged from the barrier path\n");
    return 1;
  }

  // --- region-commit kernel: per block (scalar) vs whole range (batch) -----
  constexpr size_t kRcRegions = 4, kRcBlocks = 512, kRcReps = 10;
  std::printf("\nRegion-commit kernel — process_batch per block (SIMD off) vs per range\n");
  std::printf("(batched SLC mode decision), TSLC-OPT, threshold 16 B, inline commits,\n");
  std::printf("%zu regions x %zu blocks, %zu repetitions\n\n", kRcRegions, kRcBlocks, kRcReps);

  simd::force_scalar(true);
  const auto scalar_rc =
      run_region_commits("scalar", std::make_shared<PerBlockCodec>(codec),
                         workload_image_cached(benchmark), kRcRegions, kRcBlocks, kRcReps);
  simd::force_scalar(false);
  const auto batch_rc = run_region_commits("batch", codec, workload_image_cached(benchmark),
                                           kRcRegions, kRcBlocks, kRcReps);
  const bool rc_identical =
      scalar_rc.image == batch_rc.image && scalar_rc.stats == batch_rc.stats;

  BenchReport rc_report("engine_throughput");
  Measurement rc_scalar = scalar_rc.m;
  Measurement rc_batch = batch_rc.m;
  rc_batch.speedup =
      rc_scalar.blocks_per_sec > 0 ? rc_batch.blocks_per_sec / rc_scalar.blocks_per_sec : 0.0;
  rc_report.add(rc_scalar);
  rc_report.add(rc_batch);
  std::printf("%s\n", rc_report.table().to_string().c_str());
  std::printf("Commit results were %s across the two kernels.\n",
              rc_identical ? "byte-identical" : "DIVERGENT");
  std::printf("The batch kernel stages the E2MC length probe for a chunk of blocks and\n");
  std::printf("materializes payloads only for lossy blocks; expect >= 1.3x on any host\n");
  std::printf("(single-threaded both ways, so the gain transfers across machines).\n");
  if (!rc_identical) {
    std::printf("FATAL: batched region commits diverged from the scalar kernel\n");
    return 1;
  }

  if (!json_path.empty()) {
    for (const Measurement& m : commit_report.measurements()) report.add(m);
    for (const Measurement& m : rc_report.measurements()) report.add(m);
    if (!report.write_json(json_path)) return 1;
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
