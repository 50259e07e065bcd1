// Software codec throughput: batched kernels vs a per-block scalar loop,
// per scheme, on benchmark data. Not a paper figure — the paper's codecs are
// hardware — but this is the repo's perf trajectory for the batch kernels:
// CI runs it with --json and diffs the result against a committed baseline
// (tools/bench_compare.py), so a kernel regression fails the build.
//
// For every scheme three paths are timed: "scalar" is a per-block loop with
// the scalar sub-kernels pinned (simd::force_scalar) — for BDI, FPC, C-PACK
// and E2MC the reference encoders of tests/codec_reference.h, one indirect
// call per block, and for TSLC-OPT, which has no reference encoder, its one
// batch kernel over spans of 1; "batch" is the scheme's
// analyze_batch/compress_batch kernel, also pinned scalar; and "batch+simd"
// is the same kernel with the runtime-dispatched SIMD variants enabled
// (identical to "batch" on hosts without AVX2 — the JSON "meta" object
// records which variant actually ran). Both batch paths must agree with the
// scalar loop byte for byte, and before decompress is timed every block
// must decode to what its analysis promises: exactly, or for a lossy TSLC
// block with at most its truncated symbols changed. This driver exits
// non-zero if either check fails, and ctest runs it as
// bench_codec_throughput_smoke for those checks.
//
// Usage: codec_throughput [benchmark] [--blocks N] [--json[=path]]
//   defaults: SRAD2, 4096 blocks, JSON off (bare --json writes
//   BENCH_codec.json). The stream tiles the benchmark's memory image.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "codec_reference.h"
#include "compress/simd_dispatch.h"

using namespace slc;
using namespace slc::bench;

namespace {

constexpr double kTargetSeconds = 0.15;  // per measured configuration

bool analyses_equal(const BlockAnalysis& a, const BlockAnalysis& b) {
  return a.bit_size == b.bit_size && a.is_compressed == b.is_compressed && a.lossy == b.lossy &&
         a.lossless_bits == b.lossless_bits && a.truncated_symbols == b.truncated_symbols;
}

bool payloads_equal(const CompressedBlock& a, const CompressedBlock& b) {
  return a.bit_size == b.bit_size && a.is_compressed == b.is_compressed && a.payload == b.payload;
}

double seconds_of(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) try {
  const std::string json_path = parse_json_flag(argc, argv, "BENCH_codec.json");
  std::string benchmark = "SRAD2";
  size_t n_blocks = 4096;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--blocks") == 0) {
      const long long v = i + 1 < argc ? std::atoll(argv[++i]) : 0;
      if (v <= 0) {
        std::fprintf(stderr, "usage: codec_throughput [benchmark] [--blocks N] [--json[=path]]\n");
        return 2;
      }
      n_blocks = static_cast<size_t>(v);
    } else {
      benchmark = argv[i];
    }
  }

  print_banner("Codec throughput — batched kernels vs a scalar per-block loop",
               "batch-kernel perf trajectory (no paper figure)");

  // Tile the benchmark image to the requested stream length so every scheme
  // sees the same realistic data mix regardless of the image's native size.
  const std::vector<Block> image_blocks = to_blocks(workload_image_cached(benchmark));
  std::vector<Block> blocks;
  blocks.reserve(n_blocks);
  for (size_t i = 0; i < n_blocks; ++i) blocks.push_back(image_blocks[i % image_blocks.size()]);
  const std::vector<BlockView> views = to_views(blocks);

  std::printf("stream: %zu blocks (%.1f MB) tiled from %s, MAG %zu B\n\n", blocks.size(),
              static_cast<double>(blocks.size() * kBlockBytes) / 1e6, benchmark.c_str(),
              kDefaultMagBytes);

  // The four schemes with vectorized kernels, plus TSLC-OPT (the full SLC
  // stack: batched decision + payload scatter; its SIMD leverage comes from
  // the E2MC length gathers underneath).
  const std::vector<std::string> schemes = {"BDI", "FPC", "C-PACK", "E2MC", "TSLC-OPT"};
  BenchReport report("codec_throughput");
  bool all_ok = true;

  for (const std::string& scheme : schemes) {
    const auto comp = CodecRegistry::instance().create(
        scheme, codec_options_for(benchmark, kDefaultMagBytes, 16));

    // The reference encoders; null for TSLC-OPT, whose scalar rows run
    // spans of 1 through its kernels.
    const test::RefCodec ref = test::ref_codec(*comp);

    // --- analyze -------------------------------------------------------------
    std::vector<BlockAnalysis> scalar_a(blocks.size());
    std::vector<BlockAnalysis> batch_a(blocks.size());
    std::vector<BlockAnalysis> simd_a(blocks.size());
    const auto scalar_analyze = [&] {
      if (ref.analyze) {
        for (size_t i = 0; i < views.size(); ++i) scalar_a[i] = ref.analyze(*comp, views[i]);
      } else {
        for (size_t i = 0; i < views.size(); ++i) scalar_a[i] = comp->analyze(views[i]);
      }
    };
    const auto batch_analyze = [&] { comp->analyze_batch(views, batch_a.data()); };
    const auto simd_analyze = [&] { comp->analyze_batch(views, simd_a.data()); };

    simd::force_scalar(true);
    size_t reps = reps_for_target(seconds_of(scalar_analyze), kTargetSeconds);
    Measurement sa = measure_kernel(scheme, "analyze", "scalar", blocks.size(), reps, scalar_analyze);
    Measurement ba = measure_kernel(scheme, "analyze", "batch", blocks.size(), reps, batch_analyze);
    simd::force_scalar(false);
    Measurement va =
        measure_kernel(scheme, "analyze", "batch+simd", blocks.size(), reps, simd_analyze);
    ba.speedup = sa.blocks_per_sec > 0 ? ba.blocks_per_sec / sa.blocks_per_sec : 0.0;
    va.speedup = sa.blocks_per_sec > 0 ? va.blocks_per_sec / sa.blocks_per_sec : 0.0;
    report.add(std::move(sa));
    report.add(std::move(ba));
    report.add(std::move(va));

    bool identical = true;
    for (size_t i = 0; i < blocks.size() && identical; ++i)
      identical = analyses_equal(scalar_a[i], batch_a[i]) && analyses_equal(scalar_a[i], simd_a[i]);
    if (!identical) {
      std::printf("FATAL: %s analyze_batch diverged from the scalar loop\n", scheme.c_str());
      all_ok = false;
    }

    // --- compress ------------------------------------------------------------
    std::vector<CompressedBlock> scalar_c(blocks.size());
    std::vector<CompressedBlock> batch_c(blocks.size());
    std::vector<CompressedBlock> simd_c(blocks.size());
    const auto scalar_compress = [&] {
      if (ref.compress) {
        for (size_t i = 0; i < views.size(); ++i) scalar_c[i] = ref.compress(*comp, views[i]);
      } else {
        for (size_t i = 0; i < views.size(); ++i) scalar_c[i] = comp->compress(views[i]);
      }
    };
    const auto batch_compress = [&] { comp->compress_batch(views, batch_c.data()); };
    const auto simd_compress = [&] { comp->compress_batch(views, simd_c.data()); };

    simd::force_scalar(true);
    reps = reps_for_target(seconds_of(scalar_compress), kTargetSeconds);
    Measurement sc =
        measure_kernel(scheme, "compress", "scalar", blocks.size(), reps, scalar_compress);
    Measurement bc =
        measure_kernel(scheme, "compress", "batch", blocks.size(), reps, batch_compress);
    simd::force_scalar(false);
    Measurement vc =
        measure_kernel(scheme, "compress", "batch+simd", blocks.size(), reps, simd_compress);
    bc.speedup = sc.blocks_per_sec > 0 ? bc.blocks_per_sec / sc.blocks_per_sec : 0.0;
    vc.speedup = sc.blocks_per_sec > 0 ? vc.blocks_per_sec / sc.blocks_per_sec : 0.0;
    report.add(std::move(sc));
    report.add(std::move(bc));
    report.add(std::move(vc));

    identical = true;
    for (size_t i = 0; i < blocks.size() && identical; ++i)
      identical = payloads_equal(scalar_c[i], batch_c[i]) && payloads_equal(scalar_c[i], simd_c[i]);
    if (!identical) {
      std::printf("FATAL: %s compress_batch diverged from the scalar loop\n", scheme.c_str());
      all_ok = false;
    }

    // --- decompress ----------------------------------------------------------
    // No batch decompress kernel exists (decompression is per-request on the
    // read path), but its throughput stays in the trajectory so a regression
    // is visible in BENCH_codec.json. Each block must first decode to what
    // its analysis promises: a block not reported lossy comes back exactly,
    // a lossy one with at most its truncated symbols changed.
    bool decoded = true;
    for (size_t i = 0; i < blocks.size() && decoded; ++i) {
      const Block got = comp->decompress(scalar_c[i], blocks[i].size());
      size_t changed = 0;
      for (size_t s = 0; s < views[i].num_symbols(); ++s)
        changed += got.symbol(s) != views[i].symbol(s) ? 1 : 0;
      decoded = changed <= (batch_a[i].lossy ? batch_a[i].truncated_symbols : 0);
    }
    if (!decoded) {
      std::printf("FATAL: %s decompress does not return the blocks it compressed\n",
                  scheme.c_str());
      all_ok = false;
    }
    const auto decompress_loop = [&] {
      for (size_t i = 0; i < blocks.size(); ++i)
        comp->decompress(scalar_c[i], blocks[i].size());
    };
    reps = reps_for_target(seconds_of(decompress_loop), kTargetSeconds);
    report.add(
        measure_kernel(scheme, "decompress", "scalar", blocks.size(), reps, decompress_loop));
  }

  std::printf("%s\n", report.table().to_string().c_str());
  std::printf("Speedups are vs the per-block scalar loop of the same scheme, single-\n");
  std::printf("threaded on this host: the reference encoders for the lossless schemes,\n");
  std::printf("spans of 1 for TSLC-OPT. \"scalar\" and \"batch\" pin the scalar sub-kernels;\n");
  std::printf("\"batch+simd\" lets runtime dispatch pick (this run: %s).\n",
              simd::active_level_name());
  std::printf("Both batch paths are verified byte-identical to the scalar loop, and\n");
  std::printf("every decoded block against its input, before the table is printed.\n");

  if (!json_path.empty()) {
    if (!report.write_json(json_path)) return 1;
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return all_ok ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
