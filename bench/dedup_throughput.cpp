// Dedup decision throughput: the fingerprint-memo payoff on repetitive
// streams. Three synthetic block streams (0% / 50% / 95% duplicate blocks,
// value-similar fresh content) run through the TSLC-OPT decision path
// (Compressor::analyze_batch — the Fig. 4 mode decision, size-only) twice:
// once uncached and once with a FingerprintCache attached. The cache is
// cleared before every timed pass, so hits come only from repetition inside
// the stream — exactly the duplicate fraction each row advertises — and the
// cached/uncached speedup isolates "memo hit vs full E2MC length probe".
//
// Usage: dedup_throughput [benchmark] [blocks] [--json[=path]]
//   defaults: SRAD2 16384; bare --json writes BENCH_dedup.json. The cached
//   95%-dup row's speedup is gated in CI against
//   bench/baselines/BENCH_dedup.json: at 95% duplicates the memo must beat
//   the uncached decision (a 1.0x floor). The uncached decision settles
//   most blocks from their way sums and builds the code-length tree only
//   for a lossy candidate, so a hit saves less than it did: over 200 runs
//   on a 4-vCPU Xeon VM (gcc 12.2, Release) the 95% row read 1.02-3.56x
//   (median 1.49x, 90% within 1.38-1.59x), and 1 of 15 earlier runs read
//   0.95x, a run whose whole cached pass ran a third slower than usual, so
//   the gate fails now and then. The other rows' baseline speedups are 0 =
//   report-only: a memo miss (fingerprint, set probe, insert) costs more
//   than the uncached decision it stands in for. The codec's memo governor
//   switches the memo off after one 4096-block window below a hit rate of
//   1/2, so the dup=0% pass pays for the memo on a quarter of its blocks:
//   the same 200 runs read 0.46-1.03x (median 0.73x) at dup=0% and
//   0.55-1.08x (median 0.79x) at dup=50%; neither is steady enough to gate.
//   The clear() before every pass restarts the governor.
//   Every cached pass is differentially checked against the uncached
//   decisions before anything is reported.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/fingerprint_cache.h"
#include "workloads/approx_memory.h"

using namespace slc;
using namespace slc::bench;

namespace {

/// Stream with `dup_fraction` of its blocks repeating an earlier block
/// verbatim; fresh blocks are quantized value-similar floats (the shape the
/// decision path actually sees from the workloads).
std::vector<Block> dup_stream(size_t blocks, double dup_fraction, uint64_t seed) {
  Rng rng(seed);
  std::vector<Block> out;
  out.reserve(blocks);
  double walk = 10.0;
  for (size_t i = 0; i < blocks; ++i) {
    if (!out.empty() && rng.chance(dup_fraction)) {
      out.push_back(out[rng.next_below(out.size())]);
      continue;
    }
    Block b;
    for (size_t w = 0; w < kBlockBytes / 4; ++w) {
      walk += rng.uniform(-1.0, 1.0);
      const float v = static_cast<float>(std::round(walk * 4.0) / 4.0);
      uint32_t bits;
      __builtin_memcpy(&bits, &v, 4);
      b.set_word32(w, bits);
    }
    out.push_back(b);
  }
  return out;
}

std::vector<BlockView> views_of(const std::vector<Block>& blocks) {
  std::vector<BlockView> v;
  v.reserve(blocks.size());
  for (const Block& b : blocks) v.push_back(b.view());
  return v;
}

bool analyses_match(const std::vector<BlockAnalysis>& a, const std::vector<BlockAnalysis>& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].bit_size != b[i].bit_size || a[i].lossy != b[i].lossy ||
        a[i].lossless_bits != b[i].lossless_bits ||
        a[i].truncated_symbols != b[i].truncated_symbols)
      return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) try {
  const std::string json_path = parse_json_flag(argc, argv, "BENCH_dedup.json");
  const std::string benchmark = argc > 1 ? argv[1] : "SRAD2";
  const size_t n_blocks = argc > 2 ? static_cast<size_t>(std::atoi(argv[2])) : 16384;

  print_banner("Dedup decision throughput — fingerprint memo vs full probe",
               "decision-path memoization (no paper figure)");
  if (!FingerprintCache::runtime_enabled())
    std::printf("note: SLC_FINGERPRINT_CACHE disables the memo; cached rows degenerate to ~1x\n");

  CodecOptions opts = codec_options_for(benchmark, kDefaultMagBytes, 16);
  const auto uncached = CodecRegistry::instance().create("TSLC-OPT", opts);
  auto cache = std::make_shared<FingerprintCache>();
  opts.fingerprint_cache = cache;
  const auto cached = CodecRegistry::instance().create("TSLC-OPT", opts);

  std::printf("stream: %zu blocks (%.1f MB) per duplicate fraction, scheme TSLC-OPT,\n", n_blocks,
              static_cast<double>(n_blocks * kBlockBytes) / 1e6);
  std::printf("model trained on %s; cache cleared before every timed pass\n\n", benchmark.c_str());

  BenchReport report("dedup_throughput");
  constexpr size_t kReps = 20;
  bool all_identical = true;
  for (const int dup_pct : {0, 50, 95}) {
    const auto blocks =
        dup_stream(n_blocks, static_cast<double>(dup_pct) / 100.0, 1000 + static_cast<uint64_t>(dup_pct));
    const auto views = views_of(blocks);
    const std::string dup_tag = "dup=" + std::to_string(dup_pct) + "%";

    std::vector<BlockAnalysis> reference(views.size()), out(views.size());
    uncached->analyze_batch(views, reference.data());

    Measurement mu = measure_kernel("TSLC-OPT", "decide", dup_tag + "/uncached", n_blocks, kReps,
                                    [&] { uncached->analyze_batch(views, out.data()); });
    all_identical = all_identical && analyses_match(out, reference);
    Measurement mc = measure_kernel("TSLC-OPT", "decide", dup_tag + "/cached", n_blocks, kReps, [&] {
      cache->clear();
      cached->analyze_batch(views, out.data());
    });
    all_identical = all_identical && analyses_match(out, reference);

    mu.speedup = 0.0;  // the reference row
    mc.speedup = mu.blocks_per_sec > 0 ? mc.blocks_per_sec / mu.blocks_per_sec : 0.0;

    // Hit rate over one cold pass, tallied the same way the commit path
    // folds CacheCounters into CommitStats.
    cache->clear();
    cached->analyze_batch(views, out.data());
    CacheCounters tally;
    for (const BlockAnalysis& a : out)
      tally.record(a.cache);
    report.set_meta("hit_rate_" + dup_tag, std::to_string(tally.hit_rate()));
    report.set_meta("bypass_rate_" + dup_tag, std::to_string(tally.bypass_rate()));

    report.add(std::move(mu));
    report.add(std::move(mc));
    std::printf("%-8s  hit rate %.3f  bypassed %.3f  cached/uncached %.2fx\n", dup_tag.c_str(),
                tally.hit_rate(), tally.bypass_rate(), report.measurements().back().speedup);
  }

  std::printf("\n%s\n", report.table().to_string().c_str());
  std::printf("Cached decisions were %s with the uncached oracle on every stream.\n",
              all_identical ? "identical" : "DIVERGENT");
  std::printf("Expect ~0.5-1.1x at dup=0%% (a miss pays a fingerprint, a set probe and an insert\n");
  std::printf("on top of the decision, until the governor bypasses the memo after one window),\n");
  std::printf("~0.5-1.1x at dup=50%% and ~1.4-1.6x at dup=95%% — a hit skips the E2MC length\n");
  std::printf("probe and the Fig. 4 decision entirely.\n");
  if (!all_identical) {
    std::printf("FATAL: cached decisions diverged from the uncached oracle\n");
    return 1;
  }

  // End-to-end view: one ApproxMemory commit of the 95%-dup stream, hit rate
  // surfaced through CommitStats like the server tables report it.
  {
    const auto blocks = dup_stream(n_blocks, 0.95, 1095);
    ApproxMemory mem;
    mem.set_engine(nullptr);
    CodecOptions copts = codec_options_for(benchmark, kDefaultMagBytes, 16);
    copts.fingerprint_cache = std::make_shared<FingerprintCache>();
    mem.set_codec(CodecRegistry::instance().create_block_codec("TSLC-OPT", copts));
    const RegionId r = mem.alloc("dedup", n_blocks * kBlockBytes, /*safe=*/true, 16);
    auto dst = mem.span<uint8_t>(r);
    for (size_t i = 0; i < blocks.size(); ++i) {
      const auto src = blocks[i].bytes();
      std::copy(src.begin(), src.end(), dst.begin() + static_cast<ptrdiff_t>(i * kBlockBytes));
    }
    mem.commit(r);
    const CommitStats& cs = mem.stats();
    std::printf("\ncommit path (dup=95%%): %llu blocks, CommitStats hit rate %.3f\n",
                static_cast<unsigned long long>(cs.blocks), cs.cache.hit_rate());
  }

  if (!json_path.empty()) {
    if (!report.write_json(json_path)) return 1;
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
