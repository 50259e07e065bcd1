// block_inspector: per-benchmark compression forensics from the command
// line — where do compressed sizes land relative to burst boundaries, what
// does SLC do about it, and which schemes would have compressed the data.
//
// Usage: block_inspector [benchmark] [mag_bytes] [threshold_bytes]
//   defaults: NN 32 16
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/stats.h"
#include "compress/codec_registry.h"
#include "core/slc_codec.h"
#include "workloads/workload.h"

using namespace slc;

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "NN";
  const size_t mag = argc > 2 ? static_cast<size_t>(std::atoi(argv[2])) : 32;
  const size_t threshold = argc > 3 ? static_cast<size_t>(std::atoi(argv[3])) : 16;

  std::printf("Inspecting %s (MAG %zu B, threshold %zu B)\n", name.c_str(), mag, threshold);
  const auto image = workload_memory_image(name);
  const auto blocks = to_blocks(image);
  std::printf("memory image: %zu blocks (%.1f MB)\n\n", blocks.size(),
              static_cast<double>(image.size()) / 1e6);

  CodecOptions opts;
  opts.mag_bytes = mag;
  opts.threshold_bytes = threshold;
  opts.training_data = image;
  opts.trained_e2mc = std::dynamic_pointer_cast<const E2mcCompressor>(
      CodecRegistry::instance().create("E2MC", opts));
  const auto codec = std::dynamic_pointer_cast<const SlcCodec>(
      CodecRegistry::instance().create("TSLC-OPT", opts));
  const std::vector<BlockView> views = to_views(blocks);

  // Scheme comparison (the Fig. 1 view of this one benchmark): every
  // lossless scheme in the registry, its batch kernel over the whole image.
  {
    std::printf("%-8s %10s %10s\n", "scheme", "raw", "effective");
    std::vector<BlockAnalysis> analyses(views.size());
    for (const std::string& name : CodecRegistry::instance().lossless_names()) {
      CodecRegistry::instance().create(name, opts)->analyze_batch(views, analyses.data());
      RatioAccumulator ratios(mag);
      for (const BlockAnalysis& a : analyses) ratios.add(kBlockBytes * 8, a.bit_size);
      std::printf("%-8s %10.3f %10.3f\n", name.c_str(), ratios.raw_ratio(),
                  ratios.effective_ratio());
    }
  }

  // Size histogram at 8 B resolution plus SLC outcomes (the Fig. 2 view),
  // from one batched Fig. 4 decision over the whole image.
  std::vector<SlcCodec::Decision> decisions(views.size());
  std::vector<SlcCodec::CacheOutcome> outcomes(views.size());
  codec->decide_batch(views, threshold, decisions.data(), outcomes.data());
  Histogram size_hist;
  uint64_t lossy = 0, raw = 0, bursts_e2mc = 0, bursts_slc = 0, truncated = 0;
  for (size_t i = 0; i < blocks.size(); ++i) {
    const SlcEncodeInfo& info = decisions[i].info;
    size_hist.add(static_cast<int64_t>((info.lossless_bits / 8) / 8 * 8));
    lossy += info.lossy ? 1 : 0;
    raw += info.stored_uncompressed ? 1 : 0;
    bursts_e2mc += bursts_for_bits(info.lossless_bits, mag);
    bursts_slc += info.bursts;
    truncated += info.truncated_symbols;
  }

  std::printf("\nlossless-size histogram (8 B buckets, %% of blocks):\n");
  for (const auto& [bucket, count] : size_hist.buckets()) {
    const double pct = 100.0 * static_cast<double>(count) / static_cast<double>(blocks.size());
    if (pct < 0.05) continue;
    std::printf("  %4lld B %6.1f%% ", static_cast<long long>(bucket), pct);
    for (int i = 0; i < static_cast<int>(pct); ++i) std::printf("#");
    std::printf("\n");
  }

  std::printf("\nSLC outcome: %.1f%% lossy, %.1f%% stored raw\n",
              100.0 * static_cast<double>(lossy) / static_cast<double>(blocks.size()),
              100.0 * static_cast<double>(raw) / static_cast<double>(blocks.size()));
  std::printf("bursts: E2MC %.3f/block -> SLC %.3f/block (%.1f%% traffic saved)\n",
              static_cast<double>(bursts_e2mc) / static_cast<double>(blocks.size()),
              static_cast<double>(bursts_slc) / static_cast<double>(blocks.size()),
              100.0 * (1.0 - static_cast<double>(bursts_slc) /
                                 static_cast<double>(bursts_e2mc)));
  std::printf("approximated symbols per lossy block: %.2f\n",
              lossy ? static_cast<double>(truncated) / static_cast<double>(lossy) : 0.0);
  return 0;
}
