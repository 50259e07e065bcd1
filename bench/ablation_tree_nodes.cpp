// Ablation (Sec. III-F): unneeded approximation with and without the
// TSLC-OPT extra tree nodes.
//
// The paper motivates the 8+4 extra nodes at levels 3 and 4 by the coarse
// power-of-two sums over-truncating at the middle levels. This bench
// measures, per benchmark: how many symbols the selector truncates, how many
// bits beyond the required extra_bits it removes (the "unneeded
// approximation"), and at which window size selections land.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/slc_codec.h"
#include "core/tree_selector.h"

using namespace slc;
using namespace slc::bench;

int main() {
  print_banner("Ablation — TSLC-OPT extra tree nodes",
               "Sec. III-F (unneeded approximation at middle levels)");

  const size_t mag = 32;
  const size_t threshold = 16;
  const auto names = workload_names();

  TextTable t({"Bench", "lossy%", "sym/blk(base)", "sym/blk(OPT)", "waste-bits(base)",
               "waste-bits(OPT)"});

  std::vector<double> waste_base_all, waste_opt_all;
  for (const std::string& name : names) {
    const auto codec = std::dynamic_pointer_cast<const SlcCodec>(
        CodecRegistry::instance().create("TSLC-PRED",
                                         codec_options_for(name, mag, threshold)));
    const E2mcCompressor& e2mc = codec->lossless();
    const auto blocks = to_blocks(workload_image_cached(name));

    uint16_t lens[kSymbolsPerBlock], sums8[kSymbolsPerBlock / 8];  // one block's probe
    uint64_t lossy = 0, total = 0;
    uint64_t sym_base = 0, sym_opt = 0, waste_base = 0, waste_opt = 0, selections = 0;
    for (size_t i = 0; i < blocks.size(); ++i) {
      const Block& b = blocks[i];
      ++total;
      e2mc.code_lengths(b.view(), lens, sums8);
      const size_t comp = E2mcCompressor::layout(lens, SlcHeader::kBits).total_bits;
      if (comp >= kBlockBytes * 8) continue;
      const size_t budget = std::max(comp / (mag * 8) * (mag * 8), mag * 8);
      const size_t extra = comp > budget ? comp - budget : 0;
      if (extra == 0 || extra > threshold * 8) continue;
      const auto c_base = CodeLengthTree(lens, /*extra_nodes=*/false).select(extra);
      const auto c_opt = CodeLengthTree(lens, /*extra_nodes=*/true).select(extra);
      if (!c_base || !c_opt) continue;
      ++lossy;
      ++selections;
      sym_base += c_base->count;
      sym_opt += c_opt->count;
      waste_base += overshoot_bits(*c_base, extra);
      waste_opt += overshoot_bits(*c_opt, extra);
    }

    auto avg = [&](uint64_t v) {
      return selections ? static_cast<double>(v) / static_cast<double>(selections) : 0.0;
    };
    t.add_row({name, TextTable::fmt(100.0 * static_cast<double>(lossy) /
                                    static_cast<double>(total), 1),
               TextTable::fmt(avg(sym_base), 2), TextTable::fmt(avg(sym_opt), 2),
               TextTable::fmt(avg(waste_base), 1), TextTable::fmt(avg(waste_opt), 1)});
    if (selections) {
      waste_base_all.push_back(std::max(avg(waste_base), 1e-3));
      waste_opt_all.push_back(std::max(avg(waste_opt), 1e-3));
    }
  }

  std::printf("%s\n", t.to_string().c_str());
  std::printf("GM waste bits/selection: base %.1f -> OPT %.1f (extra nodes cut unneeded\n"
              "approximation, Sec. III-F)\n",
              geometric_mean(waste_base_all), geometric_mean(waste_opt_all));
  return 0;
}
