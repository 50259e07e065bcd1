// Fig. 1: raw vs effective compression ratio of every lossless scheme in the
// CodecRegistry (MAG 32 B, 128 B blocks) on the nine benchmarks plus
// geometric mean. Registering a new scheme adds a column here with no code
// change; each scheme's batch kernel analyzes the image directly.
//
// Paper result (4-scheme subset): GM effective ratio is 22% (BDI), 19% (FPC),
// 18% (C-PACK) and 23% (E2MC) below the GM raw ratio — the motivation for SLC.
#include <cstdio>
#include <memory>

#include "bench_util.h"

using namespace slc;
using namespace slc::bench;

int main() {
  print_banner("Fig. 1 — raw vs effective compression ratio",
               "Figure 1 (Sec. I) and the Sec. II-A motivation");

  const auto names = workload_names();
  const auto schemes = CodecRegistry::instance().lossless_names();

  struct SchemeRow {
    std::string scheme;
    std::vector<double> raw, eff;
  };
  std::vector<SchemeRow> rows;
  std::vector<std::string> header = {"Bench"};
  for (const std::string& s : schemes) {
    rows.push_back({s, {}, {}});
    header.push_back(s + "-Raw");
    header.push_back(s + "-Eff");
  }
  TextTable table(header);

  for (const std::string& name : names) {
    // The image as blocks once; every scheme's batch kernel analyzes it.
    const std::vector<Block> blocks = to_blocks(workload_image_cached(name));
    const std::vector<BlockView> views = to_views(blocks);
    std::vector<BlockAnalysis> analyses(views.size());
    std::vector<std::string> cells = {name};
    for (size_t s = 0; s < schemes.size(); ++s) {
      const auto comp =
          CodecRegistry::instance().create(schemes[s], codec_options_for(name, kDefaultMagBytes, 16));
      comp->analyze_batch(views, analyses.data());
      RatioAccumulator ratios(kDefaultMagBytes);
      for (const BlockAnalysis& a : analyses) ratios.add(kBlockBytes * 8, a.bit_size);
      rows[s].raw.push_back(ratios.raw_ratio());
      rows[s].eff.push_back(ratios.effective_ratio());
      cells.push_back(TextTable::fmt(ratios.raw_ratio(), 2));
      cells.push_back(TextTable::fmt(ratios.effective_ratio(), 2));
    }
    table.add_row(cells);
  }

  // Geometric means (the paper's GM bars).
  std::vector<std::string> gm = {"GM"};
  std::printf("Compression ratios (raw = exact bits, eff = rounded to 32 B bursts):\n\n");
  for (auto& r : rows) {
    gm.push_back(TextTable::fmt(geometric_mean(r.raw), 2));
    gm.push_back(TextTable::fmt(geometric_mean(r.eff), 2));
  }
  table.add_row(gm);
  std::printf("%s\n", table.to_string().c_str());

  std::printf("Effective-vs-raw GM loss per scheme (paper: BDI 22%%, FPC 19%%, "
              "C-PACK 18%%, E2MC 23%%):\n");
  for (auto& r : rows) {
    const double raw = geometric_mean(r.raw);
    const double eff = geometric_mean(r.eff);
    std::printf("  %-8s raw GM %.2f  eff GM %.2f  loss %.1f%%\n", r.scheme.c_str(), raw, eff,
                (1.0 - eff / raw) * 100.0);
  }
  return 0;
}
