#include "core/slc_generic.h"

#include <algorithm>
#include <numeric>

namespace slc {

namespace {
// Generic header: mode (1) + start word (5 for 32 words) + len (4).
constexpr size_t kGenericHeaderBits = 1 + 5 + 4;
}  // namespace

SlcFpcCodec::SlcFpcCodec(GenericSlcConfig cfg)
    : cfg_(cfg), selector_(/*extra_nodes=*/true) {
  check_mag_bytes(cfg_.mag_bytes, "SlcFpcCodec");
}

std::vector<uint16_t> SlcFpcCodec::word_costs(BlockView block) const {
  const size_t n_words = block.size() / 4;
  std::vector<uint16_t> costs(n_words, 0);
  size_t i = 0;
  while (i < n_words) {
    const uint32_t w = block.word32(i);
    if (w == 0) {
      size_t run = 1;
      while (i + run < n_words && run < 8 && block.word32(i + run) == 0) ++run;
      // A zero run costs prefix+3 bits total; spread it over its words so
      // window sums stay meaningful (integer split, remainder on the first).
      const uint16_t total = 3 + 3;
      const uint16_t share = static_cast<uint16_t>(total / run);
      costs[i] = static_cast<uint16_t>(total - share * (run - 1));
      for (size_t k = 1; k < run; ++k) costs[i + k] = share;
      i += run;
      continue;
    }
    const FpcPattern p = FpcCompressor::classify(w);
    costs[i] = static_cast<uint16_t>(3 + FpcCompressor::payload_bits(p));
    ++i;
  }
  return costs;
}

std::optional<SlcFpcCodec::Selection> SlcFpcCodec::select(std::span<const uint16_t> costs,
                                                          size_t comp_bits,
                                                          size_t budget_bits) const {
  if (comp_bits <= budget_bits) return std::nullopt;
  const size_t extra = comp_bits - budget_bits;
  const auto cand = selector_.select(costs, extra);
  if (!cand) return std::nullopt;
  return Selection{cand->start, cand->count};
}

GenericSlcInfo SlcFpcCodec::analyze(BlockView block) const {
  GenericSlcInfo info;
  const size_t raw_bits = block.size() * 8;
  const size_t mag_bits = cfg_.mag_bytes * 8;
  const size_t max_bursts = block.size() / cfg_.mag_bytes;

  const auto costs = word_costs(block);
  const size_t comp_bits =
      kGenericHeaderBits +
      static_cast<size_t>(std::accumulate(costs.begin(), costs.end(), size_t{0}));
  info.lossless_bits = comp_bits;

  if (comp_bits >= raw_bits) {
    info.stored_uncompressed = true;
    info.final_bits = raw_bits;
    info.bursts = max_bursts;
    return info;
  }
  const size_t budget = std::max(comp_bits / mag_bits * mag_bits, mag_bits);
  const size_t extra = comp_bits > budget ? comp_bits - budget : 0;
  if (extra != 0 && extra <= cfg_.threshold_bytes * 8) {
    if (const auto sel = select(costs, comp_bits, budget)) {
      size_t removed = 0;
      for (size_t w = sel->start; w < sel->start + sel->count; ++w) removed += costs[w];
      info.lossy = true;
      info.truncated_words = sel->count;
      info.final_bits = comp_bits - removed;
      info.bursts = bursts_for_bits(info.final_bits, cfg_.mag_bytes, block.size());
      return info;
    }
  }
  if (bursts_for_bits(comp_bits, cfg_.mag_bytes, block.size()) >= max_bursts) {
    info.stored_uncompressed = true;
    info.final_bits = raw_bits;
    info.bursts = max_bursts;
    return info;
  }
  info.final_bits = comp_bits;
  info.bursts = bursts_for_bits(comp_bits, cfg_.mag_bytes, block.size());
  return info;
}

Block SlcFpcCodec::roundtrip(BlockView block) const {
  const size_t raw_bits = block.size() * 8;
  const size_t mag_bits = cfg_.mag_bytes * 8;
  const auto costs = word_costs(block);
  const size_t comp_bits =
      kGenericHeaderBits +
      static_cast<size_t>(std::accumulate(costs.begin(), costs.end(), size_t{0}));
  if (comp_bits >= raw_bits) return Block(block.bytes());
  const size_t budget = std::max(comp_bits / mag_bits * mag_bits, mag_bits);
  const size_t extra = comp_bits > budget ? comp_bits - budget : 0;
  if (extra == 0 || extra > cfg_.threshold_bytes * 8) return Block(block.bytes());
  const auto sel = select(costs, comp_bits, budget);
  if (!sel) return Block(block.bytes());

  Block out(block.bytes());
  // Word-granular prediction: the nearest intact word (before the window,
  // else after) predicts every truncated word; zero-fill otherwise.
  uint32_t fill = 0;
  if (cfg_.predict) {
    if (sel->start > 0) {
      fill = block.word32(sel->start - 1);
    } else if (sel->start + sel->count < block.size() / 4) {
      fill = block.word32(sel->start + sel->count);
    }
  }
  for (size_t w = sel->start; w < sel->start + sel->count; ++w) out.set_word32(w, fill);
  return out;
}

}  // namespace slc
