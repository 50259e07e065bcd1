// Reference codec kernels: the per-symbol loops that E2mcCompressor::layout
// and TreeSlcSelector::select replaced. ref_layout() adds every symbol
// outside the skip window to way i / per_way; ref_select() re-sums each
// window it tries, in the Fig. 5 first-fit order (sizes 1, 2, 4, [6], 8,
// [12], 16; symbol order within a size). ref_decide() is the Fig. 4 mode
// decision of one block written out over those two. All are slow but
// obviously faithful. The differential tests in test_codec_differential.cpp
// drive them beside the production kernels, which sum each way once, read
// windows off one prefix sum and decide a span of blocks at a time.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "compress/e2mc.h"
#include "core/slc_codec.h"
#include "core/slc_header.h"
#include "core/tree_selector.h"

namespace slc::test {

/// E2MC way layout with symbols [skip_start, skip_start + skip_count)
/// removed. `code_lens.size()` must be a positive multiple of `num_ways`.
inline WayLayout ref_layout(std::span<const uint16_t> code_lens, unsigned num_ways,
                            size_t header_bits, size_t skip_start = 0, size_t skip_count = 0) {
  WayLayout lo;
  lo.header_bits = header_bits;
  const size_t n = code_lens.size();
  const size_t per_way = n / num_ways;
  for (size_t i = 0; i < n; ++i) {
    if (i >= skip_start && i < skip_start + skip_count) continue;
    lo.way_bits[i / per_way] += code_lens[i];
  }
  size_t total = (header_bits + 7) / 8;  // header byte-padded
  for (unsigned w = 0; w < num_ways; ++w) {
    lo.way_bytes[w] = (lo.way_bits[w] + 7) / 8;
    total += lo.way_bytes[w];
  }
  lo.total_bits = total * 8;
  return lo;
}

/// TSLC window selection: the first window, smallest size first, whose
/// code-length sum covers `extra_bits`; nullopt when none does or when
/// `extra_bits` is 0. The 6- and 12-symbol classes need `extra_nodes`.
inline std::optional<TreeCandidate> ref_select(std::span<const uint16_t> code_lens,
                                               size_t extra_bits, bool extra_nodes) {
  struct WindowClass {
    size_t size;
    size_t stride;
    bool opt_only;
  };
  constexpr std::array<WindowClass, 7> kClasses = {{
      {1, 1, false},
      {2, 2, false},
      {4, 4, false},
      {6, 8, true},
      {8, 8, false},
      {12, 16, true},
      {16, 16, false},
  }};
  if (extra_bits == 0) return std::nullopt;
  const size_t n = code_lens.size();
  for (const WindowClass& wc : kClasses) {
    if (wc.opt_only && !extra_nodes) continue;
    for (size_t start = 0; start + wc.size <= n; start += wc.stride) {
      size_t sum = 0;
      for (size_t i = start; i < start + wc.size; ++i) sum += code_lens[i];
      if (sum >= extra_bits) return TreeCandidate{start, wc.size, sum};
    }
  }
  return std::nullopt;
}

/// The Fig. 4 mode decision for one block, per block and scalar: the
/// block's code lengths (E2mcCompressor::code_lengths), the lossless size
/// (ref_layout), the bit budget (closest multiple of MAG at or below it,
/// floored at one MAG) and overshoot; within the threshold the first window
/// covering the overshoot (ref_select), escalated to a larger window while
/// way padding pushes the cut block over budget; otherwise lossless, or raw
/// when that needs as many bursts as the raw block.
inline SlcCodec::Decision ref_decide(const E2mcCompressor& e2mc, const SlcConfig& cfg,
                                     BlockView block) {
  const unsigned ways = e2mc.config().num_ways;
  const std::vector<uint16_t> lens = e2mc.code_lengths(block);
  const size_t header = SlcHeader::bits(block.size(), ways, lens.size());
  const size_t raw_bits = block.size() * 8;
  const size_t mag_bits = cfg.mag_bytes * 8;
  const size_t max_bursts = block.size() / cfg.mag_bytes;
  const auto bursts = [&](size_t bits) {
    return std::min(std::max<size_t>((bits + mag_bits - 1) / mag_bits, 1), max_bursts);
  };

  SlcCodec::Decision d;
  const size_t comp_bits = ref_layout(lens, ways, header).total_bits;
  d.info.lossless_bits = comp_bits;
  const auto raw = [&] {
    d.info.stored_uncompressed = true;
    d.info.final_bits = raw_bits;
    d.info.bursts = max_bursts;
    return d;
  };
  if (comp_bits >= raw_bits) return raw();

  const size_t budget = std::max(comp_bits / mag_bits * mag_bits, mag_bits);
  const size_t extra = comp_bits > budget ? comp_bits - budget : 0;
  d.info.extra_bits = extra;
  if (extra != 0 && extra <= cfg.threshold_bytes * 8) {
    size_t need = extra;
    while (const auto cand = ref_select(lens, need, cfg.variant == SlcVariant::kOpt)) {
      const size_t cut = ref_layout(lens, ways, header, cand->start, cand->count).total_bits;
      if (cut <= budget) {
        d.info.lossy = true;
        d.info.truncated_symbols = cand->count;
        d.info.truncated_bits = cand->sum_bits;
        d.info.final_bits = cut;
        d.info.bursts = bursts(cut);
        d.skip_start = cand->start;
        d.skip_count = cand->count;
        return d;
      }
      need = cand->sum_bits + (cut - budget);
    }
  }
  if (bursts(comp_bits) >= max_bursts) return raw();
  d.info.final_bits = comp_bits;
  d.info.bursts = bursts(comp_bits);
  return d;
}

}  // namespace slc::test
