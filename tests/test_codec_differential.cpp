// Differential tests: E2mcCompressor::layout and TreeSlcSelector::select
// against the per-symbol reference loops in codec_reference.h, over seeded
// random code lengths of 1-32 bits. Every WayLayout and TreeCandidate must
// match field by field.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "codec_reference.h"
#include "common/rng.h"

namespace slc {
namespace {

std::vector<uint16_t> random_lens(Rng& rng, size_t n) {
  std::vector<uint16_t> lens(n);
  for (uint16_t& l : lens) l = static_cast<uint16_t>(1 + rng.next_below(32));
  return lens;
}

void expect_layout_eq(const WayLayout& ref, const WayLayout& got, const std::string& what) {
  EXPECT_EQ(ref.way_bits, got.way_bits) << what;
  EXPECT_EQ(ref.way_bytes, got.way_bytes) << what;
  EXPECT_EQ(ref.header_bits, got.header_bits) << what;
  EXPECT_EQ(ref.total_bits, got.total_bits) << what;
}

void expect_candidate_eq(const std::optional<TreeCandidate>& ref,
                         const std::optional<TreeCandidate>& got, const std::string& what) {
  ASSERT_EQ(ref.has_value(), got.has_value()) << what;
  if (!ref) return;
  EXPECT_EQ(ref->start, got->start) << what;
  EXPECT_EQ(ref->count, got->count) << what;
  EXPECT_EQ(ref->sum_bits, got->sum_bits) << what;
}

constexpr size_t kSymbolCounts[] = {32, 64, 128};
constexpr unsigned kWayCounts[] = {1, 2, 4, 8};
constexpr int kTrials = 6;

// Every way count that divides the block, every skip window of 0-16 symbols
// at every start (so windows straddling one or more way boundaries), and a
// few header sizes.
TEST(CodecDifferential, LayoutMatchesPerSymbolReference) {
  Rng rng(0x1A70);
  size_t straddling = 0;
  for (const size_t n : kSymbolCounts) {
    for (const unsigned ways : kWayCounts) {
      ASSERT_EQ(n % ways, 0u);
      E2mcConfig cfg;
      cfg.num_ways = ways;
      const E2mcCompressor comp(HuffmanCode{}, cfg);
      const size_t per_way = n / ways;
      for (int t = 0; t < kTrials; ++t) {
        const auto lens = random_lens(rng, n);
        const size_t header = rng.next_below(64);
        const std::string tag = "n=" + std::to_string(n) + " ways=" + std::to_string(ways) +
                                " trial=" + std::to_string(t);
        expect_layout_eq(test::ref_layout(lens, ways, header), comp.layout(lens, header), tag);
        for (size_t count = 1; count <= kMaxApproxSymbols; ++count) {
          for (size_t start = 0; start + count <= n; ++start) {
            if (start / per_way != (start + count - 1) / per_way) ++straddling;
            expect_layout_eq(test::ref_layout(lens, ways, header, start, count),
                             comp.layout(lens, header, start, count),
                             tag + " skip=[" + std::to_string(start) + "," +
                                 std::to_string(start + count) + ")");
          }
        }
      }
    }
  }
  EXPECT_GT(straddling, 0u);
}

// Every extra_bits from 0 to one past the largest window sum, with and
// without the TSLC-OPT extra nodes. The 320-symbol span is longer than the
// selector's stack prefix sum.
TEST(CodecDifferential, SelectMatchesWindowSumReference) {
  Rng rng(0x5E1EC7);
  for (const size_t n : {size_t{32}, size_t{64}, size_t{128}, size_t{320}}) {
    for (int t = 0; t < kTrials; ++t) {
      const auto lens = random_lens(rng, n);
      for (const bool extra_nodes : {false, true}) {
        const TreeSlcSelector sel(extra_nodes);
        const std::string tag = "n=" + std::to_string(n) + " trial=" + std::to_string(t) +
                                " extra_nodes=" + std::to_string(extra_nodes);
        // windows() reports every window with its per-symbol sum; the
        // largest bounds the extra_bits sweep.
        size_t max_sum = 0;
        for (const TreeCandidate& c : sel.windows(lens)) {
          size_t sum = 0;
          for (size_t i = c.start; i < c.start + c.count; ++i) sum += lens[i];
          EXPECT_EQ(c.sum_bits, sum) << tag << " window " << c.start << "+" << c.count;
          max_sum = std::max(max_sum, sum);
        }
        for (size_t extra = 0; extra <= max_sum + 1; ++extra) {
          expect_candidate_eq(test::ref_select(lens, extra, extra_nodes), sel.select(lens, extra),
                              tag + " extra=" + std::to_string(extra));
        }
        EXPECT_FALSE(sel.select(lens, max_sum + 1).has_value()) << tag;
      }
    }
  }
}

}  // namespace
}  // namespace slc
