// TSLC tree selector: hardware-faithful window selection (Sec. III-D/F).
#include <gtest/gtest.h>

#include "codec_reference.h"
#include "common/rng.h"
#include "core/tree_selector.h"

namespace slc {
namespace {

std::vector<uint16_t> uniform_lens(uint16_t len) { return std::vector<uint16_t>(64, len); }

std::vector<uint16_t> random_lens(Rng& rng) {
  std::vector<uint16_t> lens(64);
  for (auto& l : lens) l = static_cast<uint16_t>(1 + rng.next_below(16));
  return lens;
}

TEST(TreeSelector, CompSizeIsSum) {
  const auto lens = uniform_lens(7);
  // The widest window is a 16-symbol node, the sum of its lengths.
  const auto c = CodeLengthTree(lens.data(), false).select(7 * 16);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->start, 0u);
  EXPECT_EQ(c->count, 16u);
  EXPECT_EQ(c->sum_bits, 7u * 16u);
}

TEST(TreeSelector, ZeroExtraBitsSelectsNothing) {
  const auto lens = uniform_lens(8);
  EXPECT_FALSE(CodeLengthTree(lens.data(), false).select(0).has_value());
}

TEST(TreeSelector, SingleSymbolWindowWhenEnough) {
  auto lens = uniform_lens(4);
  lens[10] = 15;  // one long symbol
  const auto c = CodeLengthTree(lens.data(), false).select(12);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->count, 1u);
  EXPECT_EQ(c->start, 10u);
  EXPECT_EQ(c->sum_bits, 15u);
}

TEST(TreeSelector, PriorityEncoderPicksFirstWindow) {
  auto lens = uniform_lens(4);
  lens[20] = 14;
  lens[40] = 15;  // later window also qualifies but must not win
  const auto c = CodeLengthTree(lens.data(), false).select(13);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->start, 20u);
}

TEST(TreeSelector, EscalatesToLargerWindows) {
  const auto lens = uniform_lens(4);  // windows: 1->4, 2->8, 4->16, 8->32, 16->64
  const auto c = CodeLengthTree(lens.data(), false).select(20);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->count, 8u);      // smallest power-of-two window with sum >= 20
  EXPECT_EQ(c->sum_bits, 32u);
}

TEST(TreeSelector, AlignedStarts) {
  Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    const auto lens = random_lens(rng);
    const size_t extra = 1 + rng.next_below(128);
    const auto c = CodeLengthTree(lens.data(), false).select(extra);
    if (!c) continue;
    EXPECT_EQ(c->start % c->count, 0u) << "power-of-two windows are self-aligned";
    EXPECT_GE(c->sum_bits, extra);
    EXPECT_LE(c->count, kMaxApproxSymbols);
  }
}

TEST(TreeSelector, NoWindowMeansLossless) {
  const auto lens = uniform_lens(1);  // 16-symbol window sums to only 16
  EXPECT_FALSE(CodeLengthTree(lens.data(), false).select(64).has_value());
}

TEST(TreeSelector, OptUsesIntermediateWindows) {
  // extra_bits between the 4-window and 8-window sums: OPT's 6-symbol window
  // (sum 24) must beat the base selector's 8-symbol window (sum 32).
  const auto lens = uniform_lens(4);
  const size_t extra = 20;
  const auto cb = CodeLengthTree(lens.data(), false).select(extra);
  const auto co = CodeLengthTree(lens.data(), true).select(extra);
  ASSERT_TRUE(cb && co);
  EXPECT_EQ(cb->count, 8u);
  EXPECT_EQ(co->count, 6u);
  EXPECT_LT(co->sum_bits, cb->sum_bits);
}

TEST(TreeSelector, OptTwelveSymbolWindow) {
  const auto lens = uniform_lens(4);
  const size_t extra = 36;  // 8-window sum 32 < 36 <= 12-window sum 48
  const auto cb = CodeLengthTree(lens.data(), false).select(extra);
  const auto co = CodeLengthTree(lens.data(), true).select(extra);
  ASSERT_TRUE(cb && co);
  EXPECT_EQ(cb->count, 16u);
  EXPECT_EQ(co->count, 12u);
}

TEST(TreeSelector, OptNeverTruncatesMoreSymbols) {
  // The hardware policy minimizes approximated SYMBOLS (lowest level wins,
  // Sec. III-D); OPT's extra sizes (6, 12) slot between the power-of-two
  // sizes, so its selection size never exceeds the base selector's.
  Rng rng(2);
  for (int trial = 0; trial < 500; ++trial) {
    const auto lens = random_lens(rng);
    const size_t extra = 1 + rng.next_below(128);
    const auto cb = CodeLengthTree(lens.data(), false).select(extra);
    const auto co = CodeLengthTree(lens.data(), true).select(extra);
    if (cb) {
      ASSERT_TRUE(co.has_value()) << "OPT has a superset of windows";
      EXPECT_LE(co->count, cb->count);
    }
  }
}

// The window set the tree selects from is the one test::ref_windows
// enumerates; the differential suite pins select() against it for every
// overshoot.
TEST(TreeSelector, WindowsStayInsideOneWay) {
  // All selectable windows must sit inside one 16-symbol decoding way —
  // truncation never splits across pdp boundaries.
  for (const TreeCandidate& w : test::ref_windows(uniform_lens(5), true)) {
    const size_t way_first = w.start / 16;
    const size_t way_last = (w.start + w.count - 1) / 16;
    EXPECT_EQ(way_first, way_last) << "window " << w.start << "+" << w.count;
  }
}

TEST(TreeSelector, WindowCounts) {
  const auto lens = uniform_lens(1);
  // Base: 64 + 32 + 16 + 8 + 4 windows (sizes 1,2,4,8,16).
  const size_t base = test::ref_windows(lens, false).size();
  EXPECT_EQ(base, 64u + 32u + 16u + 8u + 4u);
  // OPT adds 8 six-symbol and 4 twelve-symbol windows (Sec. III-F).
  EXPECT_EQ(test::ref_windows(lens, true).size(), base + 8u + 4u);
}

TEST(TreeSelector, OvershootBits) {
  TreeCandidate c{0, 4, 30};
  EXPECT_EQ(overshoot_bits(c, 20), 10u);
  EXPECT_EQ(overshoot_bits(c, 30), 0u);
  EXPECT_EQ(overshoot_bits(c, 40), 0u);
}

// Property: the returned window always covers extra_bits with the smallest
// participating window size (selection order is by size).
TEST(TreeSelectorProperty, SmallestQualifyingSize) {
  Rng rng(3);
  for (int trial = 0; trial < 300; ++trial) {
    const auto lens = random_lens(rng);
    const size_t extra = 1 + rng.next_below(160);
    const auto c = CodeLengthTree(lens.data(), true).select(extra);
    if (!c) continue;
    // No window of a strictly smaller size may qualify.
    for (const TreeCandidate& w : test::ref_windows(lens, true)) {
      if (w.count < c->count) {
        EXPECT_LT(w.sum_bits, extra);
      }
    }
  }
}

}  // namespace
}  // namespace slc
