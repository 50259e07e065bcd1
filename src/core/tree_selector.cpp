#include "core/tree_selector.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace slc {

namespace {

/// out[k] = in[2k] + in[2k+1]: one tree level from the level below.
void sum_pairs(const uint16_t* __restrict in, size_t count, uint16_t* __restrict out) {
  for (size_t k = 0; k < count; ++k) out[k] = static_cast<uint16_t>(in[2 * k] + in[2 * k + 1]);
}

/// The priority encoder of one level: the index of the first of
/// sums[0, count) that is >= need (need in [1, 2^15]), or count. Four sums
/// per 64-bit word: every sum is below 2^15, so sum + (2^15 - need) sets a
/// 16-bit lane's top bit exactly when sum >= need, without a carry into the
/// next lane. A word with a hit is then resolved sum by sum.
size_t first_at_least(const uint16_t* sums, size_t count, size_t need) {
  constexpr uint64_t kLanes = 0x0001000100010001ull;
  const uint64_t bias = (size_t{1} << 15) - need;
  size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    uint64_t w;
    std::memcpy(&w, sums + k, sizeof w);
    if (((w + bias * kLanes) & (kLanes << 15)) != 0) break;
  }
  for (; k < count; ++k)
    if (sums[k] >= need) return k;
  return count;
}

}  // namespace

CodeLengthTree::CodeLengthTree(std::span<const uint16_t> lens, bool extra_nodes)
    : n_(lens.size()), extra_nodes_(extra_nodes) {
  assert(std::all_of(lens.begin(), lens.end(), [](uint16_t l) { return l <= kMaxLengthBits; }));
  const size_t c2 = n_ / 2, c4 = n_ / 4, c8 = n_ / 8, c16 = n_ / 16;
  uint16_t* nodes = stack_nodes_;
  uint32_t* top_prefix = stack_prefix_;
  if (n_ > kStackSymbols) {
    heap_nodes_.resize(c2 + c4 + c8 + c16);
    heap_prefix_.resize(c16 + 1);
    nodes = heap_nodes_.data();
    top_prefix = heap_prefix_.data();
  }
  // One bottom-up pass: each level sums adjacent pairs of the one below and
  // holds only whole nodes.
  uint16_t* l2 = nodes;
  uint16_t* l4 = l2 + c2;
  uint16_t* l8 = l4 + c4;
  uint16_t* l16 = l8 + c8;
  sum_pairs(lens.data(), c2, l2);
  sum_pairs(l2, c4, l4);
  sum_pairs(l4, c8, l8);
  sum_pairs(l8, c16, l16);
  top_prefix[0] = 0;
  for (size_t k = 0; k < c16; ++k) top_prefix[k + 1] = top_prefix[k] + l16[k];
  level_[0] = lens.data();
  level_[1] = l2;
  level_[2] = l4;
  level_[3] = l8;
  level_[4] = l16;
  top_prefix_ = top_prefix;
}

std::optional<TreeCandidate> CodeLengthTree::select(size_t need) const {
  static_assert(kMaxApproxSymbols >= 16, "the largest window is one 16-symbol node");
  // Every node is below 2^15 bits, so a larger need has no window.
  if (need == 0 || need > kMaxNodeBits) return std::nullopt;
  // Sizes 1, 2, 4, [6], 8, [12], 16: level l holds the windows of 2^l
  // symbols, and with extra_nodes the windows of 6 and 12 come before levels
  // 3 and 4. A 6-symbol window is a 4-symbol node plus the adjacent 2-symbol
  // node and starts every 8 symbols; a 12-symbol window is an 8-symbol node
  // plus the adjacent 4-symbol node and starts every 16. Starting at the
  // larger parent's alignment keeps every window inside one 16-symbol node.
  for (unsigned l = 0; l < 5; ++l) {
    if (extra_nodes_ && l >= 3) {
      const size_t size = size_t{3} << (l - 2);
      for (size_t start = 0; start + size <= n_; start += size_t{1} << l) {
        const size_t sum = pair_window_bits(l, start);
        if (sum >= need) return TreeCandidate{start, size, sum};
      }
    }
    const size_t count = n_ >> l;
    const size_t k = first_at_least(level_[l], count, need);
    if (k < count) return TreeCandidate{k << l, size_t{1} << l, level_[l][k]};
  }
  return std::nullopt;
}

}  // namespace slc
