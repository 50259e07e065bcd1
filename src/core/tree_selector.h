// Tree-based SLC sub-block selection (paper Sec. III-D and Fig. 5).
//
// A parallel tree adder sums the per-symbol code lengths of a block; the root
// is the compressed size. When lossy mode is chosen, the intermediate sums at
// every level are compared against `extra_bits` in parallel; per-level
// priority encoders output the first sub-block whose compressed size covers
// the overshoot, and the lowest level with a hit wins (fewest symbols
// approximated). TSLC-OPT adds 8 extra nodes at level 3 and 4 at level 4
// (Sec. III-F) — modelled as 6- and 12-symbol windows formed by summing a
// node with its adjacent smaller-level neighbour — which tightens the
// selected sum and reduces unneeded approximation.
//
// Level numbering matches the paper: level l holds 64/2^(l-1) nodes of
// 2^(l-1) symbols each (level 3 = 16 nodes of 4 symbols, level 4 = 8 nodes of
// 8). At most 16 symbols may be approximated (the 4-bit `len` header field),
// so levels 1..5 participate in selection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/block.h"

namespace slc {

/// Maximum symbols a single approximation may cover (4-bit len field).
inline constexpr size_t kMaxApproxSymbols = 16;

/// One candidate sub-block for approximation.
struct TreeCandidate {
  size_t start = 0;     ///< first symbol index
  size_t count = 0;     ///< number of symbols (window size)
  size_t sum_bits = 0;  ///< compressed bits the truncation removes
};

/// Unneeded approximation of a selection: the bits it removes beyond the
/// overshoot it had to cover (Sec. III-F's motivation for extra nodes).
inline size_t overshoot_bits(const TreeCandidate& c, size_t extra_bits) {
  return c.sum_bits > extra_bits ? c.sum_bits - extra_bits : 0;
}

/// The Fig. 5 tree adder over one block's 64 code lengths, built bottom-up
/// in one pass on the stack: nodes of 2, 4, 8 and 16 symbols (level 1 is
/// the lengths themselves), with extra_nodes the TSLC-OPT 6- and 12-symbol
/// windows as node pairs. Only a lossy candidate builds one
/// (SlcCodec::decide settles every other block from the way sums of its
/// code-length probe), and select() walks its levels in first-fit order.
/// The four 16-symbol nodes are the E2MC ways, and every window lies inside
/// one of them. `lens` must outlive the tree, which refers to it and to its
/// own storage (so it neither copies nor moves).
class CodeLengthTree {
 public:
  /// The longest code length the tree takes (an E2MC length is at most a
  /// 255-bit escape code plus the 16-bit symbol), so that every node of 16
  /// lengths fits 15 bits.
  static constexpr size_t kMaxLengthBits = 2047;
  static constexpr size_t kMaxNodeBits = 16 * kMaxLengthBits;

  /// `lens` holds the block's kSymbolsPerBlock code lengths.
  CodeLengthTree(const uint16_t* lens, bool extra_nodes);
  CodeLengthTree(const CodeLengthTree&) = delete;
  CodeLengthTree& operator=(const CodeLengthTree&) = delete;

  /// The first window covering `need` bits in Fig. 5 order: sizes 1, 2, 4,
  /// [6], 8, [12], 16 (bracketed only with extra_nodes), symbol order within
  /// a size — the per-level priority encoders. nullopt when need is 0 or no
  /// window of at most kMaxApproxSymbols symbols covers it (the block then
  /// stays lossless).
  std::optional<TreeCandidate> select(size_t need) const;

 private:
  /// The TSLC-OPT window of 6 (l == 3) or 12 (l == 4) symbols at `start`:
  /// the node of 2^(l-1) symbols there plus the adjacent node of 2^(l-2).
  size_t pair_window_bits(unsigned l, size_t start) const {
    return size_t{level_[l - 1][start >> (l - 1)]} + level_[l - 2][(start >> (l - 2)) + 2];
  }

  /// Nodes of the levels of 2/4/8/16 symbols: 32 + 16 + 8 + 4.
  static constexpr size_t kNodes =
      kSymbolsPerBlock / 2 + kSymbolsPerBlock / 4 + kSymbolsPerBlock / 8 + kSymbolsPerBlock / 16;

  bool extra_nodes_;
  /// level_[l][k]: code bits of symbols [k * 2^l, (k + 1) * 2^l); level_[0]
  /// is the lengths themselves.
  const uint16_t* level_[5] = {};
  // Staging written before it is read, left uninitialized: zeroing it
  // would cost more than building the tree.
  uint16_t nodes_[kNodes];
};

}  // namespace slc
