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
#include <span>
#include <vector>

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

/// The Fig. 5 tree adder over one block's code lengths, built bottom-up in
/// one pass: nodes of 2, 4, 8 and 16 symbols (level 1 is the lengths
/// themselves), with extra_nodes the TSLC-OPT 6- and 12-symbol windows as
/// node pairs, and a running sum over the 16-symbol nodes (the root, the
/// compressed size before headers, is range_bits(0, n)). Any block size
/// works: a level holds only its whole nodes, so a partial top level simply
/// ends early. Only a lossy candidate builds one (SlcCodec::decide settles
/// every other block from the way sums of its code-length probe); the
/// window search reads the tree:
///  * select() walks the levels in first-fit order;
///  * range_bits() sums any symbol range in at most five node reads (the
///    running sum up to the range's 16-aligned part, then at most one node
///    of 8, 4, 2 and 1) — the share of a cut window in each way it
///    straddles.
/// Blocks of up to kStackSymbols symbols keep the tree on the stack; larger
/// ones stage it on the heap. `lens` must outlive the tree, which refers to
/// it and to its own storage (so it neither copies nor moves).
class CodeLengthTree {
 public:
  /// Blocks up to this many symbols (512 B) build the tree without a heap
  /// allocation.
  static constexpr size_t kStackSymbols = 256;
  /// The longest code length the tree takes (an E2MC length is at most a
  /// 255-bit escape code plus the 16-bit symbol), so that every node of 16
  /// lengths fits 15 bits.
  static constexpr size_t kMaxLengthBits = 2047;
  static constexpr size_t kMaxNodeBits = 16 * kMaxLengthBits;

  CodeLengthTree(std::span<const uint16_t> lens, bool extra_nodes);
  CodeLengthTree(const CodeLengthTree&) = delete;
  CodeLengthTree& operator=(const CodeLengthTree&) = delete;

  /// Code bits of symbols [begin, end); 0 <= begin <= end <= lens.size().
  size_t range_bits(size_t begin, size_t end) const {
    return prefix_bits(end) - prefix_bits(begin);
  }

  /// The first window covering `need` bits in Fig. 5 order: sizes 1, 2, 4,
  /// [6], 8, [12], 16 (bracketed only with extra_nodes), symbol order within
  /// a size — the per-level priority encoders. nullopt when need is 0 or no
  /// window of at most kMaxApproxSymbols symbols covers it (the block then
  /// stays lossless).
  std::optional<TreeCandidate> select(size_t need) const;

 private:
  /// Code bits of symbols [0, end): the 16-symbol nodes below end's
  /// 16-aligned part, then one node per set bit of end % 16.
  size_t prefix_bits(size_t end) const {
    size_t base = end & ~size_t{15};
    size_t bits = top_prefix_[end >> 4];
    if (end & 8) bits += level_[3][base >> 3], base += 8;
    if (end & 4) bits += level_[2][base >> 2], base += 4;
    if (end & 2) bits += level_[1][base >> 1], base += 2;
    if (end & 1) bits += level_[0][base];
    return bits;
  }

  /// The TSLC-OPT window of 6 (l == 3) or 12 (l == 4) symbols at `start`:
  /// the node of 2^(l-1) symbols there plus the adjacent node of 2^(l-2).
  size_t pair_window_bits(unsigned l, size_t start) const {
    return size_t{level_[l - 1][start >> (l - 1)]} + level_[l - 2][(start >> (l - 2)) + 2];
  }

  // Nodes of one stack tree: levels of 2/4/8/16 symbols hold
  // n/2 + n/4 + n/8 + n/16.
  static constexpr size_t kStackNodes =
      kStackSymbols / 2 + kStackSymbols / 4 + kStackSymbols / 8 + kStackSymbols / 16;

  size_t n_;
  bool extra_nodes_;
  /// level_[l][k]: code bits of symbols [k * 2^l, (k + 1) * 2^l); level_[0]
  /// is the lengths themselves.
  const uint16_t* level_[5] = {};
  /// top_prefix_[k]: code bits of the first k 16-symbol nodes.
  const uint32_t* top_prefix_ = nullptr;
  // Staging written before it is read, left uninitialized: zeroing it
  // would cost more than building the tree.
  uint16_t stack_nodes_[kStackNodes];
  uint32_t stack_prefix_[kStackSymbols / 16 + 1];
  std::vector<uint16_t> heap_nodes_;
  std::vector<uint32_t> heap_prefix_;
};

}  // namespace slc
