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

class TreeSlcSelector {
 public:
  /// `extra_nodes` enables the TSLC-OPT intermediate windows.
  explicit TreeSlcSelector(bool extra_nodes) : extra_nodes_(extra_nodes) {}

  /// Sum of all code lengths — the tree root (comp size before headers).
  static size_t comp_size_bits(std::span<const uint16_t> code_lens);

  /// Selects the sub-block to approximate for the given overshoot.
  /// Returns nullopt when no window of <= kMaxApproxSymbols symbols has
  /// sum >= extra_bits (the block then stays lossless).
  ///
  /// Hardware-faithful policy: windows are examined in increasing size
  /// (1, 2, 4, [6], 8, [12], 16 symbols; bracketed sizes only with
  /// extra_nodes); within a size, the first window in symbol order wins
  /// (priority encoder). Like the tree adder, the block's lengths are summed
  /// once: each window is the difference of two prefix-sum entries.
  std::optional<TreeCandidate> select(std::span<const uint16_t> code_lens,
                                      size_t extra_bits) const;

  /// All windows the tree exposes for `n` symbols — used by tests and the
  /// hardware-cost model (node/adder counts).
  std::vector<TreeCandidate> windows(std::span<const uint16_t> code_lens) const;

  /// Unneeded approximation for a selection: selected sum minus the
  /// overshoot it had to cover (Sec. III-F's motivation for extra nodes).
  static size_t overshoot_bits(const TreeCandidate& c, size_t extra_bits) {
    return c.sum_bits > extra_bits ? c.sum_bits - extra_bits : 0;
  }

  bool extra_nodes() const { return extra_nodes_; }

 private:
  bool extra_nodes_;
};

}  // namespace slc
