// Generic SLC: the paper's Sec. I claim that SLC "is not limited to E2MC
// but can also be applied to other techniques", demonstrated on FPC.
//
// FPC encodes a block as 32 variable-size word codes, so the same budget
// idea applies: sum the per-word code sizes (the tree adder's leaves are
// words instead of 16-bit symbols), and when the total lands a few bytes
// above a burst multiple, truncate a word window and predict the missing
// words from their neighbours on decompression.
//
// Differences from the E2MC-based codec:
//  * symbols are whole 32-bit words, so prediction needs no parity handling
//    (the previous word predicts the truncated ones);
//  * zero-run codes span multiple words — the selector operates on expanded
//    per-word costs where each word of a run carries its share;
//  * the header needs ss (5 bits for 32 words) + len (4) + mode (1); there
//    are no parallel-decode pointers.
#pragma once

#include <memory>
#include <optional>

#include "compress/fpc.h"
#include "core/tree_selector.h"

namespace slc {

struct GenericSlcConfig {
  size_t mag_bytes = kDefaultMagBytes;
  size_t threshold_bytes = 16;
  bool predict = true;  ///< false = zero-fill (SIMP-style)
};

struct GenericSlcInfo {
  bool lossy = false;
  bool stored_uncompressed = false;
  size_t lossless_bits = 0;
  size_t final_bits = 0;
  size_t bursts = 0;
  size_t truncated_words = 0;
};

/// SLC layered over FPC. Compress returns the block the GPU observes after
/// a store+load round trip plus the size bookkeeping (the bit-exact payload
/// of the lossless substrate is exercised by the FPC unit tests; this codec
/// models the selective truncation).
class SlcFpcCodec {
 public:
  /// Throws std::invalid_argument unless cfg.mag_bytes is positive and
  /// divides kBlockBytes.
  explicit SlcFpcCodec(GenericSlcConfig cfg = {});

  /// Analyzes one block: mode decision + truncation selection.
  GenericSlcInfo analyze(BlockView block) const;

  /// Functional round trip: returns the block as later reads observe it
  /// (identity unless the lossy mode fires).
  Block roundtrip(BlockView block) const;

  /// Per-word encoded costs in bits (FPC prefix + payload; words inside a
  /// zero run share the run's cost).
  std::vector<uint16_t> word_costs(BlockView block) const;

  const GenericSlcConfig& config() const { return cfg_; }

 private:
  GenericSlcConfig cfg_;
  FpcCompressor fpc_;
  TreeSlcSelector selector_;

  struct Selection {
    size_t start = 0;
    size_t count = 0;
  };
  std::optional<Selection> select(std::span<const uint16_t> costs, size_t comp_bits,
                                  size_t budget_bits) const;
};

}  // namespace slc
