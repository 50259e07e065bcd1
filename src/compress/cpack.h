// C-PACK cache compression (Chen et al., IEEE TVLSI 2010).
//
// Words are matched against zero patterns and a small FIFO dictionary of
// recently seen words; full and partial (upper 2- or 3-byte) matches are
// encoded as short codes with the unmatched bytes appended. The dictionary
// is rebuilt identically during decompression, so no table is stored.
#pragma once

#include "compress/compressor.h"

namespace slc {

/// C-PACK word codes. Code/pattern lengths follow the paper:
///   zzzz (00)              -> 2 bits, all-zero word
///   xxxx (01)+word         -> 34 bits, no match (pushed to dictionary)
///   mmmm (10)+idx          -> 6 bits, full dictionary match
///   mmxx (1100)+idx+2B     -> 24 bits, upper-halfword match (pushed)
///   zzzx (1101)+1B         -> 12 bits, only lowest byte nonzero
///   mmmx (1110)+idx+1B     -> 16 bits, upper-3-byte match (pushed)
enum class CpackCode : uint8_t { kZZZZ, kXXXX, kMMMM, kMMXX, kZZZX, kMMMX };

class CpackCompressor : public Compressor {
 public:
  /// Throws std::invalid_argument unless `dict_entries` is a power of two
  /// in [2, 64] (index bits = log2; the dictionary is a 64-slot ring).
  explicit CpackCompressor(size_t dict_entries = 16);

  std::string name() const override { return "C-PACK"; }
  Block decompress(const CompressedBlock& cb, size_t block_bytes) const override;

  /// One dictionary walk per block, words read straight off the block and
  /// the FIFO dictionary in a fixed ring buffer on the stack; compress
  /// records each word's code in the walk and emits from the codes. Blocks
  /// must be whole 4 B words.
  using Compressor::compress_batch;
  void analyze_batch(std::span<const BlockView> blocks, BlockAnalysis* out) const override;
  void compress_batch(std::span<const BlockView> blocks, CompressedBlock* out) const override;

  size_t dict_entries() const { return dict_entries_; }

  /// Encoded bits for a code (prefix + index + literal bytes).
  unsigned code_bits(CpackCode c) const;

 private:
  size_t dict_entries_;
  unsigned index_bits_;
};

}  // namespace slc
