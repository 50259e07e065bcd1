// Frequent Pattern Compression (Alameldeen & Wood, UW-Madison TR 2004).
//
// Each 32-bit word is matched against a small set of frequent patterns
// (zero runs, narrow sign-extended values, padded halfwords, repeated bytes)
// and stored as a 3-bit prefix plus a variable-size payload. Words that match
// nothing are stored verbatim behind the prefix.
#pragma once

#include "compress/compressor.h"

namespace slc {

/// FPC 3-bit pattern prefixes.
enum class FpcPattern : uint8_t {
  kZeroRun = 0,        // run of 1..8 zero words; payload: 3-bit (run-1)
  kSignExt4 = 1,       // 4-bit sign-extended value
  kSignExt8 = 2,       // 8-bit sign-extended value
  kSignExt16 = 3,      // 16-bit sign-extended value
  kHalfwordPadded = 4, // lower halfword zero; payload: upper halfword
  kTwoHalfwordsSE = 5, // both halfwords are 8-bit sign-extendable
  kRepeatedBytes = 6,  // all four bytes identical; payload: the byte
  kUncompressed = 7,   // verbatim 32-bit word
};

class FpcCompressor : public Compressor {
 public:
  std::string name() const override { return "FPC"; }
  Block decompress(const CompressedBlock& cb, size_t block_bytes) const override;

  /// Classify every word once (AVX2 when available), size the block from the
  /// classes, then emit from them. Blocks must be whole 4 B words.
  using Compressor::analyze_batch;
  using Compressor::compress_batch;
  void analyze_batch(std::span<const BlockView> blocks, BlockAnalysis* out) const override;
  void compress_batch(std::span<const BlockView> blocks, CompressedBlock* out) const override;
};

}  // namespace slc
