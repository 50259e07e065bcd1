// Base-Delta-Immediate compression (Pekhimenko et al., PACT 2012).
//
// A block is encoded as one base value plus per-word deltas that must fit in
// a narrow field; words near zero may instead use an implicit zero base
// ("immediate"), selected by a per-word mask bit. Eight encodings (base size
// x delta size) plus all-zero and repeated-value special cases are tried and
// the smallest valid one wins. BDI is one of the four schemes whose
// raw-vs-effective gap motivates the paper (Fig. 1).
#pragma once

#include <array>

#include "compress/compressor.h"

namespace slc {

/// BDI encoding identifiers (4-bit tag stored in the compressed stream).
enum class BdiEncoding : uint8_t {
  kUncompressed = 0,
  kZeros = 1,
  kRepeat64 = 2,   // block is one repeated 64-bit value
  kBase8Delta1 = 3,
  kBase8Delta2 = 4,
  kBase8Delta4 = 5,
  kBase4Delta1 = 6,
  kBase4Delta2 = 7,
  kBase2Delta1 = 8,
};

class BdiCompressor : public Compressor {
 public:
  std::string name() const override { return "BDI"; }
  Block decompress(const CompressedBlock& cb, size_t block_bytes) const override;

  /// Probe every encoding off direct 64-bit loads (AVX2 when active) and
  /// keep the winner's base, so compress emits without a second probe.
  using Compressor::compress_batch;
  void analyze_batch(std::span<const BlockView> blocks, BlockAnalysis* out) const override;
  void compress_batch(std::span<const BlockView> blocks, CompressedBlock* out) const override;

  /// Compressed size in bits of a given encoding (independent of contents;
  /// kUncompressed returns block bits).
  static size_t encoding_bits(BdiEncoding enc);

  /// Base/delta widths of a base+delta encoding (0/0 for the special cases).
  struct Geometry {
    size_t base_bytes;
    size_t delta_bytes;
  };
  static Geometry geometry(BdiEncoding enc);

  /// Candidate base+delta encodings in probe order (ascending compressed
  /// size). Shared by the scalar probe and the AVX2
  /// kernel so the two cannot rank candidates differently.
  static const std::array<BdiEncoding, 6>& candidate_order();
};

}  // namespace slc
