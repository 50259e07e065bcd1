// SLC compressed-block header (paper Fig. 6).
//
// Layout: m (1 bit, lossless/lossy) | ss (6 bits, first approximated symbol
// of 64) | len (4 bits, number of approximated symbols, stored as count-1) |
// pdp x 3, the E2MC pdps of 7 bits each: 1+6+4+3*7 = 32 bits, so the ways
// start at byte 4. Uncompressed blocks carry no header; the burst count
// lives in the MDC.
//
// An SLC block is an E2MC block with a wider header: write()/read() call
// E2MC's pdp pair (E2mcCompressor::write_pdps/read_pdps) after m, ss and
// len, and read() rejects a lossy window [ss, ss + len) that leaves the block.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bitstream.h"
#include "compress/e2mc.h"

namespace slc {

struct SlcHeader {
  static constexpr unsigned kSsBits = 6;   ///< 2^6 = 64 symbols
  static constexpr unsigned kLenBits = 4;  ///< up to 16 approximated symbols (count-1)
  /// The header size: m, ss, len and the E2MC pdps, 32 bits (Fig. 6).
  static constexpr size_t kBits = 1 + kSsBits + kLenBits + E2mcCompressor::kHeaderBits;
  static_assert(kBits % 8 == 0, "the ways start on a byte");

  bool lossy = false;
  uint32_t start_symbol = 0;            ///< ss: index of first approximated symbol
  uint8_t approx_count = 0;             ///< len: symbols approximated (0 when lossless)
  uint32_t way_offsets[kNumWays] = {};  ///< byte offsets of ways 1..3 (pdp)

  /// Writes the header. It must start at bit 0 of `w`.
  void write(detail::SpanBitWriter& w) const;
  /// Reads a header from bit 0 of `r`, leaving `r` at the first way; throws
  /// std::invalid_argument when a lossy window leaves the block.
  static SlcHeader read(BitReader& r);
};

}  // namespace slc
