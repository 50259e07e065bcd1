// SLC compressed-block header (paper Fig. 6).
//
// Layout: m (1 bit, lossless/lossy) | ss (S bits, first approximated symbol,
// 2^S >= symbols per block) | len (4 bits, number of approximated symbols,
// stored as count-1) | pdp x (ways-1), each N bits with 2^N >= block size in
// bytes. For the paper's geometry (128 B block, 4 ways) the header is
// 1+6+4+3*7 = 32 bits; larger blocks widen ss and pdp past 8 bits.
// Uncompressed blocks carry no header; the burst count lives in the MDC.
//
// An SLC block is an E2MC block with a wider header: write()/read() call
// E2MC's pdp pair (E2mcCompressor::write_pdps/read_pdps) after m, ss and
// len, and read() rejects a lossy window [ss, ss + len) that leaves the block.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bitstream.h"
#include "common/block.h"

namespace slc {

namespace detail {
class SpanBitWriter;
}

struct SlcHeader {
  bool lossy = false;
  uint32_t start_symbol = 0;     ///< ss: index of first approximated symbol
  uint8_t approx_count = 0;      ///< len: symbols approximated (0 when lossless)
  uint32_t way_offsets[8] = {};  ///< byte offsets of ways 1..ways-1 (pdp)

  /// Header size in bits for a block/way geometry.
  static size_t bits(size_t block_bytes, unsigned num_ways, size_t num_symbols);

  /// Byte-padded header size.
  static size_t padded_bytes(size_t block_bytes, unsigned num_ways, size_t num_symbols) {
    return (bits(block_bytes, num_ways, num_symbols) + 7) / 8;
  }

  /// Writes the header, byte-padded. The header must start at bit 0 of `w`.
  void write(detail::SpanBitWriter& w, size_t block_bytes, unsigned num_ways,
             size_t num_symbols) const;
  /// Reads a header from bit 0 of `r`, leaving `r` at the first way; throws
  /// std::invalid_argument when a lossy window leaves the block.
  static SlcHeader read(BitReader& r, size_t block_bytes, unsigned num_ways,
                        size_t num_symbols);
};

}  // namespace slc
