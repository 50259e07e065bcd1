// Bit-granular stream reader used by every decompressor.
//
// Compressed GPU memory blocks are bit-packed: entropy codes (E2MC), pattern
// prefixes (FPC/C-PACK) and headers (SLC) all have non-byte sizes. The
// compress kernels write MSB-first through detail::SpanBitWriter
// (compress/batch_writer.h); the reader consumes from an immutable view.
// MSB-first ordering matches the canonical-Huffman decode convention
// (codewords compare as left-aligned big-endian integers).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace slc {

/// MSB-first bit reader over an immutable byte span.
class BitReader {
 public:
  explicit BitReader(std::span<const uint8_t> data) : data_(data) {}
  /// A reader only views the bytes; passing a temporary vector would leave
  /// the span dangling. Bind the buffer to a named variable first.
  explicit BitReader(std::vector<uint8_t>&&) = delete;

  /// Reads `nbits` (<= 64) bits MSB-first. Bits past the end read as zero.
  uint64_t get(unsigned nbits);

  bool get_bit() { return get(1) != 0; }

  /// Peeks `nbits` without consuming. Out-of-range bits read as zero.
  uint64_t peek(unsigned nbits) const;

  /// Skips forward `nbits`.
  void skip(size_t nbits) { pos_ += nbits; }

  /// Repositions to absolute bit offset `pos`.
  void seek(size_t pos) { pos_ = pos; }

  size_t position() const { return pos_; }
  size_t bit_size() const { return data_.size() * 8; }
  /// True when a read or skip has passed the end of the data: the entropy
  /// decoders check it after each symbol run.
  bool overrun() const { return pos_ > bit_size(); }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

}  // namespace slc
