// BitWriter: the reference MSB-first bit writer. It grows a byte buffer and
// places each value a byte fragment at a time, the obviously faithful way;
// the reference encoders in codec_reference.h write through it, and
// test_bitstream.cpp pins the production detail::SpanBitWriter's bytes to it
// for random put() sequences.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace slc::test {

/// Append-only MSB-first bit writer.
class BitWriter {
 public:
  /// Appends the low `nbits` bits of `value`, most-significant bit first.
  /// `nbits` must be in [0, 64].
  void put(uint64_t value, unsigned nbits) {
    assert(nbits <= 64);
    if (nbits == 0) return;
    if (nbits < 64) value &= (uint64_t{1} << nbits) - 1;
    const size_t need_bytes = (bit_size_ + nbits + 7) / 8;
    if (buf_.size() < need_bytes) buf_.resize(need_bytes, 0);
    // Place up to 8 bits per byte: the top `take` bits of what is left.
    size_t pos = bit_size_;
    unsigned left = nbits;
    while (left > 0) {
      const size_t byte = pos / 8;
      const unsigned room = 8 - static_cast<unsigned>(pos % 8);
      const unsigned take = left < room ? left : room;
      const uint64_t chunk = (value >> (left - take)) & ((uint64_t{1} << take) - 1);
      buf_[byte] |= static_cast<uint8_t>(chunk << (room - take));
      pos += take;
      left -= take;
    }
    bit_size_ += nbits;
  }

  void put_bit(bool bit) { put(bit ? 1u : 0u, 1); }

  /// Number of bits written so far.
  size_t bit_size() const { return bit_size_; }

  /// Size in whole bytes (rounded up).
  size_t byte_size() const { return (bit_size_ + 7) / 8; }

  /// The packed bytes; the final partial byte is zero-padded.
  std::vector<uint8_t> bytes() const {
    return std::vector<uint8_t>(buf_.begin(), buf_.begin() + static_cast<long>(byte_size()));
  }

  /// Overwrites `nbits` bits starting at absolute bit position `pos` with the
  /// low `nbits` of `value`. The range must already have been written.
  void patch(size_t pos, uint64_t value, unsigned nbits) {
    assert(pos + nbits <= bit_size_);
    for (unsigned i = 0; i < nbits; ++i) {
      const bool bit = ((value >> (nbits - 1 - i)) & 1) != 0;
      const size_t p = pos + i;
      const auto mask = static_cast<uint8_t>(1u << (7 - p % 8));
      if (bit)
        buf_[p / 8] |= mask;
      else
        buf_[p / 8] &= static_cast<uint8_t>(~mask);
    }
  }

  void clear() {
    buf_.clear();
    bit_size_ = 0;
  }

 private:
  std::vector<uint8_t> buf_;
  size_t bit_size_ = 0;
};

}  // namespace slc::test
