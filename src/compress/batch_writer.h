// Internal helpers for the schemes' batched kernels (bdi/fpc/cpack/e2mc/
// huffman): little-endian word loads and word-at-a-time bit writers.
//
// BatchBitWriter and SpanBitWriter produce a byte stream identical to
// BitWriter's (MSB-first, final partial byte zero-padded) but accumulate into
// a 64-bit register and emit whole bytes, instead of BitWriter's per-byte
// masking loop. Equality of the streams is pinned by
// tests/test_codec_differential.cpp, which compares every lossless kernel's
// payloads against the BitWriter reference loops in tests/codec_reference.h.
// Not part of the public codec API.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

namespace slc::detail {

inline uint16_t load_le16(const uint8_t* p) {
  uint16_t v;
  std::memcpy(&v, p, 2);
  if constexpr (std::endian::native == std::endian::big)
    v = static_cast<uint16_t>((v >> 8) | (v << 8));
  return v;
}

inline uint32_t load_le32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  if constexpr (std::endian::native == std::endian::big)
    v = (v >> 24) | ((v >> 8) & 0xFF00u) | ((v << 8) & 0xFF0000u) | (v << 24);
  return v;
}

inline uint64_t load_le64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  if constexpr (std::endian::native == std::endian::big) {
    uint64_t s = 0;
    for (int i = 0; i < 8; ++i) s |= ((v >> (8 * (7 - i))) & 0xFFull) << (8 * i);
    v = s;
  }
  return v;
}

/// Append-only MSB-first bit writer for the batch kernels. Reuse across a
/// batch with clear(); the buffer keeps its capacity.
class BatchBitWriter {
 public:
  void clear() {
    buf_.clear();
    acc_ = 0;
    fill_ = 0;
  }

  /// Appends the low `nbits` bits of `value`, most-significant bit first.
  void put(uint64_t value, unsigned nbits) {
    if (nbits > 56) {  // split so the 64-bit accumulator cannot overflow
      put(value >> 32, nbits - 32);
      put(value & 0xFFFFFFFFull, 32);
      return;
    }
    if (nbits == 0) return;
    if (nbits < 64) value &= (uint64_t{1} << nbits) - 1;
    acc_ = (acc_ << nbits) | value;  // fill_ < 8 here, so fill_+nbits <= 63
    fill_ += nbits;
    while (fill_ >= 8) {
      fill_ -= 8;
      buf_.push_back(static_cast<uint8_t>((acc_ >> fill_) & 0xFF));
    }
  }

  void put_bit(bool bit) { put(bit ? 1u : 0u, 1); }

  size_t bit_size() const { return buf_.size() * 8 + fill_; }

  /// The packed stream so far, final partial byte zero-padded — byte-for-byte
  /// what BitWriter::bytes() returns for the same put() sequence.
  std::vector<uint8_t> bytes() const {
    std::vector<uint8_t> out(buf_);
    if (fill_) out.push_back(static_cast<uint8_t>((acc_ << (8 - fill_)) & 0xFF));
    return out;
  }

 private:
  std::vector<uint8_t> buf_;
  uint64_t acc_ = 0;
  unsigned fill_ = 0;  // pending bits in the low end of acc_; < 8 between puts
};

/// BatchBitWriter's emission logic over a caller-provided destination span —
/// the writer half of the prefix-sum payload scatter: a sizing pass computes
/// each block's exact payload bytes, exclusive_prefix_sum() turns those into
/// independent arena offsets, and each block emits through a SpanBitWriter
/// at its own offset with no per-block allocation. Identical stream bytes to
/// BitWriter / BatchBitWriter for the same put() sequence; the caller must
/// size the destination from the same sizing pass (asserted via finish()).
class SpanBitWriter {
 public:
  SpanBitWriter() = default;
  explicit SpanBitWriter(uint8_t* dst) : dst_(dst) {}

  void reset(uint8_t* dst) {
    dst_ = dst;
    len_ = 0;
    acc_ = 0;
    fill_ = 0;
  }

  /// Appends the low `nbits` bits of `value`, most-significant bit first.
  void put(uint64_t value, unsigned nbits) {
    if (nbits > 56) {
      put(value >> 32, nbits - 32);
      put(value & 0xFFFFFFFFull, 32);
      return;
    }
    if (nbits == 0) return;
    if (nbits < 64) value &= (uint64_t{1} << nbits) - 1;
    acc_ = (acc_ << nbits) | value;
    fill_ += nbits;
    while (fill_ >= 8) {
      fill_ -= 8;
      dst_[len_++] = static_cast<uint8_t>((acc_ >> fill_) & 0xFF);
    }
  }

  void put_bit(bool bit) { put(bit ? 1u : 0u, 1); }

  size_t bit_size() const { return len_ * 8 + fill_; }

  /// Flushes the final partial byte (zero-padded, like BitWriter::bytes())
  /// and returns the total bytes written.
  size_t finish() {
    if (fill_) {
      dst_[len_++] = static_cast<uint8_t>((acc_ << (8 - fill_)) & 0xFF);
      acc_ = 0;
      fill_ = 0;
    }
    return len_;
  }

 private:
  uint8_t* dst_ = nullptr;
  size_t len_ = 0;
  uint64_t acc_ = 0;
  unsigned fill_ = 0;
};

/// offsets[i] = sizes[0] + ... + sizes[i-1]; returns the total. The scatter
/// companion to SpanBitWriter: block i's payload lands at arena + offsets[i].
inline size_t exclusive_prefix_sum(const size_t* sizes, size_t n, size_t* offsets) {
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    offsets[i] = total;
    total += sizes[i];
  }
  return total;
}

}  // namespace slc::detail
