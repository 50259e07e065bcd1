// Internal helpers for the schemes' batched kernels (bdi/fpc/cpack/e2mc/
// huffman and the SLC codec): little-endian word loads, the span bit writer,
// both halves of the stored-raw rule, the end check of every decode and the
// one payload layout every compress kernel uses.
//
// SpanBitWriter writes MSB-first with the final partial byte zero-padded,
// accumulating into a 64-bit register and emitting whole bytes. Its streams
// are pinned byte for byte against the reference BitWriter in tests/
// (BitStreamProperty, and every lossless kernel's payloads against the
// reference encoders in tests/codec_reference.h).
// Not part of the public codec API.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bitstream.h"
#include "compress/compressor.h"

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

/// MSB-first bit writer over a caller-provided destination: the writer
/// scatter_payloads() hands each compressed block at its arena offset. The
/// caller sizes the destination from the same sizing pass.
class SpanBitWriter {
 public:
  explicit SpanBitWriter(uint8_t* dst) : dst_(dst) {}

  /// Appends the low `nbits` (<= 64) bits of `value`, most-significant bit
  /// first.
  void put(uint64_t value, unsigned nbits) {
    if (nbits > 56) {  // split so the 64-bit accumulator cannot overflow
      put(value >> 32, nbits - 32);
      put(value & 0xFFFFFFFFull, 32);
      return;
    }
    if (nbits == 0) return;
    value &= (uint64_t{1} << nbits) - 1;
    acc_ = (acc_ << nbits) | value;  // fill_ < 8 here, so fill_+nbits <= 63
    fill_ += nbits;
    while (fill_ >= 8) {
      fill_ -= 8;
      dst_[len_++] = static_cast<uint8_t>((acc_ >> fill_) & 0xFF);
    }
  }

  void put_bit(bool bit) { put(bit ? 1u : 0u, 1); }

  size_t bit_size() const { return len_ * 8 + fill_; }

  /// Flushes the final partial byte (zero-padded) and returns the total
  /// bytes written.
  size_t finish() {
    if (fill_) {
      dst_[len_++] = static_cast<uint8_t>((acc_ << (8 - fill_)) & 0xFF);
      acc_ = 0;
      fill_ = 0;
    }
    return len_;
  }

 private:
  uint8_t* dst_;
  size_t len_ = 0;
  uint64_t acc_ = 0;
  unsigned fill_ = 0;  // pending bits in the low end of acc_; < 8 between puts
};

/// The stored-raw rule of every lossless scheme: a block keeps its `bits`-bit
/// encoding only when that is smaller than the raw block, and is otherwise
/// stored raw at the raw size. Each scheme's analyze and compress kernels
/// size blocks through it, so the two cannot disagree.
inline BlockAnalysis lossless_size(size_t bits) {
  BlockAnalysis a;
  a.is_compressed = bits < kBlockBytes * 8;
  a.bit_size = a.is_compressed ? bits : kBlockBytes * 8;
  a.lossless_bits = a.bit_size;
  return a;
}

/// The decode half of the stored-raw rule, for every decompress: the payload
/// is the block's bytes, and one of any other length throws
/// std::invalid_argument.
inline Block stored_raw_block(const CompressedBlock& cb) {
  if (cb.payload.size() != kBlockBytes)
    throw std::invalid_argument("stored-raw payload is not one block long");
  return Block(std::span<const uint8_t>(cb.payload));
}

/// The end check of every compressed decode: the reader at `end_bits`, the
/// end of the encoding, must have stayed inside the payload, and the payload
/// must end at the byte that holds the last bit, so a truncated payload and
/// one with trailing bytes both throw std::invalid_argument.
inline void check_payload_end(const BitReader& r, const char* who) {
  if (r.overrun())
    throw std::invalid_argument(std::string(who) + " payload: the block ends past the payload");
  if ((r.position() + 7) / 8 != r.bit_size() / 8)
    throw std::invalid_argument(std::string(who) + " payload: bytes follow the encoding");
}

/// lossless_size() into a compress kernel's slot, ahead of scatter_payloads().
inline void set_lossless_size(CompressedBlock& cb, size_t bits) {
  const BlockAnalysis a = lossless_size(bits);
  cb.bit_size = a.bit_size;
  cb.is_compressed = a.is_compressed;
}

/// The payload layout of every compress kernel. On entry a scheme's sizing
/// pass has set out[b].bit_size and out[b].is_compressed for blocks[b]; a
/// stored-raw block's bit_size is its raw size. The payloads are laid out
/// back to back in one arena at the exclusive prefix sum of their byte
/// sizes; a stored-raw block's bytes are copied, and `emit(b, w)` writes
/// compressed block b through a SpanBitWriter at its offset, exactly
/// out[b].bit_size bits. The arena is then sliced into out[b].payload.
template <class Emit>
void scatter_payloads(std::span<const BlockView> blocks, CompressedBlock* out, Emit&& emit) {
  const size_t n = blocks.size();
  std::vector<size_t> offsets(n + 1, 0);
  for (size_t b = 0; b < n; ++b) offsets[b + 1] = offsets[b] + out[b].byte_size();
  std::vector<uint8_t> arena(offsets[n]);

  for (size_t b = 0; b < n; ++b) {
    uint8_t* dst = arena.data() + offsets[b];
    if (!out[b].is_compressed) {
      assert(out[b].bit_size == kBlockBytes * 8);
      std::memcpy(dst, blocks[b].bytes().data(), kBlockBytes);
      continue;
    }
    SpanBitWriter w(dst);
    emit(b, w);
    assert(w.bit_size() == out[b].bit_size);
    [[maybe_unused]] const size_t written = w.finish();
    assert(written == offsets[b + 1] - offsets[b]);
  }

  for (size_t b = 0; b < n; ++b)
    out[b].payload.assign(arena.data() + offsets[b], arena.data() + offsets[b + 1]);
}

}  // namespace slc::detail
