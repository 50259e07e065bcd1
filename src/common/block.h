// Memory-block primitives shared by compressors, the SLC codec and the
// simulator.
//
// GPUs move global memory in fixed-size blocks (cache lines); the paper uses
// 128 B blocks split into 16-bit symbols (64 symbols/block) and a memory
// access granularity (MAG) of 16/32/64 B. These helpers centralize the
// geometry so every module agrees on rounding and symbol extraction.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace slc {

/// Default GPU cache-line / DRAM block size in bytes (Table II).
inline constexpr size_t kBlockBytes = 128;
/// E2MC symbol width in bits (16-bit symbols give the best ratio per [6]).
inline constexpr unsigned kSymbolBits = 16;
/// Symbols per 128 B block.
inline constexpr size_t kSymbolsPerBlock = kBlockBytes * 8 / kSymbolBits;  // 64
/// Default memory access granularity for GDDR5: 32-bit bus x burst 8.
inline constexpr size_t kDefaultMagBytes = 32;
/// Default SLC lossy threshold: the largest overshoot a block may shed by
/// approximation (the paper's 16 B, half the default MAG).
inline constexpr size_t kDefaultThresholdBytes = 16;

/// A view of a block's bytes with symbol accessors. The codecs take only
/// kBlockBytes views; the type itself holds any size.
class BlockView {
 public:
  BlockView() = default;  ///< empty; lets batch kernels stage views in fixed arrays
  explicit BlockView(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  size_t size() const { return bytes_.size(); }
  std::span<const uint8_t> bytes() const { return bytes_; }

  /// Number of 16-bit symbols in the block.
  size_t num_symbols() const { return bytes_.size() * 8 / kSymbolBits; }

  /// Returns symbol `i` (little-endian 16-bit load, matching how a GPU's
  /// memory pipeline would slice a line into half-words).
  uint16_t symbol(size_t i) const {
    const size_t off = i * 2;
    return static_cast<uint16_t>(bytes_[off] | (uint16_t{bytes_[off + 1]} << 8));
  }

  /// Returns the i-th 32-bit word (little-endian).
  uint32_t word32(size_t i) const {
    const size_t off = i * 4;
    return static_cast<uint32_t>(bytes_[off]) | (uint32_t{bytes_[off + 1]} << 8) |
           (uint32_t{bytes_[off + 2]} << 16) | (uint32_t{bytes_[off + 3]} << 24);
  }

 private:
  std::span<const uint8_t> bytes_;
};

/// Mutable owned block with the same symbol/word accessors.
class Block {
 public:
  Block() : data_(kBlockBytes, 0) {}
  explicit Block(size_t nbytes) : data_(nbytes, 0) {}
  explicit Block(std::vector<uint8_t> data) : data_(std::move(data)) {}
  explicit Block(std::span<const uint8_t> data) : data_(data.begin(), data.end()) {}

  size_t size() const { return data_.size(); }
  std::span<const uint8_t> bytes() const { return data_; }
  /// The bytes, for a decoder that writes a run of them in place.
  uint8_t* data() { return data_.data(); }
  BlockView view() const { return BlockView(data_); }

  uint16_t symbol(size_t i) const { return view().symbol(i); }
  void set_symbol(size_t i, uint16_t v) {
    data_[i * 2] = static_cast<uint8_t>(v & 0xff);
    data_[i * 2 + 1] = static_cast<uint8_t>(v >> 8);
  }

  void set_word32(size_t i, uint32_t v) {
    for (int b = 0; b < 4; ++b) data_[i * 4 + static_cast<size_t>(b)] = static_cast<uint8_t>(v >> (8 * b));
  }
  void set_word64(size_t i, uint64_t v) {
    set_word32(2 * i, static_cast<uint32_t>(v));
    set_word32(2 * i + 1, static_cast<uint32_t>(v >> 32));
  }

  bool operator==(const Block& o) const { return data_ == o.data_; }

 private:
  std::vector<uint8_t> data_;
};

/// Rounds `bits` up to the next multiple of `mag_bytes` (in bits). This is
/// the quantity DRAM actually transfers for a compressed block — the basis of
/// the paper's "effective" compression ratio. `mag_bytes` is 0 (no rounding)
/// or a power of two, as every MAG check_mag_bytes accepts is (a divisor of
/// 128 B), so the rounding is shifts.
inline size_t round_up_to_mag_bits(size_t bits, size_t mag_bytes) {
  if (mag_bytes == 0) return bits;
  assert(std::has_single_bit(mag_bytes));
  const unsigned shift = static_cast<unsigned>(std::countr_zero(mag_bytes)) + 3;
  return (bits + (size_t{1} << shift) - 1) >> shift << shift;
}

/// Number of MAG-sized bursts needed for `bits` of compressed payload
/// (minimum one burst; capped at the kBlockBytes / mag of a raw block).
/// `mag_bytes` is a power of two, as for round_up_to_mag_bits.
inline size_t bursts_for_bits(size_t bits, size_t mag_bytes) {
  assert(std::has_single_bit(mag_bytes));
  const unsigned shift = static_cast<unsigned>(std::countr_zero(mag_bytes));
  const size_t bursts = (bits + (size_t{8} << shift) - 1) >> (shift + 3);
  return std::min(std::max<size_t>(bursts, 1), kBlockBytes >> shift);
}

/// Throw std::invalid_argument, the message prefixed with `who`, unless
/// `mag_bytes` is positive and divides kBlockBytes (codec constructors,
/// CodecServer::open_stream), or unless `block_bytes` is kBlockBytes (every
/// entry point that sizes, encodes or decodes a block: the codecs know one
/// geometry). The block check runs once per block in the batch kernels, so
/// it is inline and only its throw is out of line.
void check_mag_bytes(size_t mag_bytes, const char* who);
[[noreturn]] void throw_bad_block_bytes(size_t block_bytes, const char* who);
inline void check_block_bytes(size_t block_bytes, const char* who) {
  if (block_bytes != kBlockBytes) throw_bad_block_bytes(block_bytes, who);
}

/// Bytes above the highest multiple of MAG <= size (the paper's Fig. 2
/// x-axis). A size that is an exact multiple returns 0.
size_t bytes_above_mag(size_t size_bytes, size_t mag_bytes);

/// Slices a flat buffer into consecutive 128 B blocks (the tail is
/// zero-padded into a final full block when `pad_tail` is true). Throws
/// std::invalid_argument if `block_bytes` is 0.
std::vector<Block> to_blocks(std::span<const uint8_t> data, size_t block_bytes = kBlockBytes,
                             bool pad_tail = true);

/// Views over a range of owned blocks, index-aligned — the argument the
/// batch codec kernels take. The storage behind `blocks` must outlive the
/// returned views.
std::vector<BlockView> to_views(std::span<const Block> blocks);

}  // namespace slc
