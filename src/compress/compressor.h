// Common interface for block compressors (BDI, FPC, C-PACK, E2MC, Huffman,
// and SlcCodec's TSLC-*) plus the raw/effective compression-ratio bookkeeping
// from the paper.
//
// All schemes operate on one 128 B memory block at a time and report an exact
// compressed size in bits. The *raw* ratio divides original bits by these
// exact bits; the *effective* ratio first rounds the compressed size up to a
// multiple of the memory access granularity (MAG), because DRAM can only
// transfer whole bursts (Section I of the paper).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/block.h"
#include "common/stats.h"

namespace slc {

/// One compressed memory block. `payload` holds the bit-packed stream
/// (only meaningful when `is_compressed`); `bit_size` is the exact size the
/// scheme reports, including any per-block header the scheme requires.
struct CompressedBlock {
  std::vector<uint8_t> payload;
  size_t bit_size = 0;
  bool is_compressed = false;

  size_t byte_size() const { return (bit_size + 7) / 8; }
};

/// Size-only outcome of compressing one block — everything the ratio studies
/// and the timing simulator need, without materializing a payload. For
/// lossless schemes `lossless_bits == bit_size` and the lossy fields stay
/// zero; SlcCodec fills all fields from the Fig. 4 mode decision.
struct BlockAnalysis {
  size_t bit_size = 0;          ///< stored size in bits (raw size if uncompressed)
  bool is_compressed = false;
  bool lossy = false;           ///< symbols were approximated (SLC only)
  size_t lossless_bits = 0;     ///< size before any truncation
  size_t truncated_symbols = 0; ///< approximated symbols (SLC only)

  /// Fingerprint-memo outcome for this block. The decision fields above are
  /// identical either way — it only feeds hit-rate accounting
  /// (CacheCounters), never determinism checks.
  CacheOutcome cache;
};

/// Abstract block compressor. A scheme implements the two batch kernels and
/// decompress(); analyze() and compress() are a span of 1 through the
/// kernels, so each scheme has exactly one encode path and one size path.
/// Every entry point takes kBlockBytes blocks and throws
/// std::invalid_argument for any other size.
class Compressor {
 public:
  virtual ~Compressor() = default;

  /// Short identifier used in bench tables ("BDI", "FPC", ...).
  virtual std::string name() const = 0;

  /// One block: compress_batch() over a span of 1. If the scheme cannot beat
  /// the uncompressed size the result is uncompressed (is_compressed = false,
  /// bit_size = block bits, payload = the block's bytes).
  virtual CompressedBlock compress(BlockView block) const;

  /// Exact inverse of compress(). `block_bytes` is the original block size,
  /// which is kBlockBytes; any other size throws std::invalid_argument.
  virtual Block decompress(const CompressedBlock& cb, size_t block_bytes) const = 0;

  /// One block: analyze_batch() over a span of 1 — exactly the sizes
  /// compress() reports, without building the bit stream.
  virtual BlockAnalysis analyze(BlockView block) const;

  // --- batch kernels ---------------------------------------------------------
  // The only encode and size paths of a scheme. The CodecEngine's shards, the
  // CodecServer's coalesced batches and the per-block wrappers above all call
  // these; results go into index-aligned caller slots (`out[i]` belongs to
  // `blocks[i]`). A kernel must not depend on how a stream is split into
  // spans (pinned by tests/test_batch_kernels.cpp; the lossless schemes are
  // also checked against the reference loops in tests/codec_reference.h) and
  // must keep all scratch in the call frame: a Compressor stays immutable
  // after construction, so concurrent shards of one batch may run the kernel
  // on disjoint ranges.

  /// Size-only batch kernel: fills out[0..blocks.size()).
  virtual void analyze_batch(std::span<const BlockView> blocks, BlockAnalysis* out) const = 0;
  /// Full-payload batch kernel: fills out[0..blocks.size()).
  virtual void compress_batch(std::span<const BlockView> blocks, CompressedBlock* out) const = 0;

  /// Owned-block convenience (bench and test entry point): materializes the
  /// views and forwards to the virtual kernel above.
  std::vector<CompressedBlock> compress_batch(std::span<const Block> blocks) const;
};

/// Accumulates raw and effective compression ratios over a stream of blocks
/// (per benchmark in Fig. 1). Effective size is the compressed size rounded
/// up to a whole number of MAG bursts, floored at one burst and capped at the
/// uncompressed block size. The MAG is a power of two (round_up_to_mag_bits).
class RatioAccumulator {
 public:
  explicit RatioAccumulator(size_t mag_bytes = kDefaultMagBytes) : mag_bytes_(mag_bytes) {}

  /// Inline: a server batch's completion folds every block through it.
  void add(size_t original_bits, size_t compressed_bits) {
    ++blocks_;
    original_bits_ += original_bits;
    // A scheme never stores more than the raw block (falls back to
    // uncompressed), so clamp for accounting.
    const size_t raw = std::min(compressed_bits, original_bits);
    raw_bits_ += raw;
    // Effective size: whole bursts, at least one, at most the raw block.
    effective_bits_ +=
        std::min(std::max(round_up_to_mag_bits(raw, mag_bytes_), mag_bytes_ * 8), original_bits);
  }

  /// Folds another accumulator (same MAG) into this one. All counters are
  /// integers, so merging is exact and order-independent — the property the
  /// CodecEngine relies on for thread-count-invariant results.
  void merge(const RatioAccumulator& other);

  double raw_ratio() const;
  double effective_ratio() const;
  size_t blocks() const { return blocks_; }
  size_t mag_bytes() const { return mag_bytes_; }

 private:
  size_t mag_bytes_;
  size_t blocks_ = 0;
  uint64_t original_bits_ = 0;
  uint64_t raw_bits_ = 0;
  uint64_t effective_bits_ = 0;
};

}  // namespace slc
