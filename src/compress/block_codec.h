// BlockCodec: the memory-controller compression policy applied to every
// block that crosses the DRAM pin boundary.
//
// The interface and the scheme-agnostic policies live here in the compress
// layer; the paper's selective lossy policy (SlcBlockCodec) lives in
// core/slc_block_codec.h. Policies are normally constructed by name through
// CodecRegistry::create_block_codec().
//   RawBlockCodec      — no compression (every block costs all bursts)
//   LosslessBlockCodec — any lossless Compressor (E2MC baseline, BDI, ...)
// process_batch() returns the burst counts (timing) and, for the blocks a
// lossy codec approximated, the contents the GPU will later observe
// (functional). It is the one kernel each policy implements; process() is a
// span of 1 through it.
#pragma once

#include <memory>
#include <optional>
#include <span>

#include "compress/compressor.h"

namespace slc {

/// Result of pushing one block through the memory-controller codec.
struct BlockCodecResult {
  size_t bursts = 0;          ///< MAG bursts this block costs in DRAM
  size_t lossless_bits = 0;   ///< compressed size before any truncation
  size_t final_bits = 0;      ///< stored size
  bool lossy = false;         ///< true if symbols were approximated
  bool stored_uncompressed = false;
  size_t truncated_symbols = 0;
  /// The block as later reads will observe it. Set exactly when `lossy`:
  /// every other block reads back as its own input, so no copy is made.
  std::optional<Block> decoded;

  /// Fingerprint-memo outcome (see BlockAnalysis): hit-rate accounting only;
  /// every decision field above is cache-invariant.
  CacheOutcome cache;
};

class BlockCodec {
 public:
  virtual ~BlockCodec() = default;

  /// Sizes every block of the span and, for each block the policy
  /// approximates, returns the approximated contents in `decoded` (left
  /// empty otherwise); out[i] belongs to blocks[i]. `safe_to_approx` and
  /// `threshold_bytes` come from the region's extended-cudaMalloc annotation
  /// and apply to the whole span — the region-commit shape, where every
  /// block shares the region's annotation; codecs without a lossy mode
  /// ignore them. Results must not depend on how a stream is split into
  /// spans (pinned by tests/test_batch_kernels.cpp), and scratch must stay
  /// in the call frame: a BlockCodec stays immutable after construction, so
  /// concurrent CodecEngine shards may run the kernel on disjoint ranges.
  virtual void process_batch(std::span<const BlockView> blocks, bool safe_to_approx,
                             size_t threshold_bytes, BlockCodecResult* out) const = 0;

  /// One block: process_batch() over a span of 1.
  virtual BlockCodecResult process(BlockView block, bool safe_to_approx,
                                   size_t threshold_bytes) const;

  virtual size_t mag_bytes() const = 0;
  virtual std::string name() const = 0;
};

/// Uncompressed baseline: every block costs max bursts, contents unchanged.
/// Both policies throw std::invalid_argument unless `mag_bytes` is positive
/// and divides kBlockBytes, and process_batch() throws it for a block that
/// is not kBlockBytes.
class RawBlockCodec final : public BlockCodec {
 public:
  explicit RawBlockCodec(size_t mag_bytes = kDefaultMagBytes);
  void process_batch(std::span<const BlockView> blocks, bool safe_to_approx,
                     size_t threshold_bytes, BlockCodecResult* out) const override;
  size_t mag_bytes() const override { return mag_; }
  std::string name() const override { return "RAW"; }

 private:
  size_t mag_;
};

/// Lossless compression through any Compressor (contents never change).
class LosslessBlockCodec final : public BlockCodec {
 public:
  LosslessBlockCodec(std::shared_ptr<const Compressor> comp,
                     size_t mag_bytes = kDefaultMagBytes);
  /// Delegates the size pass to the compressor's analyze_batch kernel (the
  /// scheme's only size path), one chunk of blocks at a time, so region
  /// commits run at batch speed.
  void process_batch(std::span<const BlockView> blocks, bool safe_to_approx,
                     size_t threshold_bytes, BlockCodecResult* out) const override;
  size_t mag_bytes() const override { return mag_; }
  std::string name() const override { return comp_->name(); }

 private:
  std::shared_ptr<const Compressor> comp_;
  size_t mag_;
};

}  // namespace slc
