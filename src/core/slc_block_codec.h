// SlcBlockCodec: the paper's selective lossy codec as a memory-controller
// BlockCodec policy. Unsafe regions are forced down the lossless path
// (threshold 0); safe regions use min(region threshold, config threshold).
// A region allocated without a threshold has no cap (SIZE_MAX), so it runs
// at the config threshold.
//
// Constructed by name through CodecRegistry::create_block_codec("TSLC-*").
#pragma once

#include <map>
#include <memory>

#include "common/thread_safety.h"
#include "compress/block_codec.h"
#include "core/slc_codec.h"

namespace slc {

class SlcBlockCodec final : public BlockCodec {
 public:
  /// Throws std::invalid_argument for a MAG SlcCodec rejects.
  SlcBlockCodec(std::shared_ptr<const E2mcCompressor> lossless, SlcConfig cfg);
  /// Commit kernel, one SlcCodec::kProbeChunk chunk at a time: one
  /// SlcCodec::decide_batch per chunk (memo stage, staged E2MC length probe,
  /// per-block Fig. 4 decision), then the approximated contents
  /// (SlcCodec::approx_decode) only for the blocks decided lossy.
  void process_batch(std::span<const BlockView> blocks, bool safe_to_approx,
                     size_t threshold_bytes, BlockCodecResult* out) const override;
  size_t mag_bytes() const override { return cfg_.mag_bytes; }
  std::string name() const override { return to_string(cfg_.variant); }
  const SlcConfig& config() const { return cfg_; }

 private:
  /// The codec a (safe, region threshold) pair runs through: the lossless
  /// one for unsafe/zero-threshold regions, the configured codec when the
  /// region budget is at least the config's, and a cached per-threshold
  /// codec for regions with a tighter budget — built once per distinct
  /// threshold instead of per block.
  const SlcCodec& codec_for(bool safe_to_approx, size_t threshold_bytes) const;

  std::shared_ptr<const E2mcCompressor> lossless_;
  SlcConfig cfg_;
  SlcCodec codec_;
  SlcCodec codec_lossless_only_;  ///< threshold 0, for unsafe regions

  /// Lazily-built codecs for region thresholds tighter than the config.
  /// Entries are never erased, so returned references stay valid past the
  /// lock; the mutex (a leaf lock) only guards concurrent insertion from
  /// CodecEngine workers.
  mutable Mutex tight_mutex_;
  mutable std::map<size_t, std::unique_ptr<const SlcCodec>> tight_codecs_
      SLC_GUARDED_BY(tight_mutex_);
};

}  // namespace slc
