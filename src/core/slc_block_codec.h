// SlcBlockCodec: the paper's selective lossy codec as a memory-controller
// BlockCodec policy over one SlcCodec. Unsafe regions are forced down the
// lossless path (threshold 0); safe regions decide at min(region threshold,
// codec threshold). A region allocated without a threshold has no cap
// (SIZE_MAX), so it runs at the codec's threshold.
//
// Constructed by name through CodecRegistry::create_block_codec("TSLC-*").
#pragma once

#include <memory>

#include "compress/block_codec.h"
#include "core/slc_codec.h"

namespace slc {

class SlcBlockCodec final : public BlockCodec {
 public:
  explicit SlcBlockCodec(std::shared_ptr<const SlcCodec> codec) : codec_(std::move(codec)) {}
  /// Commit kernel, one SlcCodec::kProbeChunk chunk at a time: one
  /// SlcCodec::decide_batch per chunk at the region's effective threshold
  /// (memo stage, staged E2MC length probe, per-block Fig. 4 decision), then
  /// the approximated contents (SlcCodec::approx_decode) only for the blocks
  /// decided lossy.
  void process_batch(std::span<const BlockView> blocks, bool safe_to_approx,
                     size_t threshold_bytes, BlockCodecResult* out) const override;
  size_t mag_bytes() const override { return codec_->config().mag_bytes; }
  std::string name() const override { return codec_->name(); }

 private:
  std::shared_ptr<const SlcCodec> codec_;
};

}  // namespace slc
