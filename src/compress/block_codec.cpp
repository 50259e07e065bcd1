#include "compress/block_codec.h"

#include "compress/codec_registry.h"

namespace slc {

void BlockCodec::process_batch(std::span<const BlockView> blocks, bool safe_to_approx,
                               size_t threshold_bytes, BlockCodecResult* out) const {
  for (size_t i = 0; i < blocks.size(); ++i)
    out[i] = process(blocks[i], safe_to_approx, threshold_bytes);
}

namespace {

/// The one fixed-cost RAW result, shared by the scalar and batch paths so
/// the two cannot drift.
BlockCodecResult raw_result(BlockView block, size_t mag_bytes) {
  BlockCodecResult r;
  r.bursts = block.size() / mag_bytes;
  r.lossless_bits = block.size() * 8;
  r.final_bits = block.size() * 8;
  r.stored_uncompressed = true;
  return r;
}

}  // namespace

BlockCodecResult RawBlockCodec::process(BlockView block, bool, size_t) const {
  return raw_result(block, mag_bytes());
}

void RawBlockCodec::process_batch(std::span<const BlockView> blocks, bool, size_t,
                                  BlockCodecResult* out) const {
  // No per-block decision to make: fill the fixed-cost results without the
  // virtual dispatch per block.
  for (size_t i = 0; i < blocks.size(); ++i) out[i] = raw_result(blocks[i], mag_bytes());
}

namespace {

/// Maps one lossless size analysis onto the policy result (shared by the
/// scalar and batch paths so the two cannot drift).
BlockCodecResult lossless_result(const BlockAnalysis& a, BlockView block, size_t mag) {
  BlockCodecResult r;
  r.lossless_bits = a.bit_size;
  r.final_bits = a.bit_size;
  r.stored_uncompressed = !a.is_compressed || a.bit_size >= block.size() * 8;
  r.bursts = bursts_for_bits(a.bit_size, mag, block.size());
  return r;
}

}  // namespace

BlockCodecResult LosslessBlockCodec::process(BlockView block, bool, size_t) const {
  // Size-only path: no payload is needed for a lossless codec (the roundtrip
  // identity is enforced separately by the unit tests).
  return lossless_result(comp_->analyze(block), block, mag_);
}

void LosslessBlockCodec::process_batch(std::span<const BlockView> blocks, bool, size_t,
                                       BlockCodecResult* out) const {
  // One batched size probe for the whole span, then the per-block mapping.
  std::vector<BlockAnalysis> analyses(blocks.size());
  comp_->analyze_batch(blocks, analyses.data());
  for (size_t i = 0; i < blocks.size(); ++i)
    out[i] = lossless_result(analyses[i], blocks[i], mag_);
}

namespace {
const CodecRegistrar raw_registrar({
    .name = "RAW",
    .scheme = "uncompressed baseline",
    .paper = "baseline configuration (Sec. IV)",
    .order = -1,
    .lossy = false,
    .needs_training = false,
    .compress_latency = 0,
    .decompress_latency = 0,
    .make = nullptr,  // RAW has no Compressor form
    .make_block_codec =
        [](const CodecOptions& opts) -> std::shared_ptr<const BlockCodec> {
      return std::make_shared<RawBlockCodec>(opts.mag_bytes);
    },
});
}  // namespace

}  // namespace slc
