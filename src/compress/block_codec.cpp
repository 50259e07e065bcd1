#include "compress/block_codec.h"

#include <algorithm>
#include <array>

#include "compress/codec_registry.h"

namespace slc {

BlockCodecResult BlockCodec::process(BlockView block, bool safe_to_approx,
                                     size_t threshold_bytes) const {
  BlockCodecResult r;
  process_batch(std::span<const BlockView>(&block, 1), safe_to_approx, threshold_bytes, &r);
  return r;
}

RawBlockCodec::RawBlockCodec(size_t mag_bytes) : mag_(mag_bytes) {
  check_mag_bytes(mag_, "RawBlockCodec");
}

void RawBlockCodec::process_batch(std::span<const BlockView> blocks, bool, size_t,
                                  BlockCodecResult* out) const {
  // No per-block decision to make: every block costs all its bursts.
  for (size_t i = 0; i < blocks.size(); ++i) {
    check_block_bytes(blocks[i].size(), "RawBlockCodec");
    out[i] = BlockCodecResult{};
    out[i].bursts = kBlockBytes / mag_;
    out[i].lossless_bits = out[i].final_bits = kBlockBytes * 8;
    out[i].stored_uncompressed = true;
  }
}

LosslessBlockCodec::LosslessBlockCodec(std::shared_ptr<const Compressor> comp, size_t mag_bytes)
    : comp_(std::move(comp)), mag_(mag_bytes) {
  check_mag_bytes(mag_, "LosslessBlockCodec");
}

namespace {

/// Maps one lossless size analysis onto the policy result.
BlockCodecResult lossless_result(const BlockAnalysis& a, size_t mag) {
  BlockCodecResult r;
  r.lossless_bits = a.bit_size;
  r.final_bits = a.bit_size;
  r.stored_uncompressed = !a.is_compressed || a.bit_size >= kBlockBytes * 8;
  r.bursts = bursts_for_bits(a.bit_size, mag);
  return r;
}

}  // namespace

void LosslessBlockCodec::process_batch(std::span<const BlockView> blocks, bool, size_t,
                                       BlockCodecResult* out) const {
  // Size-only (a lossless codec needs no payload): one batched size probe
  // per chunk of SlcCodec::kProbeChunk blocks, the analyses on the stack.
  constexpr size_t kChunk = 64;
  std::array<BlockAnalysis, kChunk> analyses;
  for (size_t base = 0; base < blocks.size(); base += kChunk) {
    const size_t n = std::min(kChunk, blocks.size() - base);
    comp_->analyze_batch(blocks.subspan(base, n), analyses.data());
    for (size_t i = 0; i < n; ++i) out[base + i] = lossless_result(analyses[i], mag_);
  }
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
