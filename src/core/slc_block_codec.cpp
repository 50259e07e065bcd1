#include "core/slc_block_codec.h"

#include <algorithm>
#include <array>

#include "compress/codec_registry.h"

namespace slc {

namespace {

/// Maps one mode decision onto the policy result. Only lossy blocks change,
/// and their contents come straight from the decision (window re-fill), so
/// no payload is built either way.
BlockCodecResult make_result(const SlcCodec& codec, BlockView block, const SlcCodec::Decision& d,
                             const SlcCodec::CacheOutcome& oc) {
  const SlcEncodeInfo& info = d.info;
  BlockCodecResult r;
  r.bursts = info.bursts;
  r.lossless_bits = info.lossless_bits;
  r.final_bits = info.final_bits;
  r.lossy = info.lossy;
  r.stored_uncompressed = info.stored_uncompressed;
  r.truncated_symbols = info.truncated_symbols;
  r.cache = oc;
  if (info.lossy) r.decoded = codec.approx_decode(block, d);
  return r;
}

}  // namespace

void SlcBlockCodec::process_batch(std::span<const BlockView> blocks, bool safe_to_approx,
                                  size_t threshold_bytes, BlockCodecResult* out) const {
  const size_t threshold =
      safe_to_approx ? std::min(threshold_bytes, codec_->config().threshold_bytes) : 0;
  // One probe chunk at a time, so the staged decisions live on the stack.
  constexpr size_t kChunk = SlcCodec::kProbeChunk;
  std::array<SlcCodec::Decision, kChunk> ds;
  std::array<SlcCodec::CacheOutcome, kChunk> ocs;
  for (size_t base = 0; base < blocks.size(); base += kChunk) {
    const size_t n = std::min(kChunk, blocks.size() - base);
    codec_->decide_batch(blocks.subspan(base, n), threshold, ds.data(), ocs.data());
    for (size_t i = 0; i < n; ++i)
      out[base + i] = make_result(*codec_, blocks[base + i], ds[i], ocs[i]);
  }
}

namespace {

std::shared_ptr<const SlcCodec> make_slc(const CodecOptions& opts, SlcVariant variant) {
  SlcConfig cfg;
  cfg.mag_bytes = opts.mag_bytes;
  cfg.threshold_bytes = opts.threshold_bytes;
  cfg.variant = variant;
  cfg.cache = opts.fingerprint_cache;
  return std::make_shared<SlcCodec>(
      opts.trained_e2mc ? opts.trained_e2mc : E2mcCompressor::train(opts.training_data, opts.e2mc),
      cfg);
}

CodecInfo tslc_info(SlcVariant variant, int order, std::string scheme, std::string paper) {
  CodecInfo info;
  info.name = to_string(variant);
  info.scheme = std::move(scheme);
  info.paper = std::move(paper);
  info.order = order;
  info.lossy = true;
  info.needs_training = true;
  info.compress_latency = SlcCodec::kCompressLatency;
  info.decompress_latency = SlcCodec::kDecompressLatency;
  info.make = [variant](const CodecOptions& opts) -> std::shared_ptr<const Compressor> {
    return make_slc(opts, variant);
  };
  info.make_block_codec =
      [variant](const CodecOptions& opts) -> std::shared_ptr<const BlockCodec> {
    return std::make_shared<SlcBlockCodec>(make_slc(opts, variant));
  };
  return info;
}

const CodecRegistrar tslc_simp_registrar(
    tslc_info(SlcVariant::kSimp, 5, "SLC over E2MC, truncated symbols decode to zero",
              "paper Sec. III / Sec. V (TSLC-SIMP)"));
const CodecRegistrar tslc_pred_registrar(
    tslc_info(SlcVariant::kPred, 6, "SLC over E2MC, value-similarity prediction",
              "paper Sec. III-E / Sec. V (TSLC-PRED)"));
const CodecRegistrar tslc_opt_registrar(
    tslc_info(SlcVariant::kOpt, 7, "SLC over E2MC, prediction + extra tree nodes",
              "paper Sec. III-F / Sec. V (TSLC-OPT)"));

}  // namespace

}  // namespace slc
