#include "core/slc_compressor.h"

#include <algorithm>
#include <array>

#include "compress/codec_registry.h"
#include "core/slc_block_codec.h"

namespace slc {

namespace {

/// Field by field into the caller's slot: a BlockAnalysis built aside and
/// copied in would be read back with loads wider than the stores that built
/// it, which cannot be forwarded.
void to_analysis(const SlcEncodeInfo& info, const SlcCodec::CacheOutcome& oc, BlockAnalysis& a) {
  a.bit_size = info.final_bits;
  a.is_compressed = !info.stored_uncompressed;
  a.lossy = info.lossy;
  a.lossless_bits = info.lossless_bits;
  a.truncated_symbols = info.truncated_symbols;
  a.cache = oc;
}

}  // namespace

void SlcCompressor::analyze_batch(std::span<const BlockView> blocks, BlockAnalysis* out) const {
  // One probe chunk at a time, so the staged results live on the stack.
  constexpr size_t kChunk = SlcCodec::kProbeChunk;
  std::array<SlcCodec::Decision, kChunk> ds;
  std::array<SlcCodec::CacheOutcome, kChunk> ocs;
  for (size_t base = 0; base < blocks.size(); base += kChunk) {
    const size_t n = std::min(kChunk, blocks.size() - base);
    codec_.decide_batch(blocks.subspan(base, n), ds.data(), ocs.data());
    for (size_t i = 0; i < n; ++i) to_analysis(ds[i].info, ocs[i], out[base + i]);
  }
}

namespace {

std::shared_ptr<const E2mcCompressor> lossless_from(const CodecOptions& opts) {
  if (opts.trained_e2mc) return opts.trained_e2mc;
  return E2mcCompressor::train(opts.training_data, opts.e2mc);
}

SlcConfig slc_config_from(const CodecOptions& opts, SlcVariant variant) {
  SlcConfig cfg;
  cfg.mag_bytes = opts.mag_bytes;
  cfg.threshold_bytes = opts.threshold_bytes;
  cfg.variant = variant;
  cfg.cache = opts.fingerprint_cache;
  return cfg;
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
    return std::make_shared<SlcCompressor>(lossless_from(opts), slc_config_from(opts, variant));
  };
  info.make_block_codec =
      [variant](const CodecOptions& opts) -> std::shared_ptr<const BlockCodec> {
    return std::make_shared<SlcBlockCodec>(lossless_from(opts), slc_config_from(opts, variant));
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
