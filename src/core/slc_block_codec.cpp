#include "core/slc_block_codec.h"

#include <algorithm>
#include <array>

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

SlcBlockCodec::SlcBlockCodec(std::shared_ptr<const E2mcCompressor> lossless, SlcConfig cfg)
    : lossless_(lossless),
      cfg_(cfg),
      codec_(lossless, cfg),
      codec_lossless_only_(lossless, [cfg] {
        SlcConfig c = cfg;
        c.threshold_bytes = 0;
        return c;
      }()) {}

const SlcCodec& SlcBlockCodec::codec_for(bool safe_to_approx, size_t threshold_bytes) const {
  if (!safe_to_approx || threshold_bytes == 0) return codec_lossless_only_;
  // The effective budget is min(region threshold, config threshold); at or
  // above the config the configured codec already applies.
  if (threshold_bytes >= cfg_.threshold_bytes) return codec_;
  MutexLock lk(tight_mutex_);
  std::unique_ptr<const SlcCodec>& slot = tight_codecs_[threshold_bytes];
  if (!slot) {
    SlcConfig c = cfg_;
    c.threshold_bytes = threshold_bytes;
    slot = std::make_unique<const SlcCodec>(lossless_, c);
  }
  return *slot;
}

void SlcBlockCodec::process_batch(std::span<const BlockView> blocks, bool safe_to_approx,
                                  size_t threshold_bytes, BlockCodecResult* out) const {
  const SlcCodec& codec = codec_for(safe_to_approx, threshold_bytes);
  // One probe chunk at a time, so the staged decisions live on the stack.
  constexpr size_t kChunk = SlcCodec::kProbeChunk;
  std::array<SlcCodec::Decision, kChunk> ds;
  std::array<SlcCodec::CacheOutcome, kChunk> ocs;
  for (size_t base = 0; base < blocks.size(); base += kChunk) {
    const size_t n = std::min(kChunk, blocks.size() - base);
    codec.decide_batch(blocks.subspan(base, n), ds.data(), ocs.data());
    for (size_t i = 0; i < n; ++i)
      out[base + i] = make_result(codec, blocks[base + i], ds[i], ocs[i]);
  }
}

}  // namespace slc
