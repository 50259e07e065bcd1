// SlcCompressor: the SLC codec behind the uniform Compressor interface.
//
// This adapter maps SlcCodec's batch decision and payload kernels onto
// compress()/decompress()/analyze() so SLC participates in the
// CodecRegistry, the CodecEngine and every scheme-sweeping bench exactly like
// the lossless schemes. The SLC payload is self-describing (the Fig. 6 header
// carries mode/ss/len), so decompress() needs nothing beyond the
// CompressedBlock.
//
// Note the SLC variants are *lossy*: decompress(compress(b)) may differ from
// b for blocks the Fig. 4 decision truncates. analyze() exposes that through
// BlockAnalysis::lossy/truncated_symbols.
//
// The batch kernels are the only SLC paths: Compressor's analyze() and
// compress() run them over a span of 1.
#pragma once

#include <memory>

#include "core/slc_codec.h"

namespace slc {

class SlcCompressor : public Compressor {
 public:
  SlcCompressor(std::shared_ptr<const E2mcCompressor> lossless, SlcConfig cfg)
      : codec_(std::move(lossless), cfg) {}

  std::string name() const override { return to_string(codec_.config().variant); }
  Block decompress(const CompressedBlock& cb, size_t block_bytes) const override {
    return codec_.decompress(cb, block_bytes);
  }

  /// Batch kernels: analyze_batch runs SlcCodec::decide_batch (memo stage
  /// included) one kProbeChunk chunk at a time, compress_batch runs
  /// SlcCodec::compress_batch (staged length probe + shared payload
  /// scatter), so CodecEngine shards and CodecServer coalesced batches run
  /// the Fig. 4 decision and the payload emission at batch speed.
  using Compressor::compress_batch;
  void analyze_batch(std::span<const BlockView> blocks, BlockAnalysis* out) const override;
  void compress_batch(std::span<const BlockView> blocks, CompressedBlock* out) const override {
    codec_.compress_batch(blocks, out);
  }

  /// The wrapped codec, for consumers that need the SLC-specific API
  /// (encode info, tree selector, header geometry).
  const SlcCodec& codec() const { return codec_; }
  const SlcConfig& config() const { return codec_.config(); }

 private:
  SlcCodec codec_;
};

}  // namespace slc
