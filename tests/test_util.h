// Shared fixtures for the registry/engine tests: deterministic
// value-similar test data, the codec data streams, the fingerprint-cache
// fuzz corpus generator, default codec options, field-by-field codec result
// comparisons, kernel sweeps (direct and through one engine job), and
// SlcCodec spans of 1.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/block.h"
#include "common/rng.h"
#include "compress/codec_registry.h"
#include "compress/simd_dispatch.h"
#include "core/slc_codec.h"
#include "engine/codec_engine.h"
#include "server/codec_server.h"

namespace slc::test {

// Quantized value-similar floats (grid 0.25): the data shape real benchmark
// inputs have, keeping both float halfwords inside the code table.
inline std::vector<uint8_t> quantized_walk(uint64_t seed, size_t blocks) {
  Rng rng(seed);
  std::vector<uint8_t> data;
  double walk = 10.0;
  for (size_t i = 0; i < blocks * kBlockBytes / 4; ++i) {
    walk += rng.uniform(-1.0, 1.0);
    const float v = static_cast<float>(std::round(walk * 4.0) / 4.0);
    uint32_t bits;
    __builtin_memcpy(&bits, &v, 4);
    for (int k = 0; k < 4; ++k) data.push_back(static_cast<uint8_t>(bits >> (8 * k)));
  }
  return data;
}

// --- fuzz corpus ------------------------------------------------------------

/// Shape of one dedup_corpus() stream. Per block the generator draws, in
/// order: duplicate (verbatim repeat of an earlier block), near-duplicate
/// (an earlier block with exactly one byte changed), zero page; whatever
/// remains becomes fresh content.
struct CorpusConfig {
  size_t blocks = 256;
  double dup_fraction = 0.0;   ///< verbatim repeats of earlier blocks
  double flip_fraction = 0.0;  ///< earlier blocks with exactly one byte changed
  double zero_fraction = 0.0;  ///< all-zero pages (cleared memory)
  uint64_t seed = 1;
};

/// Seeded block stream with controlled repetition — the fingerprint-cache
/// differential suite's input. Fresh blocks alternate raw random bytes and
/// quantized value-similar floats (the two decision-path-relevant shapes);
/// duplicates exercise the hit path, one-byte near-duplicates pin that
/// adjacent contents never alias a fingerprint, zero pages model the
/// most-repeated real-world block.
inline std::vector<Block> dedup_corpus(const CorpusConfig& cfg) {
  Rng rng(cfg.seed);
  std::vector<Block> out;
  out.reserve(cfg.blocks);
  double walk = 10.0;
  for (size_t i = 0; i < cfg.blocks; ++i) {
    if (!out.empty() && rng.chance(cfg.dup_fraction)) {
      out.push_back(out[rng.next_below(out.size())]);
      continue;
    }
    if (!out.empty() && rng.chance(cfg.flip_fraction)) {
      const auto src = out[rng.next_below(out.size())].bytes();
      std::vector<uint8_t> bytes(src.begin(), src.end());
      bytes[rng.next_below(bytes.size())] ^= static_cast<uint8_t>(1 + rng.next_below(255));
      out.emplace_back(std::move(bytes));
      continue;
    }
    if (rng.chance(cfg.zero_fraction)) {
      out.emplace_back();
      continue;
    }
    if (i % 2 == 0) {
      std::vector<uint8_t> bytes(kBlockBytes);
      for (uint8_t& byte : bytes) byte = static_cast<uint8_t>(rng.next());
      out.emplace_back(std::move(bytes));
      continue;
    }
    Block b;
    for (size_t w = 0; w < kBlockBytes / 4; ++w) {
      walk += rng.uniform(-1.0, 1.0);
      const float v = static_cast<float>(std::round(walk * 4.0) / 4.0);
      uint32_t bits;
      __builtin_memcpy(&bits, &v, 4);
      b.set_word32(w, bits);
    }
    out.push_back(std::move(b));
  }
  return out;
}

/// Flattens a block stream into one byte buffer (region images, server
/// submits).
inline std::vector<uint8_t> corpus_bytes(std::span<const Block> blocks) {
  std::vector<uint8_t> out;
  out.reserve(blocks.size() * kBlockBytes);
  for (const Block& b : blocks) out.insert(out.end(), b.bytes().begin(), b.bytes().end());
  return out;
}

/// A flat stream of `bytes` bytes of one kind of codec test data:
///   "random"        uniform bytes;
///   "all-zero";
///   "denormal"      mostly denormal floats (zero exponent, random mantissa
///                   and sign) with zeros mixed in — FPC's sign-extension
///                   classes and BDI's near-zero immediates;
///   "value-similar" quantized_walk();
///   "repeat-delta"  repeated 64-bit values and small deltas off them
///                   (BDI's and C-PACK's sweet spots);
///   "zero-runs"     runs of 1-11 zero words between nonzero words, so FPC's
///                   zero runs start at every word offset and cross every
///                   8-word code and 128-word (512 B) boundary.
inline std::vector<uint8_t> data_stream(std::string_view kind, size_t bytes, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out;
  const auto put = [&out](uint64_t v, int width) {
    for (int k = 0; k < width; ++k) out.push_back(static_cast<uint8_t>(v >> (8 * k)));
  };
  if (kind == "random") {
    while (out.size() < bytes) put(rng.next_below(256), 1);
  } else if (kind == "all-zero") {
    out.assign(bytes, 0);
  } else if (kind == "denormal") {
    while (out.size() < bytes) {
      uint32_t bits = 0;
      if (!rng.chance(0.25)) {
        bits = static_cast<uint32_t>(rng.next()) & 0x007FFFFFu;
        if (rng.chance(0.5)) bits |= 0x80000000u;
      }
      put(bits, 4);
    }
  } else if (kind == "value-similar") {
    out = quantized_walk(seed, bytes / kBlockBytes + 1);
  } else if (kind == "repeat-delta") {
    uint64_t base = 0;
    for (size_t i = 0; out.size() < bytes; ++i) {
      if (i % 16 == 0) base = rng.next();
      put(rng.chance(0.5) ? base : base + rng.next_below(200), 8);
    }
  } else if (kind == "zero-runs") {
    for (size_t i = 0; out.size() < bytes; ++i) {
      put(rng.next() | 1, 4);
      for (size_t z = 0; z <= i % 11; ++z) put(0, 4);
    }
  } else {
    ADD_FAILURE() << "unknown data stream " << kind;
  }
  out.resize(bytes);
  return out;
}

inline CodecOptions test_options(std::span<const uint8_t> training) {
  CodecOptions opts;
  opts.mag_bytes = 32;
  opts.threshold_bytes = 16;
  opts.training_data = training;
  return opts;
}

// --- codec results ------------------------------------------------------------

inline void expect_analysis_eq(const BlockAnalysis& want, const BlockAnalysis& got,
                               const std::string& what) {
  EXPECT_EQ(want.bit_size, got.bit_size) << what;
  EXPECT_EQ(want.is_compressed, got.is_compressed) << what;
  EXPECT_EQ(want.lossy, got.lossy) << what;
  EXPECT_EQ(want.lossless_bits, got.lossless_bits) << what;
  EXPECT_EQ(want.truncated_symbols, got.truncated_symbols) << what;
}

inline void expect_payload_eq(const CompressedBlock& want, const CompressedBlock& got,
                              const std::string& what) {
  EXPECT_EQ(want.bit_size, got.bit_size) << what;
  EXPECT_EQ(want.is_compressed, got.is_compressed) << what;
  EXPECT_EQ(want.payload, got.payload) << what;
}

// --- kernel sweeps ------------------------------------------------------------

/// Starts one engine job over `blocks`: each shard hands its slice to
/// `kernel(views, out)` with the shard's index-aligned slots of `out`
/// (blocks.size() of them). `blocks`, `out` and the kernel's captures must
/// outlive the wait.
template <typename Out, typename Kernel>
CodecFuture submit_sweep(CodecEngine& engine, std::span<const Block> blocks, Out* out,
                         Kernel kernel) {
  return engine.submit(blocks.size(), [blocks, out, kernel](size_t begin, size_t end, unsigned) {
    kernel(to_views(blocks.subspan(begin, end - begin)), out + begin);
  });
}

/// Folds per-block analyses into a StreamAnalysis at `mag_bytes`, in block
/// order on the calling thread (each block counts kBlockBytes * 8 original
/// bits). Takes the vector over as the result's `blocks`.
inline StreamAnalysis fold_analyses(std::vector<BlockAnalysis> blocks,
                                    size_t mag_bytes = kDefaultMagBytes) {
  StreamAnalysis out;
  out.ratios = RatioAccumulator(mag_bytes);
  for (const BlockAnalysis& a : blocks) {
    out.ratios.add(kBlockBytes * 8, a.bit_size);
    out.lossy_blocks += a.lossy ? 1 : 0;
    out.truncated_symbols += a.truncated_symbols;
    out.cache.record(a.cache);
  }
  out.blocks = std::move(blocks);
  return out;
}

/// comp.analyze_batch over `blocks` on the calling thread, folded — the
/// engine-free oracle.
inline StreamAnalysis direct_analyze(const Compressor& comp, std::span<const Block> blocks,
                                     size_t mag_bytes = kDefaultMagBytes) {
  std::vector<BlockAnalysis> out(blocks.size());
  comp.analyze_batch(to_views(blocks), out.data());
  return fold_analyses(std::move(out), mag_bytes);
}

/// comp.analyze_batch over `blocks` sharded by one engine job, folded on the
/// calling thread after the wait.
inline StreamAnalysis engine_analyze(CodecEngine& engine, const Compressor& comp,
                                     std::span<const Block> blocks,
                                     size_t mag_bytes = kDefaultMagBytes) {
  std::vector<BlockAnalysis> out(blocks.size());
  submit_sweep(engine, blocks, out.data(), [&comp](std::span<const BlockView> views,
                                                   BlockAnalysis* dst) {
    comp.analyze_batch(views, dst);
  }).wait();
  return fold_analyses(std::move(out), mag_bytes);
}

/// comp.compress_batch over `blocks` sharded by one engine job.
inline std::vector<CompressedBlock> engine_compress(CodecEngine& engine, const Compressor& comp,
                                                    std::span<const Block> blocks) {
  std::vector<CompressedBlock> out(blocks.size());
  submit_sweep(engine, blocks, out.data(), [&comp](std::span<const BlockView> views,
                                                   CompressedBlock* dst) {
    comp.compress_batch(views, dst);
  }).wait();
  return out;
}

/// Restores runtime SIMD dispatch when it goes out of scope, even when an
/// ASSERT bails out of the test body.
struct ForceScalarGuard {
  ~ForceScalarGuard() { simd::force_scalar(false); }
};

// --- SlcCodec spans ---------------------------------------------------------

/// SlcCodec::decide_batch at the codec's threshold over the whole span;
/// `oc`, when given, receives the memo outcomes.
inline std::vector<SlcCodec::Decision> decide_all(
    const SlcCodec& codec, std::span<const BlockView> views,
    std::vector<SlcCodec::CacheOutcome>* oc = nullptr) {
  std::vector<SlcCodec::Decision> out(views.size());
  std::vector<SlcCodec::CacheOutcome> ocs(views.size());
  codec.decide_batch(views, codec.config().threshold_bytes, out.data(), ocs.data());
  if (oc != nullptr) *oc = std::move(ocs);
  return out;
}

/// SlcCodec::decide_batch at the codec's threshold over a span of 1.
inline SlcCodec::Decision decide_one(const SlcCodec& codec, BlockView view,
                                     SlcCodec::CacheOutcome* oc = nullptr) {
  SlcCodec::Decision d;
  SlcCodec::CacheOutcome outcome;
  codec.decide_batch(std::span<const BlockView>(&view, 1), codec.config().threshold_bytes, &d,
                     &outcome);
  if (oc != nullptr) *oc = outcome;
  return d;
}

/// One block through SlcCodec: the payload compress_batch writes and the
/// bookkeeping of the decision decide_batch takes for it.
struct SlcCompressed {
  CompressedBlock data;
  SlcEncodeInfo info;
};

/// SlcCodec::compress_batch and decide_batch over a span of 1.
inline SlcCompressed compress_one(const SlcCodec& codec, BlockView view) {
  SlcCompressed out;
  codec.compress_batch(std::span<const BlockView>(&view, 1), &out.data);
  out.info = decide_one(codec, view).info;
  return out;
}

}  // namespace slc::test
