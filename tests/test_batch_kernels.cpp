// Batch-kernel split invariance: for every registry-listed codec, the
// analyze_batch/compress_batch kernels must give the same bytes over spans of
// 1 (Compressor::analyze/compress) as over any other batch split — on random,
// all-zero, denormal-heavy, value-similar and repeat/delta data. This is the
// contract that lets the CodecEngine and CodecServer cut a stream into shards
// anywhere; it runs under the ASan+UBSan CI job like the rest of this binary.
// No codec and no BlockCodec policy has a per-block path of its own (one
// block is a span of 1), so correctness against independent oracles lives in
// test_codec_differential.cpp: LosslessMatchesReference checks the lossless
// kernels against the reference encoders in codec_reference.h, and
// DecideMatchesReference checks the SLC decision against ref_decide.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "compress/block_codec.h"
#include "compress/codec_registry.h"
#include "compress/simd_dispatch.h"
#include "test_util.h"

namespace slc {
namespace {

using test::expect_analysis_eq;
using test::expect_payload_eq;

std::vector<Block> random_blocks(size_t n) {
  return to_blocks(test::data_stream("random", n * kBlockBytes, 0xB10CB10Cull));
}

std::vector<Block> zero_blocks(size_t n) {
  return to_blocks(test::data_stream("all-zero", n * kBlockBytes, 0));
}

std::vector<Block> denormal_blocks(size_t n) {
  return to_blocks(test::data_stream("denormal", n * kBlockBytes, 0xDE40A11ull));
}

std::vector<Block> repeat_delta_blocks(size_t n) {
  return to_blocks(test::data_stream("repeat-delta", n * kBlockBytes, 0x4E9EA7ull));
}

// Runs one codec over one data set through every batch split and compares
// against spans of 1.
void check_codec(const Compressor& comp, const std::vector<Block>& blocks,
                 const std::string& label) {
  const std::vector<BlockView> views = to_views(blocks);

  // Spans of 1: Compressor's per-block analyze()/compress().
  std::vector<BlockAnalysis> scalar_a(blocks.size());
  std::vector<CompressedBlock> scalar_c(blocks.size());
  for (size_t i = 0; i < blocks.size(); ++i) {
    scalar_a[i] = comp.analyze(views[i]);
    scalar_c[i] = comp.compress(views[i]);
  }

  // View-based kernels at several split sizes (1 = degenerate batches,
  // 5 = shard boundaries that do not divide the stream, all = one batch).
  for (const size_t split : {size_t{1}, size_t{5}, blocks.size()}) {
    std::vector<BlockAnalysis> batch_a(blocks.size());
    std::vector<CompressedBlock> batch_c(blocks.size());
    for (size_t begin = 0; begin < blocks.size(); begin += split) {
      const size_t len = std::min(split, blocks.size() - begin);
      const std::span<const BlockView> part(views.data() + begin, len);
      comp.analyze_batch(part, batch_a.data() + begin);
      comp.compress_batch(part, batch_c.data() + begin);
    }
    for (size_t i = 0; i < blocks.size(); ++i) {
      const std::string what =
          comp.name() + "/" + label + " block " + std::to_string(i) + " split " +
          std::to_string(split);
      expect_analysis_eq(scalar_a[i], batch_a[i], what);
      expect_payload_eq(scalar_c[i], batch_c[i], what);
    }
  }

  // The owned-block convenience overload forwards to the same kernel.
  const std::vector<CompressedBlock> conv_c = comp.compress_batch(blocks);
  ASSERT_EQ(conv_c.size(), blocks.size());
  for (size_t i = 0; i < blocks.size(); ++i) {
    const std::string what = comp.name() + "/" + label + " block " + std::to_string(i) + " conv";
    expect_payload_eq(scalar_c[i], conv_c[i], what);
  }
}

TEST(BatchKernels, ByteIdenticalToScalarLoopForEveryRegistryCodec) {
  const std::vector<uint8_t> training = test::quantized_walk(7, 64);
  CodecOptions opts = test::test_options(training);
  // Train the shared E2MC model once; the E2MC and TSLC-* factories reuse it.
  opts.trained_e2mc = E2mcCompressor::train(training, opts.e2mc);

  const std::map<std::string, std::vector<Block>> datasets = {
      {"random", random_blocks(48)},
      {"all-zero", zero_blocks(16)},
      {"denormal", denormal_blocks(48)},
      {"value-similar", to_blocks(test::quantized_walk(21, 48))},
      {"repeat-delta", repeat_delta_blocks(48)},
  };

  size_t tested = 0;
  for (const CodecInfo* info : CodecRegistry::instance().entries()) {
    if (!info->make) continue;  // RAW has no Compressor form
    const auto comp = CodecRegistry::instance().create(info->name, opts);
    for (const auto& [label, blocks] : datasets) check_codec(*comp, blocks, label);
    ++tested;
  }
  // The registry must have yielded the five lossless schemes and the TSLC
  // variants.
  EXPECT_GE(tested, 7u);
}

// --- BlockCodec::process_batch ----------------------------------------------
// The memory-controller policies' batch kernel must match the per-block
// scalar process() loop field for field — including the decoded bytes lossy
// SLC blocks mutate — for every registry policy, every (safe, threshold)
// region annotation, and any batch split. This is the contract that lets
// ApproxMemory's commit kernel hand whole engine shards to process_batch.

void expect_result_eq(const BlockCodecResult& scalar, const BlockCodecResult& batch,
                      const std::string& what) {
  EXPECT_EQ(scalar.bursts, batch.bursts) << what;
  EXPECT_EQ(scalar.lossless_bits, batch.lossless_bits) << what;
  EXPECT_EQ(scalar.final_bits, batch.final_bits) << what;
  EXPECT_EQ(scalar.lossy, batch.lossy) << what;
  EXPECT_EQ(scalar.stored_uncompressed, batch.stored_uncompressed) << what;
  EXPECT_EQ(scalar.truncated_symbols, batch.truncated_symbols) << what;
  EXPECT_EQ(scalar.decoded, batch.decoded) << what;
}

void check_block_codec(const BlockCodec& codec, const std::vector<Block>& blocks,
                       bool safe, size_t threshold, const std::string& label) {
  const std::vector<BlockView> views = to_views(blocks);

  // The per-block reference: process(), a span of 1 through the kernel.
  std::vector<BlockCodecResult> scalar(blocks.size());
  for (size_t i = 0; i < blocks.size(); ++i) scalar[i] = codec.process(views[i], safe, threshold);

  for (const size_t split : {size_t{1}, size_t{5}, blocks.size()}) {
    std::vector<BlockCodecResult> batch(blocks.size());
    for (size_t begin = 0; begin < blocks.size(); begin += split) {
      const size_t len = std::min(split, blocks.size() - begin);
      codec.process_batch(std::span<const BlockView>(views.data() + begin, len), safe, threshold,
                          batch.data() + begin);
    }
    for (size_t i = 0; i < blocks.size(); ++i) {
      expect_result_eq(scalar[i], batch[i],
                       codec.name() + "/" + label + " safe=" + std::to_string(safe) +
                           " threshold=" + std::to_string(threshold) + " block " +
                           std::to_string(i) + " split " + std::to_string(split));
    }
  }
}

TEST(BatchKernels, ProcessBatchMatchesScalarForEveryRegistryPolicy) {
  const std::vector<uint8_t> training = test::quantized_walk(7, 64);
  CodecOptions opts = test::test_options(training);
  opts.trained_e2mc = E2mcCompressor::train(training, opts.e2mc);

  const std::map<std::string, std::vector<Block>> datasets = {
      {"random", random_blocks(24)},
      {"all-zero", zero_blocks(8)},
      {"value-similar", to_blocks(test::quantized_walk(21, 48))},
  };
  // Region annotations covering every policy branch: unsafe, safe at the
  // config threshold, tighter than config (the region's own threshold),
  // looser than config (capped at the config's), and a zero threshold
  // (never lossy even when safe).
  const std::vector<std::pair<bool, size_t>> annotations = {
      {false, 16}, {true, 16}, {true, 4}, {true, 64}, {true, 0}};

  size_t lossy_seen = 0;
  for (const CodecInfo* info : CodecRegistry::instance().entries()) {
    const auto codec = CodecRegistry::instance().create_block_codec(info->name, opts);
    for (const auto& [label, blocks] : datasets) {
      for (const auto& [safe, threshold] : annotations) {
        check_block_codec(*codec, blocks, safe, threshold, label);
        if (info->lossy && safe && threshold > 0) {
          for (const Block& b : blocks)
            lossy_seen += codec->process(b.view(), safe, threshold).lossy ? 1 : 0;
        }
      }
    }
  }
  // The sweep must have exercised the lossy materialization path.
  EXPECT_GT(lossy_seen, 0u);
}

// --- SIMD dispatch -----------------------------------------------------------
// The vector kernels behind slc::simd are an implementation detail: pinning
// the scalar sub-kernels (simd::force_scalar, same switch the SLC_FORCE_SCALAR
// env var throws) must not change a single output byte of any codec. On hosts
// without AVX2 both runs take the scalar path and the comparison is trivially
// true — CI also runs this whole binary once with SLC_FORCE_SCALAR=1 so the
// scalar sub-kernels stay covered everywhere.

TEST(BatchKernels, ForceScalarTogglePreservesEveryByte) {
  test::ForceScalarGuard guard;
  const std::vector<uint8_t> training = test::quantized_walk(7, 64);
  CodecOptions opts = test::test_options(training);
  opts.trained_e2mc = E2mcCompressor::train(training, opts.e2mc);

  const std::map<std::string, std::vector<Block>> datasets = {
      {"random", random_blocks(33)},
      {"value-similar", to_blocks(test::quantized_walk(21, 48))},
      {"repeat-delta", repeat_delta_blocks(31)},
  };

  for (const CodecInfo* info : CodecRegistry::instance().entries()) {
    if (!info->make) continue;
    const auto comp = CodecRegistry::instance().create(info->name, opts);
    for (const auto& [label, blocks] : datasets) {
      const std::vector<BlockView> views = to_views(blocks);
      std::vector<BlockAnalysis> a_scalar(blocks.size()), a_simd(blocks.size());
      std::vector<CompressedBlock> c_scalar(blocks.size()), c_simd(blocks.size());

      simd::force_scalar(true);
      ASSERT_EQ(simd::active_level(), simd::Level::kScalar);
      comp->analyze_batch(views, a_scalar.data());
      comp->compress_batch(views, c_scalar.data());

      simd::force_scalar(false);  // back to this host's probed default
      comp->analyze_batch(views, a_simd.data());
      comp->compress_batch(views, c_simd.data());

      for (size_t i = 0; i < blocks.size(); ++i) {
        const std::string what = comp->name() + "/" + label + " block " + std::to_string(i) +
                                 " force-scalar toggle (active=" +
                                 std::string(simd::active_level_name()) + ")";
        expect_analysis_eq(a_scalar[i], a_simd[i], what);
        expect_payload_eq(c_scalar[i], c_simd[i], what);
      }
    }
  }
}

// Batch splits around the kernels' tile widths — 1 (degenerate), 7/9 (around
// the E2MC 8-symbol gather), 15/17 (around BDI's 16-word tiles), 31/33
// (around FPC's 32-words-per-iteration pack) — on a stream whose length
// divides none of them. Any even-division assumption in the staging, the
// prefix-sum scatter, or a vector tail loop shows up here.
TEST(BatchKernels, OddBatchSplitsMatchScalar) {
  const std::vector<uint8_t> training = test::quantized_walk(7, 64);
  CodecOptions opts = test::test_options(training);
  opts.trained_e2mc = E2mcCompressor::train(training, opts.e2mc);

  const std::vector<Block> blocks = repeat_delta_blocks(35);
  const std::vector<BlockView> views = to_views(blocks);

  for (const CodecInfo* info : CodecRegistry::instance().entries()) {
    if (!info->make) continue;
    const auto comp = CodecRegistry::instance().create(info->name, opts);

    std::vector<BlockAnalysis> scalar_a(blocks.size());
    std::vector<CompressedBlock> scalar_c(blocks.size());
    for (size_t i = 0; i < blocks.size(); ++i) {
      scalar_a[i] = comp->analyze(views[i]);
      scalar_c[i] = comp->compress(views[i]);
    }

    for (const size_t split : {1, 7, 9, 15, 17, 31, 33}) {
      std::vector<BlockAnalysis> batch_a(blocks.size());
      std::vector<CompressedBlock> batch_c(blocks.size());
      for (size_t begin = 0; begin < blocks.size(); begin += split) {
        const size_t len = std::min(split, blocks.size() - begin);
        const std::span<const BlockView> part(views.data() + begin, len);
        comp->analyze_batch(part, batch_a.data() + begin);
        comp->compress_batch(part, batch_c.data() + begin);
      }
      for (size_t i = 0; i < blocks.size(); ++i) {
        const std::string what = comp->name() + " odd split " + std::to_string(split) +
                                 " block " + std::to_string(i);
        expect_analysis_eq(scalar_a[i], batch_a[i], what);
        expect_payload_eq(scalar_c[i], batch_c[i], what);
      }
    }
  }
}

// Misaligned block pointers: the same stream viewed at byte offsets 0, 1 and
// 3 from the backing allocation, so every 32-byte vector load in the kernels
// is genuinely unaligned (block *sizes* stay kBlockBytes — only the pointers
// shift). Batch results must match spans of 1 over the same shifted views,
// and shifting must not perturb a kernel into reading outside its block
// (ASan in CI would catch an over-read).
TEST(BatchKernels, MisalignedBlockPointersMatchScalar) {
  const std::vector<uint8_t> training = test::quantized_walk(7, 64);
  CodecOptions opts = test::test_options(training);
  opts.trained_e2mc = E2mcCompressor::train(training, opts.e2mc);

  constexpr size_t kBlocks = 24;
  // Compressible content (repeated values + small deltas) so the vector
  // probe/classify/gather paths actually engage instead of bailing to raw.
  std::vector<uint8_t> pattern;
  pattern.reserve(kBlocks * kBlockBytes);
  {
    Rng rng(0xA11E5ull);
    uint64_t base = 0x0807060504030201ull;
    for (size_t i = 0; i < kBlocks * kBlockBytes / 8; ++i) {
      if (i % 16 == 0) base = rng.next();
      const uint64_t v = rng.chance(0.5) ? base : base + rng.next_below(120);
      for (int k = 0; k < 8; ++k) pattern.push_back(static_cast<uint8_t>(v >> (8 * k)));
    }
  }

  for (const size_t offset : {size_t{0}, size_t{1}, size_t{3}}) {
    std::vector<uint8_t> arena(offset + pattern.size());
    std::memcpy(arena.data() + offset, pattern.data(), pattern.size());
    std::vector<BlockView> views;
    views.reserve(kBlocks);
    for (size_t b = 0; b < kBlocks; ++b)
      views.push_back(BlockView(
          std::span<const uint8_t>(arena.data() + offset + b * kBlockBytes, kBlockBytes)));

    for (const CodecInfo* info : CodecRegistry::instance().entries()) {
      if (!info->make) continue;
      const auto comp = CodecRegistry::instance().create(info->name, opts);

      std::vector<BlockAnalysis> batch_a(kBlocks);
      std::vector<CompressedBlock> batch_c(kBlocks);
      comp->analyze_batch(views, batch_a.data());
      comp->compress_batch(views, batch_c.data());

      for (size_t i = 0; i < kBlocks; ++i) {
        const std::string what = comp->name() + " offset " + std::to_string(offset) +
                                 " block " + std::to_string(i);
        expect_analysis_eq(comp->analyze(views[i]), batch_a[i], what);
        expect_payload_eq(comp->compress(views[i]), batch_c[i], what);
      }
    }
  }
}

// Lossless schemes must still roundtrip from the batch-produced payloads.
TEST(BatchKernels, BatchPayloadsRoundtripLossless) {
  const std::vector<uint8_t> training = test::quantized_walk(7, 64);
  CodecOptions opts = test::test_options(training);
  opts.trained_e2mc = E2mcCompressor::train(training, opts.e2mc);

  const std::vector<Block> blocks = random_blocks(32);
  for (const std::string& name : CodecRegistry::instance().lossless_names()) {
    const CodecInfo& info = CodecRegistry::instance().at(name);
    if (!info.make) continue;
    const auto comp = CodecRegistry::instance().create(name, opts);
    const std::vector<CompressedBlock> payloads = comp->compress_batch(blocks);
    for (size_t i = 0; i < blocks.size(); ++i) {
      EXPECT_EQ(comp->decompress(payloads[i], kBlockBytes), blocks[i])
          << name << " block " << i;
    }
  }
}

TEST(BatchKernels, BatchPayloadsDecompressForEveryScheme) {
  // Closes the decompress gap over the batch paths: every scheme's
  // compress_batch payloads must decode to exactly what a span of 1 through
  // compress() and decompress() yields — for lossless schemes that is the
  // input itself; for the lossy TSLC variants the approximation is part of
  // the contract, and drift between batch and span-of-1 decoded bytes is a
  // bug.
  const std::vector<uint8_t> training = test::quantized_walk(7, 64);
  CodecOptions opts = test::test_options(training);
  opts.trained_e2mc = E2mcCompressor::train(training, opts.e2mc);

  const std::vector<std::vector<Block>> corpora = {random_blocks(24), zero_blocks(8),
                                                   repeat_delta_blocks(16), denormal_blocks(8)};
  for (const auto& blocks : corpora) {
    for (const std::string& name : CodecRegistry::instance().names()) {
      const CodecInfo& info = CodecRegistry::instance().at(name);
      if (!info.make) continue;  // RAW has no Compressor form
      const auto comp = CodecRegistry::instance().create(name, opts);
      const std::vector<CompressedBlock> payloads = comp->compress_batch(blocks);
      for (size_t i = 0; i < blocks.size(); ++i) {
        const Block batch_decoded = comp->decompress(payloads[i], kBlockBytes);
        const Block scalar_decoded =
            comp->decompress(comp->compress(blocks[i].view()), kBlockBytes);
        EXPECT_EQ(batch_decoded, scalar_decoded) << name << " block " << i;
        if (!info.lossy) {
          EXPECT_EQ(batch_decoded, blocks[i]) << name << " block " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace slc
