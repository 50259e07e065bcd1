// CodecRegistry: every registered scheme constructs by name, compresses and
// decompresses a reference block set, and reports sizes consistently across
// the compress/analyze paths.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "test_util.h"
#include "compress/block_codec.h"
#include "compress/codec_registry.h"
#include "core/slc_codec.h"

namespace slc {
namespace {

using test::quantized_walk;
using test::test_options;

// Reference block set: value-similar floats plus degenerate shapes every
// scheme has special cases for.
std::vector<Block> reference_blocks() {
  std::vector<Block> blocks = to_blocks(quantized_walk(23, 32));
  blocks.emplace_back();  // all zeros
  Block repeat;
  for (size_t i = 0; i < kBlockBytes / 8; ++i) repeat.set_word64(i, 0x0102030405060708ull);
  blocks.push_back(repeat);
  Block noise;  // incompressible
  Rng rng(7);
  for (size_t i = 0; i < kBlockBytes / 8; ++i) noise.set_word64(i, rng.next());
  blocks.push_back(noise);
  return blocks;
}

TEST(CodecRegistry, AllExpectedSchemesRegistered) {
  const auto& reg = CodecRegistry::instance();
  for (const char* name :
       {"RAW", "BDI", "FPC", "C-PACK", "E2MC", "Huffman", "TSLC-SIMP", "TSLC-PRED", "TSLC-OPT"}) {
    EXPECT_NE(reg.find(name), nullptr) << name;
  }
  // Display order puts RAW first and the TSLC variants last.
  const auto names = reg.names();
  ASSERT_GE(names.size(), 9u);
  EXPECT_EQ(names.front(), "RAW");
  EXPECT_EQ(names.back(), "TSLC-OPT");
}

TEST(CodecRegistry, LosslessAndLossySplits) {
  const auto& reg = CodecRegistry::instance();
  const auto lossless = reg.lossless_names();
  const auto lossy = reg.lossy_names();
  EXPECT_EQ(lossless, (std::vector<std::string>{"BDI", "FPC", "C-PACK", "E2MC", "Huffman"}));
  EXPECT_EQ(lossy, (std::vector<std::string>{"TSLC-SIMP", "TSLC-PRED", "TSLC-OPT"}));
}

TEST(CodecRegistry, UnknownNameThrowsWithKnownList) {
  const auto& reg = CodecRegistry::instance();
  EXPECT_EQ(reg.find("LZ4"), nullptr);
  try {
    reg.at("LZ4");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("E2MC"), std::string::npos);
  }
}

TEST(CodecRegistry, TrainingSchemesRejectEmptyOptions) {
  const auto& reg = CodecRegistry::instance();
  const CodecOptions empty;
  EXPECT_THROW(reg.create("E2MC", empty), std::invalid_argument);
  EXPECT_THROW(reg.create("TSLC-OPT", empty), std::invalid_argument);
  EXPECT_THROW(reg.create("RAW", empty), std::invalid_argument);  // no Compressor form
  EXPECT_NO_THROW(reg.create("BDI", empty));
}

// Every registered compressor: name round-trip, compress/decompress
// consistency, and analyze() agreeing with compress() on every block.
TEST(CodecRegistry, RoundTripAndAnalyzeConsistency) {
  const auto& reg = CodecRegistry::instance();
  const auto training = quantized_walk(23, 256);
  const auto blocks = reference_blocks();

  for (const auto* info : reg.entries()) {
    if (!info->make) continue;  // RAW
    const auto comp = reg.create(info->name, test_options(training));
    EXPECT_EQ(comp->name(), info->name);
    for (size_t i = 0; i < blocks.size(); ++i) {
      const Block& b = blocks[i];
      const CompressedBlock cb = comp->compress(b.view());
      const BlockAnalysis a = comp->analyze(b.view());
      EXPECT_EQ(a.bit_size, cb.bit_size) << info->name << " block " << i;
      EXPECT_EQ(a.is_compressed, cb.is_compressed) << info->name << " block " << i;
      EXPECT_EQ(comp->analyze(b.view()).bit_size, cb.bit_size) << info->name;
      EXPECT_LE(cb.bit_size, kBlockBytes * 8) << info->name;

      const Block out = comp->decompress(cb, kBlockBytes);
      if (info->lossy) {
        // Lossy schemes must still reproduce non-truncated blocks exactly.
        if (!a.lossy) {
          EXPECT_EQ(out, b) << info->name << " block " << i;
        }
      } else {
        EXPECT_EQ(out, b) << info->name << " block " << i;
      }
    }
  }
}

TEST(CodecRegistry, BlockCodecConstructibleForEveryScheme) {
  const auto& reg = CodecRegistry::instance();
  const auto training = quantized_walk(23, 256);
  const auto blocks = reference_blocks();

  for (const auto* info : reg.entries()) {
    const auto codec = reg.create_block_codec(info->name, test_options(training));
    ASSERT_NE(codec, nullptr) << info->name;
    EXPECT_EQ(codec->mag_bytes(), 32u) << info->name;
    for (const Block& b : blocks) {
      const BlockCodecResult r = codec->process(b.view(), /*safe=*/true, /*threshold=*/16);
      EXPECT_GE(r.bursts, 1u) << info->name;
      EXPECT_LE(r.bursts, kBlockBytes / 32) << info->name;
      EXPECT_EQ(r.decoded.has_value(), r.lossy) << info->name;
    }
  }
}

TEST(CodecRegistry, TrainedModelReuseMatchesRetraining) {
  const auto& reg = CodecRegistry::instance();
  const auto training = quantized_walk(23, 256);
  const auto blocks = reference_blocks();

  CodecOptions opts = test_options(training);
  const auto fresh = reg.create("TSLC-OPT", opts);

  opts.trained_e2mc =
      std::dynamic_pointer_cast<const E2mcCompressor>(reg.create("E2MC", opts));
  ASSERT_NE(opts.trained_e2mc, nullptr);
  opts.training_data = {};  // model reuse must suffice
  const auto reused = reg.create("TSLC-OPT", opts);

  // The E2MC factory must hand back the supplied model, not retrain.
  EXPECT_EQ(reg.create("E2MC", opts).get(), opts.trained_e2mc.get());

  for (const Block& b : blocks) {
    EXPECT_EQ(fresh->analyze(b.view()).bit_size, reused->analyze(b.view()).bit_size);
  }
}

TEST(CodecRegistry, SlcAdapterExposesEncodeInfo) {
  const auto& reg = CodecRegistry::instance();
  const auto training = quantized_walk(23, 256);
  const auto comp = std::dynamic_pointer_cast<const SlcCodec>(
      reg.create("TSLC-OPT", test_options(training)));
  ASSERT_NE(comp, nullptr);
  const auto blocks = reference_blocks();
  const auto views = to_views(blocks);
  std::vector<SlcCodec::Decision> ds(views.size());
  std::vector<SlcCodec::CacheOutcome> ocs(views.size());
  comp->decide_batch(views, comp->config().threshold_bytes, ds.data(), ocs.data());
  for (size_t i = 0; i < blocks.size(); ++i) {
    const SlcEncodeInfo& info = ds[i].info;
    const BlockAnalysis a = comp->analyze(views[i]);
    EXPECT_EQ(a.bit_size, info.final_bits);
    EXPECT_EQ(a.lossy, info.lossy);
    EXPECT_EQ(a.lossless_bits, info.lossless_bits);
    EXPECT_EQ(a.truncated_symbols, info.truncated_symbols);
  }
}

}  // namespace
}  // namespace slc
