// Geometry properties: the codec stack takes the paper's one block geometry
// (128 B blocks, 4 E2MC ways) and rejects every other block size, and holds
// its invariants across MAGs and table sizes — the configuration space a
// downstream user can reach through the public API.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/rng.h"
#include "compress/block_codec.h"
#include "compress/codec_registry.h"
#include "compress/fpc.h"
#include "core/fingerprint_cache.h"
#include "core/slc_codec.h"
#include "test_util.h"

namespace slc {
namespace {

std::vector<uint8_t> quantized_floats(uint64_t seed, size_t bytes) {
  Rng rng(seed);
  std::vector<uint8_t> data;
  double walk = 20.0;
  for (size_t i = 0; i < bytes / 4; ++i) {
    walk += rng.uniform(-0.8, 0.8);
    if (rng.chance(0.02)) walk = rng.uniform(1.0, 200.0);
    const float v = static_cast<float>(std::round(walk * 8.0) / 8.0);
    uint32_t bits;
    __builtin_memcpy(&bits, &v, 4);
    for (int k = 0; k < 4; ++k) data.push_back(static_cast<uint8_t>(bits >> (8 * k)));
  }
  return data;
}

// (block_bytes, num_ways): the paper's geometry, the one every codec takes.
using Geometry = std::tuple<size_t, unsigned>;

class E2mcGeometryTest : public ::testing::TestWithParam<Geometry> {};

TEST_P(E2mcGeometryTest, RoundTripAndSizeAccounting) {
  const auto [block_bytes, ways] = GetParam();
  ASSERT_EQ(ways, kNumWays);
  const auto data = quantized_floats(7 + block_bytes + ways, 512 * block_bytes);
  E2mcConfig cfg;
  cfg.sample_fraction = 0.2;
  auto comp = E2mcCompressor::train(data, cfg);
  for (size_t i = 0; i < 256; ++i) {
    const Block b(std::span<const uint8_t>(data).subspan(i * block_bytes, block_bytes));
    const auto cb = comp->compress(b.view());
    EXPECT_EQ(comp->analyze(b.view()).bit_size, cb.bit_size);
    EXPECT_LE(cb.bit_size, block_bytes * 8);
    EXPECT_EQ(comp->decompress(cb, block_bytes), b) << "block " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(BlocksAndWays, E2mcGeometryTest,
                         ::testing::Values(Geometry{kBlockBytes, kNumWays}));

class SlcGeometryTest : public ::testing::TestWithParam<Geometry> {};

TEST_P(SlcGeometryTest, InvariantsAcrossBlockGeometry) {
  const auto [block_bytes, ways] = GetParam();
  ASSERT_EQ(ways, kNumWays);
  const auto data = quantized_floats(99 + block_bytes + ways, 512 * block_bytes);
  E2mcConfig ecfg;
  ecfg.sample_fraction = 0.2;
  auto e2mc = E2mcCompressor::train(data, ecfg);
  SlcConfig cfg;
  cfg.mag_bytes = 32;
  cfg.threshold_bytes = 16;
  cfg.variant = SlcVariant::kOpt;
  const SlcCodec codec(e2mc, cfg);

  for (size_t i = 0; i < 256; ++i) {
    const Block b(std::span<const uint8_t>(data).subspan(i * block_bytes, block_bytes));
    const auto cb = test::compress_one(codec, b.view());
    const Block out = codec.decompress(cb.data, block_bytes);
    if (!cb.info.lossy) {
      EXPECT_EQ(out, b);
      continue;
    }
    // Lossy: at most kMaxApproxSymbols symbols may differ.
    size_t diff = 0;
    for (size_t s = 0; s < kSymbolsPerBlock; ++s)
      if (out.symbol(s) != b.symbol(s)) ++diff;
    EXPECT_LE(diff, kMaxApproxSymbols);
    EXPECT_LE(cb.info.bursts, bursts_for_bits(cb.info.lossless_bits, 32));
  }
}

INSTANTIATE_TEST_SUITE_P(BlocksAndWays, SlcGeometryTest,
                         ::testing::Values(Geometry{kBlockBytes, kNumWays}));

// Every Compressor and BlockCodec entry point of `scheme` must throw
// std::invalid_argument for `block`; decompress() is fed a payload claiming
// that size.
void expect_rejected(const std::string& scheme, const CodecOptions& opts, BlockView block) {
  const auto& reg = CodecRegistry::instance();
  const std::string what = scheme + " " + std::to_string(block.size()) + " B";
  const std::vector<BlockView> views{block};
  std::vector<BlockCodecResult> results(1);
  const auto policy = reg.create_block_codec(scheme, opts);
  EXPECT_THROW(policy->process(block, true, 16), std::invalid_argument) << what;
  EXPECT_THROW(policy->process_batch(views, true, 16, results.data()), std::invalid_argument)
      << what;
  if (!reg.at(scheme).make) return;  // RAW has no Compressor form
  const auto comp = reg.create(scheme, opts);
  std::vector<BlockAnalysis> analyses(1);
  std::vector<CompressedBlock> payloads(1);
  EXPECT_THROW(comp->compress(block), std::invalid_argument) << what;
  EXPECT_THROW(comp->analyze(block), std::invalid_argument) << what;
  EXPECT_THROW(comp->analyze_batch(views, analyses.data()), std::invalid_argument) << what;
  EXPECT_THROW(comp->compress_batch(views, payloads.data()), std::invalid_argument) << what;
  for (const bool compressed : {true, false}) {
    CompressedBlock forged;
    forged.is_compressed = compressed;
    forged.bit_size = block.size() * 8;
    forged.payload.assign(block.bytes().begin(), block.bytes().end());
    EXPECT_THROW(comp->decompress(forged, block.size()), std::invalid_argument)
        << what << (compressed ? " compressed" : " stored raw");
  }
}

// E2MC's 4 ways of 16 symbols are a 128 B block's: a block of 2 symbols
// (4 B) or 63 (126 B) does not split into them. Under 3 ways, symbol 63 of
// a 128 B block used to land in no way, and a 4-byte block under 4 ways has
// zero symbols per way, on which analyze() used to die with SIGFPE.
class WayGeometryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = quantized_floats(5, 64 * kBlockBytes);
    opts_.training_data = data_;
    opts_.e2mc.sample_fraction = 0.5;
  }

  BlockView tiny() const { return BlockView(std::span<const uint8_t>(data_).first(4)); }
  BlockView short_of_a_way() const {
    return BlockView(std::span<const uint8_t>(data_).first(kBlockBytes - 2));
  }

  std::vector<uint8_t> data_;
  CodecOptions opts_;
};

TEST_F(WayGeometryTest, E2mcRejectsBlocksThatDoNotSplitIntoWays) {
  expect_rejected("E2MC", opts_, tiny());
  expect_rejected("E2MC", opts_, short_of_a_way());
}

TEST_F(WayGeometryTest, TslcOptRejectsBlocksThatDoNotSplitIntoWays) {
  expect_rejected("TSLC-OPT", opts_, tiny());
  expect_rejected("TSLC-OPT", opts_, short_of_a_way());
}

// Every codec takes 128 B blocks and nothing else. Blocks of 0, 2, 64, 126,
// 130, 256 and 520 B are rejected with std::invalid_argument by every
// registry scheme's analyze, compress, analyze_batch, compress_batch and
// decompress, by every scheme's BlockCodec (RAW included) and by
// SlcCodec::decide_batch with the memo off and on, before the memo sees the
// block. The word-oriented schemes used to drop the bytes after a block's
// last whole word and still report it compressed (a 130 B block of zeros
// ending in AB CD came back as 130 zeros), and SLC blocks over 256 B
// decoded to the wrong block. 128 B blocks still round-trip.
TEST(LosslessSchemes, RejectBlockSizesTheyCannotEncode) {
  const auto training = quantized_floats(11, 64 * kBlockBytes);
  CodecOptions opts;
  opts.training_data = training;
  opts.threshold_bytes = 0;  // the TSLC variants stay lossless, so round trips are exact
  const auto& reg = CodecRegistry::instance();
  const auto model = E2mcCompressor::train(training);
  size_t schemes = 0;
  for (const size_t bytes : {size_t{0}, size_t{2}, size_t{64}, size_t{126}, size_t{130},
                             size_t{256}, size_t{520}}) {
    std::vector<uint8_t> data(bytes);
    if (bytes >= 2) {
      data[bytes - 2] = 0xAB;
      data[bytes - 1] = 0xCD;
    }
    const Block block(std::move(data));
    for (const CodecInfo* info : reg.entries()) expect_rejected(info->name, opts, block.view());
    for (const bool memo : {false, true}) {
      SlcConfig cfg;
      if (memo) cfg.cache = std::make_shared<FingerprintCache>();
      const SlcCodec codec(model, cfg);
      const std::vector<BlockView> views{block.view()};
      SlcCodec::Decision d;
      SlcCodec::CacheOutcome oc;
      EXPECT_THROW(codec.decide_batch(views, 16, &d, &oc), std::invalid_argument)
          << bytes << " B, memo " << memo;
      if (memo) {
        EXPECT_EQ(cfg.cache->size(), 0u) << bytes << " B";
      }
    }
  }
  for (const CodecInfo* info : reg.entries()) {
    if (!info->make) continue;  // RAW has no Compressor form
    const auto comp = reg.create(info->name, opts);
    const Block block(std::span<const uint8_t>(training).first(kBlockBytes));
    const CompressedBlock cb = comp->compress(block.view());
    EXPECT_EQ(comp->decompress(cb, kBlockBytes), block) << info->name;
    ++schemes;
  }
  EXPECT_GE(schemes, 8u);  // BDI, FPC, C-PACK, E2MC, Huffman and the three TSLC
}

// A MAG of 0, or one that does not divide the block, is rejected when the
// codec is built: Release builds compile asserts out, and a MAG of 0 used
// to die with SIGFPE on the first block (a MAG of 48 charged a raw 128 B
// block 2 bursts, 96 B). CodecServer.OpenStreamRejectsBadMag covers the
// server stream.
constexpr size_t kBadMags[] = {0, 48};

TEST(MagGeometry, SlcCodecRejectsBadMag) {
  const auto training = quantized_floats(12, 64 * kBlockBytes);
  const auto e2mc = E2mcCompressor::train(training, E2mcConfig{});
  CodecOptions opts;
  opts.trained_e2mc = e2mc;
  for (const size_t mag : kBadMags) {
    SlcConfig cfg;
    cfg.mag_bytes = mag;
    EXPECT_THROW((SlcCodec{e2mc, cfg}), std::invalid_argument) << mag;
    opts.mag_bytes = mag;
    EXPECT_THROW(CodecRegistry::instance().create("TSLC-OPT", opts), std::invalid_argument)
        << mag;
    EXPECT_THROW(CodecRegistry::instance().create_block_codec("TSLC-OPT", opts),
                 std::invalid_argument)
        << mag;
  }
}

TEST(MagGeometry, RawBlockCodecRejectsBadMag) {
  CodecOptions opts;
  for (const size_t mag : kBadMags) {
    EXPECT_THROW(RawBlockCodec{mag}, std::invalid_argument) << mag;
    opts.mag_bytes = mag;
    EXPECT_THROW(CodecRegistry::instance().create_block_codec("RAW", opts), std::invalid_argument)
        << mag;
  }
}

TEST(MagGeometry, LosslessBlockCodecRejectsBadMag) {
  const auto training = quantized_floats(13, 64 * kBlockBytes);
  CodecOptions opts;
  opts.training_data = training;
  for (const size_t mag : kBadMags) {
    EXPECT_THROW((LosslessBlockCodec{std::make_shared<FpcCompressor>(), mag}),
                 std::invalid_argument)
        << mag;
    opts.mag_bytes = mag;
    EXPECT_THROW(CodecRegistry::instance().create_block_codec("E2MC", opts),
                 std::invalid_argument)
        << mag;
  }
}

// analyze() must agree with compress() everywhere — the simulator's fast
// path cannot drift from the functional path.
class AnalyzeConsistencyTest : public ::testing::TestWithParam<int> {};

TEST_P(AnalyzeConsistencyTest, AnalyzeMatchesCompress) {
  const auto data = quantized_floats(static_cast<uint64_t>(GetParam()), 512 * kBlockBytes);
  E2mcConfig ecfg;
  ecfg.sample_fraction = 0.3;
  auto e2mc = E2mcCompressor::train(data, ecfg);
  SlcConfig cfg;
  cfg.threshold_bytes = 16;
  cfg.variant = static_cast<SlcVariant>(GetParam() % 3);
  const SlcCodec codec(e2mc, cfg);
  for (size_t i = 0; i < 256; ++i) {
    const Block b(std::span<const uint8_t>(data).subspan(i * kBlockBytes, kBlockBytes));
    const SlcEncodeInfo a = test::decide_one(codec, b.view()).info;
    const auto cb = test::compress_one(codec, b.view());
    EXPECT_EQ(a.lossy, cb.info.lossy);
    EXPECT_EQ(a.final_bits, cb.info.final_bits);
    EXPECT_EQ(a.bursts, cb.info.bursts);
    EXPECT_EQ(a.lossless_bits, cb.info.lossless_bits);
    EXPECT_EQ(a.truncated_symbols, cb.info.truncated_symbols);
    EXPECT_EQ(a.stored_uncompressed, cb.info.stored_uncompressed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalyzeConsistencyTest, ::testing::Range(1, 7));

// Table-size sweep: larger tables never increase the compressed size of the
// data they were trained on (more coverage, shorter escapes).
class TableSweepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TableSweepTest, CompressionImprovesOrHolds) {
  const auto data = quantized_floats(1234, 512 * kBlockBytes);
  E2mcConfig small_cfg;
  small_cfg.table_entries = 64;
  small_cfg.sample_fraction = 0.5;
  E2mcConfig big_cfg = small_cfg;
  big_cfg.table_entries = GetParam();
  auto small = E2mcCompressor::train(data, small_cfg);
  auto big = E2mcCompressor::train(data, big_cfg);
  uint64_t small_bits = 0, big_bits = 0;
  for (size_t i = 0; i < 256; ++i) {
    const Block b(std::span<const uint8_t>(data).subspan(i * kBlockBytes, kBlockBytes));
    small_bits += small->analyze(b.view()).bit_size;
    big_bits += big->analyze(b.view()).bit_size;
  }
  EXPECT_LE(big_bits, small_bits + small_bits / 20)
      << "bigger tables must not cost more than noise";
}

INSTANTIATE_TEST_SUITE_P(Tables, TableSweepTest, ::testing::Values(256, 1024, 4096));

}  // namespace
}  // namespace slc
