// Cross-geometry property sweeps: the codec stack must hold its invariants
// for non-default block sizes, way counts, MAGs and table sizes — the
// configuration space a downstream user can reach through the public API.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>

#include "common/rng.h"
#include "compress/block_codec.h"
#include "compress/codec_registry.h"
#include "compress/fpc.h"
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

// (block_bytes, num_ways)
using Geometry = std::tuple<size_t, unsigned>;

class E2mcGeometryTest : public ::testing::TestWithParam<Geometry> {};

TEST_P(E2mcGeometryTest, RoundTripAndSizeAccounting) {
  const auto [block_bytes, ways] = GetParam();
  const auto data = quantized_floats(7 + block_bytes + ways, 512 * block_bytes);
  E2mcConfig cfg;
  cfg.num_ways = ways;
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
                         ::testing::Values(Geometry{64, 2}, Geometry{64, 4},
                                           Geometry{128, 2}, Geometry{128, 4},
                                           Geometry{128, 8}, Geometry{256, 4}));

class SlcGeometryTest : public ::testing::TestWithParam<Geometry> {};

TEST_P(SlcGeometryTest, InvariantsAcrossBlockGeometry) {
  const auto [block_bytes, ways] = GetParam();
  const size_t n_sym = block_bytes * 8 / kSymbolBits;
  const auto data = quantized_floats(99 + block_bytes + ways, 512 * block_bytes);
  E2mcConfig ecfg;
  ecfg.num_ways = ways;
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
    for (size_t s = 0; s < n_sym; ++s)
      if (out.symbol(s) != b.symbol(s)) ++diff;
    EXPECT_LE(diff, kMaxApproxSymbols);
    EXPECT_LE(cb.info.bursts, bursts_for_bits(cb.info.lossless_bits, 32, block_bytes));
  }
}

INSTANTIATE_TEST_SUITE_P(BlocksAndWays, SlcGeometryTest,
                         ::testing::Values(Geometry{128, 2}, Geometry{128, 4},
                                           Geometry{256, 4}));

// Blocks whose symbol count is zero or not a multiple of num_ways are
// rejected with std::invalid_argument on every path that sizes, emits or
// decodes ways. Under 3 ways, symbol 63 of a 128 B block used to land in no
// way: compress() reported the block compressed and decompress() returned
// that symbol as 0. A 4-byte block under 4 ways has zero symbols per way,
// and analyze() used to die with SIGFPE.
class WayGeometryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = quantized_floats(5, 64 * kBlockBytes);
    four_.training_data = data_;
    four_.e2mc.sample_fraction = 0.5;
    three_ = four_;
    three_.e2mc.num_ways = 3;
  }

  // Every Compressor and BlockCodec entry point of `scheme` must throw for
  // `block`; decompress() is fed a payload claiming that geometry.
  static void expect_rejected(const std::string& scheme, const CodecOptions& opts,
                              BlockView block) {
    const auto& reg = CodecRegistry::instance();
    const auto comp = reg.create(scheme, opts);
    const auto policy = reg.create_block_codec(scheme, opts);
    const std::vector<BlockView> views{block};
    std::vector<BlockAnalysis> analyses(1);
    std::vector<CompressedBlock> payloads(1);
    std::vector<BlockCodecResult> results(1);
    EXPECT_THROW(comp->compress(block), std::invalid_argument) << scheme;
    EXPECT_THROW(comp->analyze(block), std::invalid_argument) << scheme;
    EXPECT_THROW(comp->analyze_batch(views, analyses.data()), std::invalid_argument) << scheme;
    EXPECT_THROW(comp->compress_batch(views, payloads.data()), std::invalid_argument) << scheme;
    CompressedBlock forged;
    forged.is_compressed = true;
    forged.bit_size = block.size() * 8;
    forged.payload.assign(block.bytes().begin(), block.bytes().end());
    EXPECT_THROW(comp->decompress(forged, block.size()), std::invalid_argument) << scheme;
    EXPECT_THROW(policy->process(block, true, 16), std::invalid_argument) << scheme;
    EXPECT_THROW(policy->process_batch(views, true, 16, results.data()), std::invalid_argument)
        << scheme;
  }

  BlockView full() const { return BlockView(std::span<const uint8_t>(data_).first(kBlockBytes)); }
  BlockView tiny() const { return BlockView(std::span<const uint8_t>(data_).first(4)); }

  std::vector<uint8_t> data_;
  CodecOptions four_;   // default 4 ways
  CodecOptions three_;  // 3 ways: 64 symbols do not split
};

TEST_F(WayGeometryTest, E2mcRejectsBlocksThatDoNotSplitIntoWays) {
  expect_rejected("E2MC", three_, full());
  expect_rejected("E2MC", four_, tiny());
}

TEST_F(WayGeometryTest, TslcOptRejectsBlocksThatDoNotSplitIntoWays) {
  expect_rejected("TSLC-OPT", three_, full());
  expect_rejected("TSLC-OPT", four_, tiny());
}

TEST(WayGeometry, E2mcRejectsWayCountsOutsideOneToEight) {
  E2mcConfig cfg;
  cfg.num_ways = 0;
  EXPECT_THROW(E2mcCompressor(HuffmanCode{}, cfg), std::invalid_argument);
  cfg.num_ways = 9;
  EXPECT_THROW(E2mcCompressor(HuffmanCode{}, cfg), std::invalid_argument);
}

// The word-oriented schemes cannot encode a partial word: BDI reads 8 B
// words (its repeat and base-8 probes), FPC and C-PACK 4 B words, E2MC,
// Huffman and the SLC codec over E2MC 2 B symbols. They used to drop the
// bytes after the last whole word and still report the block compressed
// (a 130 B block of zeros ending in AB CD came back as 130 zeros). Every
// entry point that sizes, encodes or decodes a block now rejects a size
// that is not a positive multiple of the word; 64 B and 256 B blocks still
// round-trip.
TEST(LosslessSchemes, RejectBlockSizesTheyCannotEncode) {
  const std::map<std::string, size_t> word_bytes = {
      {"BDI", 8},     {"FPC", 4},       {"C-PACK", 4},    {"E2MC", 2},
      {"Huffman", 2}, {"TSLC-SIMP", 2}, {"TSLC-PRED", 2}, {"TSLC-OPT", 2}};
  const auto training = quantized_floats(11, 64 * kBlockBytes);
  CodecOptions opts;
  opts.training_data = training;
  opts.threshold_bytes = 0;  // the TSLC variants stay lossless, so round trips are exact
  opts.e2mc.num_ways = 2;    // 101 B = 50 symbols splits into 2 ways: only the tail check bites
  const auto& reg = CodecRegistry::instance();
  size_t schemes = 0;
  for (const CodecInfo* info : reg.entries()) {
    if (!info->make) continue;  // RAW has no Compressor form
    ASSERT_EQ(word_bytes.count(info->name), 1u) << info->name << ": word size unknown";
    const size_t word = word_bytes.at(info->name);
    const auto comp = reg.create(info->name, opts);
    ++schemes;
    for (const size_t bytes : {size_t{0}, size_t{100}, size_t{101}, size_t{130}}) {
      if (bytes != 0 && bytes % word == 0) continue;
      std::vector<uint8_t> data(bytes);
      if (bytes >= 2) {
        data[bytes - 2] = 0xAB;
        data[bytes - 1] = 0xCD;
      }
      const Block block(std::move(data));
      const std::vector<BlockView> views{block.view()};
      std::vector<BlockAnalysis> analyses(1);
      std::vector<CompressedBlock> payloads(1);
      const std::string what = info->name + " " + std::to_string(bytes) + " B";
      EXPECT_THROW(comp->analyze(block.view()), std::invalid_argument) << what;
      EXPECT_THROW(comp->analyze_batch(views, analyses.data()), std::invalid_argument) << what;
      EXPECT_THROW(comp->compress(block.view()), std::invalid_argument) << what;
      EXPECT_THROW(comp->compress_batch(views, payloads.data()), std::invalid_argument) << what;
      CompressedBlock forged;
      forged.is_compressed = true;
      forged.bit_size = 8;
      forged.payload.assign(std::max<size_t>(bytes, 1), 0);
      EXPECT_THROW(comp->decompress(forged, bytes), std::invalid_argument) << what;
    }
    for (const size_t bytes : {size_t{64}, size_t{256}}) {
      const Block block(std::span<const uint8_t>(training).first(bytes));
      const CompressedBlock cb = comp->compress(block.view());
      EXPECT_EQ(comp->decompress(cb, bytes), block) << info->name << " " << bytes << " B";
    }
  }
  EXPECT_EQ(schemes, word_bytes.size());
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
