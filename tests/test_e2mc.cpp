// E2MC: training, layout (ways + pdp header), compressed sizes, round trip.
#include <gtest/gtest.h>

#include "codec_reference.h"
#include "common/rng.h"
#include "compress/e2mc.h"

namespace slc {
namespace {

// Builds a training buffer of blocks with GPU-like value locality.
std::vector<uint8_t> training_data(uint64_t seed, size_t blocks = 512) {
  Rng rng(seed);
  std::vector<uint8_t> data;
  data.reserve(blocks * kBlockBytes);
  float base = 100.0f;
  for (size_t b = 0; b < blocks; ++b) {
    for (size_t i = 0; i < kBlockBytes / 4; ++i) {
      base += static_cast<float>(rng.uniform(-0.01f, 0.01f));
      uint32_t bits;
      __builtin_memcpy(&bits, &base, 4);
      data.push_back(static_cast<uint8_t>(bits));
      data.push_back(static_cast<uint8_t>(bits >> 8));
      data.push_back(static_cast<uint8_t>(bits >> 16));
      data.push_back(static_cast<uint8_t>(bits >> 24));
    }
  }
  return data;
}

Block block_from(const std::vector<uint8_t>& data, size_t i) {
  return Block(std::span<const uint8_t>(data).subspan(i * kBlockBytes, kBlockBytes));
}

class E2mcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = training_data(123);
    E2mcConfig cfg;
    cfg.sample_fraction = 0.5;
    comp_ = E2mcCompressor::train(data_, cfg);
  }
  std::vector<uint8_t> data_;
  std::shared_ptr<E2mcCompressor> comp_;
};

TEST_F(E2mcTest, PdpBits) {
  EXPECT_EQ(E2mcCompressor::pdp_bits(128), 7u);  // 2^7 = 128 (Fig. 6)
  EXPECT_EQ(E2mcCompressor::pdp_bits(64), 6u);
  EXPECT_EQ(E2mcCompressor::pdp_bits(256), 8u);
}

TEST_F(E2mcTest, HeaderIsThreePdps) {
  EXPECT_EQ(comp_->header_bits(kBlockBytes), 3u * 7u);  // baseline E2MC header
}

TEST_F(E2mcTest, CodeLengthsMatchCode) {
  const Block b = block_from(data_, 3);
  std::vector<uint16_t> lens(kSymbolsPerBlock);
  comp_->code_lengths(b.view(), lens.data());
  for (size_t s = 0; s < kSymbolsPerBlock; ++s)
    EXPECT_EQ(lens[s], comp_->code().encoded_bits(b.symbol(s)));
}

TEST_F(E2mcTest, LayoutSumsWays) {
  const Block b = block_from(data_, 5);
  const auto lens = test::ref_code_lengths(*comp_, b.view());
  const WayLayout lo = comp_->layout(lens, comp_->header_bits(kBlockBytes));
  size_t total_bits = 0;
  for (unsigned w = 0; w < 4; ++w) {
    size_t expect = 0;
    for (size_t s = w * 16; s < (w + 1) * 16; ++s) expect += lens[s];
    EXPECT_EQ(lo.way_bits[w], expect);
    EXPECT_EQ(lo.way_bytes[w], (expect + 7) / 8);
    total_bits += lo.way_bytes[w] * 8;
  }
  EXPECT_EQ(lo.total_bits, total_bits + 8 * ((comp_->header_bits(kBlockBytes) + 7) / 8));
}

TEST_F(E2mcTest, LayoutWithSkipRemovesSymbolBits) {
  const Block b = block_from(data_, 7);
  const auto lens = test::ref_code_lengths(*comp_, b.view());
  const WayLayout full = comp_->layout(lens, 21);
  const WayLayout cut = comp_->layout(lens, 21, 4, 8);  // skip symbols 4..11
  size_t removed = 0;
  for (size_t s = 4; s < 12; ++s) removed += lens[s];
  EXPECT_EQ(cut.way_bits[0] + removed, full.way_bits[0]);
  EXPECT_LE(cut.total_bits, full.total_bits);
}

TEST_F(E2mcTest, CompressedBitsEqualsCompressSize) {
  for (size_t i = 0; i < 64; ++i) {
    const Block b = block_from(data_, i);
    const auto cb = comp_->compress(b.view());
    EXPECT_EQ(comp_->analyze(b.view()).bit_size, cb.bit_size);
  }
}

TEST_F(E2mcTest, RoundTripTrainedData) {
  for (size_t i = 0; i < 128; ++i) {
    const Block b = block_from(data_, i);
    const auto cb = comp_->compress(b.view());
    EXPECT_EQ(comp_->decompress(cb, kBlockBytes), b) << "block " << i;
  }
}

TEST_F(E2mcTest, RoundTripUnseenDataViaEscapes) {
  // Random data the table never saw: every symbol escapes, and the block
  // falls back to uncompressed — still a perfect round trip.
  Rng rng(99);
  Block b;
  for (size_t i = 0; i < 16; ++i) b.set_word64(i, rng.next());
  const auto cb = comp_->compress(b.view());
  EXPECT_EQ(comp_->decompress(cb, kBlockBytes), b);
}

TEST_F(E2mcTest, TrainedDataCompresses) {
  // Value-similar floats share upper halfwords -> real compression.
  size_t compressed = 0;
  for (size_t i = 0; i < 128; ++i) {
    const Block b = block_from(data_, i);
    if (comp_->compress(b.view()).is_compressed) ++compressed;
  }
  EXPECT_GT(compressed, 100u);
}

TEST_F(E2mcTest, IncompressibleFallsBackToRaw) {
  Rng rng(7);
  Block b;
  for (size_t i = 0; i < 16; ++i) b.set_word64(i, rng.next());
  const auto cb = comp_->compress(b.view());
  EXPECT_FALSE(cb.is_compressed);
  EXPECT_EQ(cb.bit_size, kBlockBytes * 8);
}

TEST_F(E2mcTest, LatencyConstants) {
  // Sec. IV-A: 46 cycles compress, 20 decompress.
  EXPECT_EQ(E2mcCompressor::kCompressLatency, 46u);
  EXPECT_EQ(E2mcCompressor::kDecompressLatency, 20u);
}

// Property sweep over table sizes: round trip must hold for any config.
class E2mcParamTest : public ::testing::TestWithParam<size_t> {};

TEST_P(E2mcParamTest, RoundTripAcrossTableSizes) {
  const auto data = training_data(500 + GetParam());
  E2mcConfig cfg;
  cfg.table_entries = GetParam();
  cfg.sample_fraction = 0.3;
  auto comp = E2mcCompressor::train(data, cfg);
  for (size_t i = 0; i < 64; ++i) {
    const Block b = block_from(data, i);
    EXPECT_EQ(comp->decompress(comp->compress(b.view()), kBlockBytes), b);
  }
}

INSTANTIATE_TEST_SUITE_P(TableSizes, E2mcParamTest,
                         ::testing::Values(16, 64, 256, 1024, 4096));

}  // namespace
}  // namespace slc
