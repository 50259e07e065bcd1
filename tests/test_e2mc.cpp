// E2MC: training, layout (ways + pdp header), compressed sizes, round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "codec_reference.h"
#include "common/rng.h"
#include "compress/e2mc.h"
#include "compress/simd_dispatch.h"
#include "test_util.h"

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
  std::vector<uint16_t> lens(kSymbolsPerBlock), sums8(kSymbolsPerBlock / 8);
  comp_->code_lengths(b.view(), lens.data(), sums8.data());
  for (size_t s = 0; s < kSymbolsPerBlock; ++s)
    EXPECT_EQ(lens[s], comp_->code().encoded_bits(b.symbol(s)));
}

// code_lengths() stages each symbol's code length and, in the same pass,
// the sum of each whole group of 8 (the AVX2 kernel folds them from its
// gather registers, the scalar twin adds them up), and way_bits() sums the
// ways off them. All of it must equal per-symbol sums of the reference
// lengths with the AVX2 kernel active and with the scalar one pinned
// (SLC_FORCE_SCALAR's switch), over symbols that are escapes, the
// longest codes or any other code, at 8 B (no whole group), 96 B (groups
// past the last 64-symbol tile, straddling 12-symbol ways), 128 B, 520 B
// (65-symbol ways) and 1024 B blocks (which the SLC decision stages on the
// heap).
TEST_F(E2mcTest, GroupAndWaySumsMatchScalarSums) {
  std::vector<uint16_t> escapes, longest, coded;
  unsigned max_len = 0;
  for (uint32_t sym = 0; sym <= UINT16_MAX; ++sym)
    max_len = std::max(max_len, comp_->code().codeword_len(static_cast<uint16_t>(sym)));
  for (uint32_t sym = 0; sym <= UINT16_MAX; ++sym) {
    const auto s = static_cast<uint16_t>(sym);
    const unsigned len = comp_->code().codeword_len(s);
    (len == 0 ? escapes : len == max_len ? longest : coded).push_back(s);
  }
  ASSERT_FALSE(escapes.empty());
  ASSERT_FALSE(longest.empty());
  ASSERT_FALSE(coded.empty());

  const test::ForceScalarGuard restore;
  for (const bool scalar : {false, true}) {
    simd::force_scalar(scalar);
    for (const size_t bytes : {size_t{8}, size_t{96}, size_t{128}, size_t{520}, size_t{1024}}) {
      const std::string at = (scalar ? "scalar " : "active ") + std::to_string(bytes) + " B";
      Rng rng(bytes);
      for (int rep = 0; rep < 8; ++rep) {
        Block b(bytes);
        const size_t n = b.view().num_symbols();
        for (size_t i = 0; i < n; ++i) {
          const double pick = rng.uniform(0.0, 1.0);
          const auto& from = pick < 0.25 ? escapes : pick < 0.5 ? longest : coded;
          b.set_symbol(i, from[rng.next_below(from.size())]);
        }
        std::vector<uint16_t> lens(n), sums8(n / 8);
        comp_->code_lengths(b.view(), lens.data(), sums8.data());
        const std::vector<uint16_t> ref = test::ref_code_lengths(*comp_, b.view());
        EXPECT_EQ(lens, ref) << at;
        for (size_t k = 0; k < n / 8; ++k) {
          unsigned sum = 0;
          for (size_t i = 8 * k; i < 8 * k + 8; ++i) sum += ref[i];
          EXPECT_EQ(sums8[k], sum) << at << " group " << k;
        }
        const size_t per_way = comp_->symbols_per_way(n);
        size_t ways[4] = {};
        E2mcCompressor::way_bits(lens.data(), sums8.data(), per_way, 4, ways);
        for (size_t w = 0; w < 4; ++w) {
          size_t sum = 0;
          for (size_t i = w * per_way; i < (w + 1) * per_way; ++i) sum += ref[i];
          EXPECT_EQ(ways[w], sum) << at << " way " << w;
        }
      }
    }
  }
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
