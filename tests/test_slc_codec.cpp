// SLC codec: the Fig. 4 mode decision, truncation semantics, prediction,
// and the MAG-multiple guarantee — the paper's core invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "core/slc_codec.h"
#include "test_util.h"

namespace slc {
namespace {

// Training data of value-similar floats on a 0.25 grid — quantized values
// (integer pixels, fixed-precision records) are what GPU benchmarks move,
// and they keep both float halfwords inside the code table so compressed
// sizes land in the SLC window.
std::vector<uint8_t> training_data(uint64_t seed, size_t blocks = 1024) {
  Rng rng(seed);
  std::vector<uint8_t> data;
  double walk = 50.0;
  for (size_t b = 0; b < blocks; ++b) {
    for (size_t i = 0; i < kBlockBytes / 4; ++i) {
      walk += rng.uniform(-1.0, 1.0);
      if (rng.chance(0.01)) walk = rng.uniform(1.0, 100.0);
      const float v = static_cast<float>(std::round(walk * 4.0) / 4.0);
      uint32_t bits;
      __builtin_memcpy(&bits, &v, 4);
      for (int k = 0; k < 4; ++k) data.push_back(static_cast<uint8_t>(bits >> (8 * k)));
    }
  }
  return data;
}

class SlcCodecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = training_data(2024);
    E2mcConfig cfg;
    cfg.sample_fraction = 0.25;
    e2mc_ = E2mcCompressor::train(data_, cfg);
  }

  SlcCodec make(SlcVariant v, size_t threshold = 16, size_t mag = 32) const {
    SlcConfig cfg;
    cfg.mag_bytes = mag;
    cfg.threshold_bytes = threshold;
    cfg.variant = v;
    return SlcCodec(e2mc_, cfg);
  }

  Block block(size_t i) const {
    return Block(std::span<const uint8_t>(data_).subspan(i * kBlockBytes, kBlockBytes));
  }

  std::vector<uint8_t> data_;
  std::shared_ptr<E2mcCompressor> e2mc_;
};

TEST_F(SlcCodecTest, HeaderIs32Bits) {
  EXPECT_EQ(SlcHeader::kBits, 32u);  // Fig. 6
}

TEST_F(SlcCodecTest, LatencyConstants) {
  // Sec. IV-A: 46 + 12 + 2 = 60 compress; decompress same as E2MC.
  EXPECT_EQ(SlcCodec::kCompressLatency, 60u);
  EXPECT_EQ(SlcCodec::kDecompressLatency, 20u);
}

TEST_F(SlcCodecTest, LossyBlocksFitBudget) {
  const SlcCodec codec = make(SlcVariant::kOpt);
  size_t lossy_count = 0;
  for (size_t i = 0; i < 512; ++i) {
    const Block b = block(i);
    const auto cb = test::compress_one(codec, b.view());
    if (cb.info.lossy) {
      ++lossy_count;
      // The paper's core promise: a lossy block occupies the bit budget —
      // the multiple of MAG below the lossless size (floored at one MAG).
      const size_t budget =
          std::max(cb.info.lossless_bits / (32 * 8) * (32 * 8), size_t{32 * 8});
      EXPECT_LE(cb.info.final_bits, budget) << "block " << i;
      EXPECT_LE(cb.info.bursts, budget / (32 * 8));
      // Fewer bursts than lossless would have needed.
      EXPECT_LT(cb.info.bursts, bursts_for_bits(cb.info.lossless_bits, 32));
    }
  }
  EXPECT_GT(lossy_count, 0u) << "test data must exercise the lossy path";
}

TEST_F(SlcCodecTest, ThresholdZeroMeansAlwaysLossless) {
  const SlcCodec codec = make(SlcVariant::kOpt, /*threshold=*/0);
  for (size_t i = 0; i < 256; ++i) {
    const auto cb = test::compress_one(codec, block(i).view());
    EXPECT_FALSE(cb.info.lossy);
  }
}

TEST_F(SlcCodecTest, LosslessRoundTripIsExact) {
  const SlcCodec codec = make(SlcVariant::kOpt, /*threshold=*/0);
  for (size_t i = 0; i < 256; ++i) {
    const Block b = block(i);
    EXPECT_EQ(codec.decompress(test::compress_one(codec, b.view()).data, kBlockBytes), b)
        << "block " << i;
  }
}

TEST_F(SlcCodecTest, LossyOnlyChangesTruncatedSymbols) {
  const SlcCodec codec = make(SlcVariant::kPred);
  for (size_t i = 0; i < 512; ++i) {
    const Block b = block(i);
    const auto cb = test::compress_one(codec, b.view());
    if (!cb.info.lossy) continue;
    const Block out = codec.decompress(cb.data, kBlockBytes);
    // Decode the header to learn the truncated range.
    BitReader r(cb.data.payload);
    const SlcHeader h = SlcHeader::read(r);
    ASSERT_TRUE(h.lossy);
    for (size_t s = 0; s < kSymbolsPerBlock; ++s) {
      const bool truncated =
          s >= h.start_symbol && s < size_t{h.start_symbol} + h.approx_count;
      if (!truncated) {
        EXPECT_EQ(out.symbol(s), b.symbol(s)) << "intact symbol " << s << " changed";
      }
    }
  }
}

TEST_F(SlcCodecTest, SimpFillsZeros) {
  const SlcCodec codec = make(SlcVariant::kSimp);
  for (size_t i = 0; i < 512; ++i) {
    const Block b = block(i);
    const auto cb = test::compress_one(codec, b.view());
    if (!cb.info.lossy) continue;
    const Block out = codec.decompress(cb.data, kBlockBytes);
    BitReader r(cb.data.payload);
    const SlcHeader h = SlcHeader::read(r);
    for (size_t s = h.start_symbol; s < size_t{h.start_symbol} + h.approx_count; ++s)
      EXPECT_EQ(out.symbol(s), 0u);
    return;  // one lossy block suffices
  }
}

TEST_F(SlcCodecTest, PredFillsParityMatchedNeighbour) {
  // Value-similarity prediction must respect the halfword lane: a truncated
  // low half is predicted by the nearest intact low half, a high half by the
  // nearest intact high half (see Sec. III-E; a single cross-lane predictor
  // would fabricate NaN/Inf floats).
  const SlcCodec codec = make(SlcVariant::kPred);
  size_t checked = 0;
  for (size_t i = 0; i < 512 && checked < 10; ++i) {
    const Block b = block(i);
    const auto cb = test::compress_one(codec, b.view());
    if (!cb.info.lossy) continue;
    ++checked;
    const Block out = codec.decompress(cb.data, kBlockBytes);
    BitReader r(cb.data.payload);
    const SlcHeader h = SlcHeader::read(r);
    uint16_t expected[2];
    for (size_t parity = 0; parity < 2; ++parity) {
      size_t idx = kSymbolsPerBlock;
      for (size_t s = h.start_symbol; s-- > 0;) {
        if (s % 2 == parity) {
          idx = s;
          break;
        }
      }
      if (idx == kSymbolsPerBlock) {
        for (size_t s = h.start_symbol + h.approx_count; s < kSymbolsPerBlock; ++s) {
          if (s % 2 == parity) {
            idx = s;
            break;
          }
        }
      }
      expected[parity] = out.symbol(idx);
    }
    for (size_t s = h.start_symbol; s < size_t{h.start_symbol} + h.approx_count; ++s)
      EXPECT_EQ(out.symbol(s), expected[s % 2]);
  }
  EXPECT_GT(checked, 0u);
}

TEST_F(SlcCodecTest, UncompressibleStoredRaw) {
  Rng rng(5);
  Block b;
  for (size_t i = 0; i < 16; ++i) b.set_word64(i, rng.next());
  const SlcCodec codec = make(SlcVariant::kOpt);
  const auto cb = test::compress_one(codec, b.view());
  EXPECT_TRUE(cb.info.stored_uncompressed);
  EXPECT_EQ(cb.info.bursts, 4u);
  EXPECT_EQ(codec.decompress(cb.data, kBlockBytes), b);
}

TEST_F(SlcCodecTest, HighlyCompressibleUsesOneBurst) {
  Block b;  // zeros -> far below 32 B -> lossless, one burst (Sec. III-B)
  const SlcCodec codec = make(SlcVariant::kOpt);
  const auto cb = test::compress_one(codec, b.view());
  EXPECT_FALSE(cb.info.lossy);
  EXPECT_EQ(cb.info.bursts, 1u);
  EXPECT_EQ(codec.decompress(cb.data, kBlockBytes), b);
}

TEST_F(SlcCodecTest, BurstsNeverExceedLossless) {
  const SlcCodec codec = make(SlcVariant::kOpt);
  for (size_t i = 0; i < 512; ++i) {
    const auto cb = test::compress_one(codec, block(i).view());
    const size_t lossless_bursts = bursts_for_bits(cb.info.lossless_bits, 32);
    EXPECT_LE(cb.info.bursts, lossless_bursts);
  }
}

TEST_F(SlcCodecTest, TruncatedBitsCoverExtraBits) {
  const SlcCodec codec = make(SlcVariant::kOpt);
  for (size_t i = 0; i < 512; ++i) {
    const auto cb = test::compress_one(codec, block(i).view());
    if (cb.info.lossy) {
      EXPECT_GE(cb.info.truncated_bits, cb.info.extra_bits);
      EXPECT_LE(cb.info.truncated_symbols, kMaxApproxSymbols);
    }
  }
}

TEST_F(SlcCodecTest, VariantNames) {
  EXPECT_STREQ(to_string(SlcVariant::kSimp), "TSLC-SIMP");
  EXPECT_STREQ(to_string(SlcVariant::kPred), "TSLC-PRED");
  EXPECT_STREQ(to_string(SlcVariant::kOpt), "TSLC-OPT");
}

// Parameterized sweep: the MAG-multiple invariant holds for every
// (variant, mag, threshold) combination.
using SweepParam = std::tuple<int, size_t, size_t>;
class SlcSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SlcSweepTest, LossyAlwaysMagMultiple) {
  const auto [variant, mag, threshold] = GetParam();
  const auto data = training_data(777);
  E2mcConfig ecfg;
  ecfg.sample_fraction = 0.25;
  auto e2mc = E2mcCompressor::train(data, ecfg);
  SlcConfig cfg;
  cfg.mag_bytes = mag;
  cfg.threshold_bytes = threshold;
  cfg.variant = static_cast<SlcVariant>(variant);
  const SlcCodec codec(e2mc, cfg);

  for (size_t i = 0; i < 256; ++i) {
    const Block b(std::span<const uint8_t>(data).subspan(i * kBlockBytes, kBlockBytes));
    const auto cb = test::compress_one(codec, b.view());
    if (cb.info.lossy) {
      const size_t budget =
          std::max(cb.info.lossless_bits / (mag * 8) * (mag * 8), mag * 8);
      EXPECT_LE(cb.info.final_bits, budget);
      EXPECT_LE(cb.info.bursts, budget / (mag * 8));
      EXPECT_LE(cb.info.extra_bits, threshold * 8);
      EXPECT_LT(cb.info.bursts, bursts_for_bits(cb.info.lossless_bits, mag));
    }
    // Decompression must always succeed and leave intact symbols intact.
    const Block out = codec.decompress(cb.data, kBlockBytes);
    if (!cb.info.lossy) {
      EXPECT_EQ(out, b);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    VariantsMagsThresholds, SlcSweepTest,
    ::testing::Combine(::testing::Values(0, 1, 2),          // SIMP, PRED, OPT
                       ::testing::Values<size_t>(16, 32, 64),  // MAG
                       ::testing::Values<size_t>(8, 16, 32))); // threshold

}  // namespace
}  // namespace slc
