// FPC: pattern classification, zero runs, and the round-trip property.
#include <gtest/gtest.h>

#include <utility>

#include "common/bitstream.h"
#include "common/rng.h"
#include "compress/fpc.h"

namespace slc {
namespace {

// Word `w` followed by a zero word through the compressor: the pattern in
// w's 3-bit prefix, and the block's bits. The zero word costs one 6-bit run,
// and at most 3 + 32 + 6 bits the 8 B block is never stored raw.
std::pair<FpcPattern, size_t> encode_word(uint32_t w) {
  Block b(8);
  b.set_word32(0, w);
  const CompressedBlock cb = FpcCompressor().compress(b.view());
  EXPECT_TRUE(cb.is_compressed);
  BitReader r(cb.payload);
  return {static_cast<FpcPattern>(r.get(3)), cb.bit_size};
}

TEST(Fpc, ClassifyPatterns) {
  EXPECT_EQ(encode_word(0x00000003).first, FpcPattern::kSignExt4);
  EXPECT_EQ(encode_word(0xFFFFFFFD).first, FpcPattern::kSignExt4);  // -3
  EXPECT_EQ(encode_word(0x0000007F).first, FpcPattern::kSignExt8);
  EXPECT_EQ(encode_word(0xFFFFFF80).first, FpcPattern::kSignExt8);
  EXPECT_EQ(encode_word(0x00001234).first, FpcPattern::kSignExt16);
  EXPECT_EQ(encode_word(0x12340000).first, FpcPattern::kHalfwordPadded);
  EXPECT_EQ(encode_word(0x007F0071).first, FpcPattern::kTwoHalfwordsSE);
  EXPECT_EQ(encode_word(0xABABABAB).first, FpcPattern::kRepeatedBytes);
  EXPECT_EQ(encode_word(0x12345678).first, FpcPattern::kUncompressed);
}

TEST(Fpc, PayloadBits) {
  // Prefix + payload, then the zero word's run (prefix + 3-bit length).
  EXPECT_EQ(encode_word(0x00000003).second, 3u + 4u + 6u);   // kSignExt4
  EXPECT_EQ(encode_word(0x12345678).second, 3u + 32u + 6u);  // kUncompressed
  EXPECT_EQ(FpcCompressor().compress(Block(8).view()).bit_size, 3u + 3u);  // kZeroRun
}

TEST(Fpc, AllZerosUsesRuns) {
  Block b;  // 32 zero words -> 4 runs of 8 -> 4 * 6 bits
  const FpcCompressor c;
  const auto cb = c.compress(b.view());
  EXPECT_TRUE(cb.is_compressed);
  EXPECT_EQ(cb.bit_size, 4u * 6u);
  EXPECT_EQ(c.decompress(cb, kBlockBytes), b);
}

TEST(Fpc, ZeroRunSplitByValue) {
  Block b;
  b.set_word32(3, 0x12345678);  // splits the zero run
  const FpcCompressor c;
  const auto cb = c.compress(b.view());
  EXPECT_EQ(c.decompress(cb, kBlockBytes), b);
}

TEST(Fpc, SmallIntegerBlockCompressesWell) {
  Block b;
  for (size_t i = 0; i < 32; ++i) b.set_word32(i, static_cast<uint32_t>(i % 7));
  const FpcCompressor c;
  const auto cb = c.compress(b.view());
  EXPECT_TRUE(cb.is_compressed);
  // All words fit kSignExt4 (3+4 bits) or zero runs: far below 30 bytes.
  EXPECT_LT(cb.byte_size(), 30u);
  EXPECT_EQ(c.decompress(cb, kBlockBytes), b);
}

TEST(Fpc, NegativeValuesSignExtend) {
  Block b;
  for (size_t i = 0; i < 32; ++i) b.set_word32(i, static_cast<uint32_t>(-static_cast<int>(i)));
  const FpcCompressor c;
  EXPECT_EQ(c.decompress(c.compress(b.view()), kBlockBytes), b);
}

TEST(Fpc, RandomDataFallsBack) {
  Rng rng(33);
  Block b;
  for (size_t i = 0; i < 32; ++i) b.set_word32(i, static_cast<uint32_t>(rng.next()));
  const FpcCompressor c;
  const auto cb = c.compress(b.view());
  // Either fell back or stayed compressed; round trip must hold regardless.
  EXPECT_EQ(c.decompress(cb, kBlockBytes), b);
}

TEST(FpcProperty, RoundTripMixed) {
  Rng rng(44);
  const FpcCompressor c;
  for (int trial = 0; trial < 500; ++trial) {
    Block b;
    for (size_t i = 0; i < 32; ++i) {
      switch (rng.next_below(6)) {
        case 0: b.set_word32(i, 0); break;
        case 1: b.set_word32(i, static_cast<uint32_t>(rng.next_below(16)) - 8u); break;
        case 2: b.set_word32(i, static_cast<uint32_t>(rng.next_below(65536))); break;
        case 3: b.set_word32(i, static_cast<uint32_t>(rng.next_below(256)) * 0x01010101u); break;
        case 4: b.set_word32(i, static_cast<uint32_t>(rng.next_below(65536)) << 16); break;
        default: b.set_word32(i, static_cast<uint32_t>(rng.next())); break;
      }
    }
    const auto cb = c.compress(b.view());
    EXPECT_EQ(c.decompress(cb, kBlockBytes), b) << "trial " << trial;
    EXPECT_LE(cb.bit_size, kBlockBytes * 8);
  }
}

}  // namespace
}  // namespace slc
