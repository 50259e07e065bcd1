// Block geometry and MAG rounding helpers.
#include <gtest/gtest.h>

#include <stdexcept>

#include "common/block.h"

namespace slc {
namespace {

TEST(Block, DefaultIsZeroed128) {
  Block b;
  EXPECT_EQ(b.size(), kBlockBytes);
  for (uint8_t byte : b.bytes()) EXPECT_EQ(byte, 0);
}

TEST(Block, SymbolLittleEndian) {
  std::vector<uint8_t> bytes(kBlockBytes);
  bytes[0] = 0x34;
  bytes[1] = 0x12;
  const Block b(std::move(bytes));
  EXPECT_EQ(b.symbol(0), 0x1234);
}

TEST(Block, SetSymbolRoundTrip) {
  Block b;
  for (size_t i = 0; i < kSymbolsPerBlock; ++i)
    b.set_symbol(i, static_cast<uint16_t>(i * 257));
  for (size_t i = 0; i < kSymbolsPerBlock; ++i)
    EXPECT_EQ(b.symbol(i), static_cast<uint16_t>(i * 257));
}

TEST(Block, Word32AndSymbolsAgree) {
  Block b;
  b.set_word32(0, 0xAABBCCDD);
  EXPECT_EQ(b.symbol(0), 0xCCDD);  // low half first (little endian)
  EXPECT_EQ(b.symbol(1), 0xAABB);
}

TEST(Block, Word64RoundTrip) {
  Block b;
  b.set_word64(3, 0x0123456789ABCDEFull);
  EXPECT_EQ(b.view().word64(3), 0x0123456789ABCDEFull);
}

TEST(Geometry, SymbolsPerBlock) {
  EXPECT_EQ(kSymbolsPerBlock, 64u);
  EXPECT_EQ(kBlockBytes, 128u);
  EXPECT_EQ(kSymbolBits, 16u);
}

TEST(MagRounding, RoundUpToMagBits) {
  EXPECT_EQ(round_up_to_mag_bits(0, 32), 0u);
  EXPECT_EQ(round_up_to_mag_bits(1, 32), 256u);
  EXPECT_EQ(round_up_to_mag_bits(256, 32), 256u);
  EXPECT_EQ(round_up_to_mag_bits(257, 32), 512u);
  EXPECT_EQ(round_up_to_mag_bits(513, 32), 768u);
}

TEST(MagRounding, BurstsForBits) {
  // The paper's example: a 36 B block fetches 64 B (2 bursts) at MAG 32 B.
  EXPECT_EQ(bursts_for_bits(36 * 8, 32), 2u);
  EXPECT_EQ(bursts_for_bits(0, 32), 1u);    // minimum one burst
  EXPECT_EQ(bursts_for_bits(32 * 8, 32), 1u);
  EXPECT_EQ(bursts_for_bits(33 * 8, 32), 2u);
  EXPECT_EQ(bursts_for_bits(1024, 32), 4u);
  EXPECT_EQ(bursts_for_bits(2000, 32), 4u);  // capped at block size
}

TEST(MagRounding, BurstsAtOtherMags) {
  EXPECT_EQ(bursts_for_bits(100 * 8, 16), 7u);
  EXPECT_EQ(bursts_for_bits(100 * 8, 64), 2u);
  EXPECT_EQ(bursts_for_bits(129 * 8, 64), 2u);  // capped
}

TEST(MagRounding, BytesAboveMag) {
  EXPECT_EQ(bytes_above_mag(36, 32), 4u);
  EXPECT_EQ(bytes_above_mag(64, 32), 0u);
  EXPECT_EQ(bytes_above_mag(95, 32), 31u);
  EXPECT_EQ(bytes_above_mag(5, 16), 5u);
}

TEST(ToBlocks, ExactMultiple) {
  std::vector<uint8_t> data(256, 0xAB);
  const auto blocks = to_blocks(data);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].size(), kBlockBytes);
}

TEST(ToBlocks, PadsTail) {
  std::vector<uint8_t> data(130, 0xCD);
  const auto blocks = to_blocks(data);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[1].bytes()[0], 0xCD);
  EXPECT_EQ(blocks[1].bytes()[1], 0xCD);
  EXPECT_EQ(blocks[1].bytes()[2], 0x00);
}

TEST(ToBlocks, NoPadWhenDisabled) {
  std::vector<uint8_t> data(130, 0xCD);
  const auto blocks = to_blocks(data, kBlockBytes, /*pad_tail=*/false);
  ASSERT_EQ(blocks.size(), 1u);
}

TEST(ToBlocks, RejectsZeroBlockBytes) {
  std::vector<uint8_t> data(130, 0xCD);
  EXPECT_THROW(to_blocks(data, 0), std::invalid_argument);
  EXPECT_THROW(to_blocks(data, 0, /*pad_tail=*/false), std::invalid_argument);
}

}  // namespace
}  // namespace slc
