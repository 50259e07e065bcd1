// BDI: per-encoding behaviour plus the lossless round-trip property.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "compress/bdi.h"

namespace slc {
namespace {

// The encoding the kernel chose: the payload's leading 4-bit tag, or
// kUncompressed for a block stored raw.
BdiEncoding encoding_of(const BdiCompressor& c, const Block& b) {
  const CompressedBlock cb = c.compress(b.view());
  if (!cb.is_compressed) return BdiEncoding::kUncompressed;
  return static_cast<BdiEncoding>(cb.payload.at(0) >> 4);
}

TEST(Bdi, ZeroBlock) {
  Block b;
  const BdiCompressor c;
  EXPECT_EQ(encoding_of(c, b), BdiEncoding::kZeros);
  const auto cb = c.compress(b.view());
  EXPECT_TRUE(cb.is_compressed);
  EXPECT_EQ(cb.bit_size, 4u);  // tag only
  EXPECT_EQ(c.decompress(cb, kBlockBytes), b);
}

TEST(Bdi, RepeatedValue) {
  Block b;
  for (size_t i = 0; i < 16; ++i) b.set_word64(i, 0x1122334455667788ull);
  const BdiCompressor c;
  EXPECT_EQ(encoding_of(c, b), BdiEncoding::kRepeat64);
  const auto cb = c.compress(b.view());
  EXPECT_EQ(cb.bit_size, 68u);
  EXPECT_EQ(c.decompress(cb, kBlockBytes), b);
}

TEST(Bdi, Base8Delta1) {
  Block b;
  for (size_t i = 0; i < 16; ++i) b.set_word64(i, 0x1000000000ull + i);
  const BdiCompressor c;
  EXPECT_EQ(encoding_of(c, b), BdiEncoding::kBase8Delta1);
  const auto cb = c.compress(b.view());
  EXPECT_EQ(cb.bit_size, BdiCompressor::encoding_bits(BdiEncoding::kBase8Delta1, kBlockBytes));
  EXPECT_EQ(c.decompress(cb, kBlockBytes), b);
}

TEST(Bdi, Base8Delta1WithZeroImmediates) {
  // Mix of small values (zero base) and big values (explicit base): the
  // dual-base scheme must still encode with 1-byte deltas.
  Block b;
  for (size_t i = 0; i < 16; ++i)
    b.set_word64(i, (i % 2) ? 0x2000000000ull + i : i);  // small evens
  const BdiCompressor c;
  EXPECT_EQ(encoding_of(c, b), BdiEncoding::kBase8Delta1);
  EXPECT_EQ(c.decompress(c.compress(b.view()), kBlockBytes), b);
}

TEST(Bdi, Base4Delta1) {
  Block b;
  // 32-bit words near a large base: as 64-bit pairs the deltas span the
  // upper word, so only the 4-byte-base encoding fits 1-byte deltas.
  for (size_t i = 0; i < 32; ++i) b.set_word32(i, 0x40000000u + static_cast<uint32_t>(i * 3));
  const BdiCompressor c;
  EXPECT_EQ(encoding_of(c, b), BdiEncoding::kBase4Delta1);
  EXPECT_EQ(c.decompress(c.compress(b.view()), kBlockBytes), b);
}

TEST(Bdi, NegativeDeltas) {
  Block b;
  for (size_t i = 0; i < 16; ++i)
    b.set_word64(i, 0x5000000000ull - i * 7);
  const BdiCompressor c;
  const auto cb = c.compress(b.view());
  EXPECT_TRUE(cb.is_compressed);
  EXPECT_EQ(c.decompress(cb, kBlockBytes), b);
}

TEST(Bdi, IncompressibleFallsBack) {
  Rng rng(11);
  Block b;
  for (size_t i = 0; i < 16; ++i) b.set_word64(i, rng.next());
  const BdiCompressor c;
  const auto cb = c.compress(b.view());
  EXPECT_FALSE(cb.is_compressed);
  EXPECT_EQ(cb.bit_size, kBlockBytes * 8);
  EXPECT_EQ(c.decompress(cb, kBlockBytes), b);
}

TEST(Bdi, EncodingBitsTable) {
  EXPECT_EQ(BdiCompressor::encoding_bits(BdiEncoding::kZeros, 128), 4u);
  EXPECT_EQ(BdiCompressor::encoding_bits(BdiEncoding::kRepeat64, 128), 68u);
  // B8D1: 4 + 64 + 16 mask + 16*8 deltas = 212.
  EXPECT_EQ(BdiCompressor::encoding_bits(BdiEncoding::kBase8Delta1, 128), 212u);
  // B4D1: 4 + 32 + 32 + 32*8 = 324.
  EXPECT_EQ(BdiCompressor::encoding_bits(BdiEncoding::kBase4Delta1, 128), 324u);
  EXPECT_EQ(BdiCompressor::encoding_bits(BdiEncoding::kUncompressed, 128), 1024u);
}

TEST(Bdi, PicksSmallestValidEncoding) {
  // Values within +-127 of a base: B8D1 (212 bits) must win over B8D2.
  Block b;
  for (size_t i = 0; i < 16; ++i) b.set_word64(i, 0x7777777700ull + i * 5);
  EXPECT_EQ(encoding_of(BdiCompressor{}, b), BdiEncoding::kBase8Delta1);
}

// Property: round trip is the identity for random structured blocks.
TEST(BdiProperty, RoundTripStructured) {
  Rng rng(22);
  const BdiCompressor c;
  for (int trial = 0; trial < 500; ++trial) {
    Block b;
    const uint64_t base = rng.next();
    const int spread = 1 << rng.next_below(20);
    for (size_t i = 0; i < 16; ++i) {
      b.set_word64(i, base + rng.next_below(static_cast<uint64_t>(spread)));
    }
    const auto cb = c.compress(b.view());
    EXPECT_EQ(c.decompress(cb, kBlockBytes), b) << "trial " << trial;
    EXPECT_LE(cb.bit_size, kBlockBytes * 8);
  }
}

}  // namespace
}  // namespace slc
