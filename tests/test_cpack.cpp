// C-PACK: dictionary behaviour, pattern codes, round trip.
#include <gtest/gtest.h>

#include <stdexcept>

#include "common/rng.h"
#include "compress/cpack.h"

namespace slc {
namespace {

TEST(Cpack, CodeBits) {
  const CpackCompressor c(16);
  EXPECT_EQ(c.code_bits(CpackCode::kZZZZ), 2u);
  EXPECT_EQ(c.code_bits(CpackCode::kXXXX), 34u);
  EXPECT_EQ(c.code_bits(CpackCode::kMMMM), 6u);
  EXPECT_EQ(c.code_bits(CpackCode::kMMXX), 24u);
  EXPECT_EQ(c.code_bits(CpackCode::kZZZX), 12u);
  EXPECT_EQ(c.code_bits(CpackCode::kMMMX), 16u);
}

TEST(Cpack, AllZeros) {
  Block b;
  const CpackCompressor c;
  const auto cb = c.compress(b.view());
  EXPECT_TRUE(cb.is_compressed);
  EXPECT_EQ(cb.bit_size, 32u * 2u);  // 32 zzzz codes
  EXPECT_EQ(c.decompress(cb, kBlockBytes), b);
}

TEST(Cpack, RepeatedWordUsesDictionary) {
  Block b;
  for (size_t i = 0; i < 32; ++i) b.set_word32(i, 0xCAFEBABE);
  const CpackCompressor c;
  const auto cb = c.compress(b.view());
  // First word xxxx (34), remaining 31 mmmm (6).
  EXPECT_EQ(cb.bit_size, 34u + 31u * 6u);
  EXPECT_EQ(c.decompress(cb, kBlockBytes), b);
}

TEST(Cpack, PartialMatchUpperBytes) {
  Block b;
  b.set_word32(0, 0x11223344);
  b.set_word32(1, 0x11223399);  // mmmx: upper 3 bytes match
  b.set_word32(2, 0x1122AABB);  // mmxx: upper 2 bytes match
  const CpackCompressor c;
  const auto cb = c.compress(b.view());
  EXPECT_EQ(c.decompress(cb, kBlockBytes), b);
}

TEST(Cpack, LowByteOnlyPattern) {
  Block b;
  for (size_t i = 0; i < 32; ++i) b.set_word32(i, static_cast<uint32_t>(i + 1));
  const CpackCompressor c;
  const auto cb = c.compress(b.view());
  // zzzx codes: 12 bits each (values 1..32 all fit one byte).
  EXPECT_EQ(cb.bit_size, 32u * 12u);
  EXPECT_EQ(c.decompress(cb, kBlockBytes), b);
}

TEST(Cpack, DictionaryEvictionFifo) {
  // 20 distinct words overflow the 16-entry FIFO; re-referencing the first
  // word afterwards must re-insert (xxxx), not match.
  Block b;
  for (size_t i = 0; i < 20; ++i)
    b.set_word32(i, 0xA0000000u + static_cast<uint32_t>(i) * 0x01010101u);
  b.set_word32(20, 0xA0000000u);  // evicted by now
  const CpackCompressor c;
  EXPECT_EQ(c.decompress(c.compress(b.view()), kBlockBytes), b);
}

TEST(Cpack, SmallDictionary) {
  const CpackCompressor c(4);  // 2-bit indices
  EXPECT_EQ(c.code_bits(CpackCode::kMMMM), 4u);
  Block b;
  for (size_t i = 0; i < 32; ++i) b.set_word32(i, 0xBEEF0000u + static_cast<uint32_t>(i % 3));
  EXPECT_EQ(c.decompress(c.compress(b.view()), kBlockBytes), b);
}

TEST(Cpack, RandomDataFallsBackOrRoundTrips) {
  Rng rng(55);
  const CpackCompressor c;
  Block b;
  for (size_t i = 0; i < 32; ++i) b.set_word32(i, static_cast<uint32_t>(rng.next()));
  const auto cb = c.compress(b.view());
  EXPECT_EQ(c.decompress(cb, kBlockBytes), b);
  EXPECT_LE(cb.bit_size, kBlockBytes * 8);
}

// The dictionary is a 64-slot ring indexed by log2(entries) bits, so only
// powers of two in [2, 64] are valid. Release builds used to accept the rest:
// 0 never wrapped the ring and wrote past it; 6 emitted 3-bit indices the
// decoder resolved against a different entry.
TEST(CpackCompressor, RejectsDictionarySizesItCannotIndex) {
  for (const size_t bad : {0, 1, 3, 6, 128})
    EXPECT_THROW(CpackCompressor{bad}, std::invalid_argument) << bad;

  // Blocks of 32 distinct words (every slot of every ring of up to 32
  // entries is reused), and of words drawn from four values.
  Rng rng(0xD1C7);
  Block distinct, four;
  const uint32_t values[] = {0x11223344u, 0x55667788u, 0x99AABBCCu, 0xDDEEFF01u};
  for (size_t i = 0; i < kBlockBytes / 4; ++i) {
    distinct.set_word32(i, 0x01000000u + static_cast<uint32_t>(i) * 0x01010101u);
    four.set_word32(i, values[rng.next_below(4)]);
  }
  for (const size_t dict : {2, 4, 8, 16, 32, 64}) {
    const CpackCompressor c(dict);
    for (const Block* b : {&distinct, &four}) {
      const auto cb = c.compress(b->view());
      EXPECT_EQ(c.decompress(cb, b->size()), *b) << dict;
    }
  }
}

TEST(CpackProperty, RoundTripValueLocality) {
  Rng rng(66);
  const CpackCompressor c;
  for (int trial = 0; trial < 500; ++trial) {
    Block b;
    uint32_t base = static_cast<uint32_t>(rng.next());
    for (size_t i = 0; i < 32; ++i) {
      if (rng.chance(0.2)) base = static_cast<uint32_t>(rng.next());
      const uint32_t jitter = static_cast<uint32_t>(rng.next_below(1 << (8 * rng.next_below(3))));
      b.set_word32(i, base + jitter);
    }
    const auto cb = c.compress(b.view());
    EXPECT_EQ(c.decompress(cb, kBlockBytes), b) << "trial " << trial;
  }
}

}  // namespace
}  // namespace slc
