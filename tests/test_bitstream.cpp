// BitWriter/BitReader: the foundation every codec builds on. BitWriter is
// the reference writer (bit_writer.h); the production SpanBitWriter must
// write the same bytes for any put() sequence.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bit_writer.h"
#include "common/bitstream.h"
#include "common/rng.h"
#include "compress/batch_writer.h"

namespace slc {
namespace {

using test::BitWriter;

TEST(BitWriter, EmptyStream) {
  BitWriter w;
  EXPECT_EQ(w.bit_size(), 0u);
  EXPECT_EQ(w.byte_size(), 0u);
  EXPECT_TRUE(w.bytes().empty());
}

TEST(BitWriter, SingleBits) {
  BitWriter w;
  w.put_bit(true);
  w.put_bit(false);
  w.put_bit(true);
  EXPECT_EQ(w.bit_size(), 3u);
  const auto bytes = w.bytes();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0b10100000);  // MSB-first
}

TEST(BitWriter, MultiBitMsbFirst) {
  BitWriter w;
  w.put(0b1011, 4);
  w.put(0b0110, 4);
  const auto bytes = w.bytes();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0b10110110);
}

TEST(BitWriter, CrossesByteBoundary) {
  BitWriter w;
  w.put(0x3FF, 10);  // 10 ones
  w.put(0, 6);
  const auto bytes = w.bytes();
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_EQ(bytes[0], 0xFF);
  EXPECT_EQ(bytes[1], 0xC0);
}

TEST(BitWriter, MasksValueToWidth) {
  BitWriter w;
  w.put(0xFFFF, 4);  // only the low 4 bits count
  EXPECT_EQ(w.bit_size(), 4u);
  EXPECT_EQ(w.bytes()[0], 0xF0);
}

TEST(BitWriter, ZeroWidthIsNoop) {
  BitWriter w;
  w.put(123, 0);
  EXPECT_EQ(w.bit_size(), 0u);
}

TEST(BitWriter, SixtyFourBitValue) {
  BitWriter w;
  const uint64_t v = 0xDEADBEEFCAFEBABEull;
  w.put(v, 64);
  const auto bytes = w.bytes();
  BitReader r(bytes);
  EXPECT_EQ(r.get(64), v);
}

TEST(BitWriter, PatchRewritesBits) {
  BitWriter w;
  w.put(0, 8);
  w.put(0xAB, 8);
  w.patch(0, 0xFF, 8);
  const auto bytes = w.bytes();
  EXPECT_EQ(bytes[0], 0xFF);
  EXPECT_EQ(bytes[1], 0xAB);
}

TEST(BitWriter, PatchUnaligned) {
  BitWriter w;
  w.put(0, 16);
  w.patch(3, 0b101, 3);
  const auto bytes = w.bytes();
  BitReader r(bytes);
  r.skip(3);
  EXPECT_EQ(r.get(3), 0b101u);
}

TEST(BitWriter, ClearResets) {
  BitWriter w;
  w.put(0xFF, 8);
  w.clear();
  EXPECT_EQ(w.bit_size(), 0u);
  w.put(1, 1);
  EXPECT_EQ(w.bytes()[0], 0x80);
}

TEST(BitReader, ReadsBackWrittenValues) {
  BitWriter w;
  w.put(5, 3);
  w.put(1000, 12);
  w.put(1, 1);
  const auto bytes = w.bytes();
  BitReader r(bytes);
  EXPECT_EQ(r.get(3), 5u);
  EXPECT_EQ(r.get(12), 1000u);
  EXPECT_TRUE(r.get_bit());
}

TEST(BitReader, PeekDoesNotConsume) {
  BitWriter w;
  w.put(0b1010, 4);
  const auto bytes = w.bytes();
  BitReader r(bytes);
  EXPECT_EQ(r.peek(4), 0b1010u);
  EXPECT_EQ(r.position(), 0u);
  EXPECT_EQ(r.get(4), 0b1010u);
  EXPECT_EQ(r.position(), 4u);
}

TEST(BitReader, OverrunReturnsZerosAndFlags) {
  BitWriter w;
  w.put(0xFF, 8);
  const auto bytes = w.bytes();
  BitReader r(bytes);
  r.skip(8);
  EXPECT_EQ(r.get(8), 0u);
  EXPECT_TRUE(r.overrun());
}

TEST(BitReader, SeekRepositions) {
  BitWriter w;
  w.put(0xAB, 8);
  w.put(0xCD, 8);
  const auto bytes = w.bytes();
  BitReader r(bytes);
  r.seek(8);
  EXPECT_EQ(r.get(8), 0xCDu);
  r.seek(0);
  EXPECT_EQ(r.get(8), 0xABu);
}

// Property: any sequence of (value, width) pairs round-trips.
TEST(BitStreamProperty, RandomRoundTrip) {
  Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    BitWriter w;
    std::vector<std::pair<uint64_t, unsigned>> items;
    for (int i = 0; i < 50; ++i) {
      const unsigned width = 1 + static_cast<unsigned>(rng.next_below(64));
      const uint64_t value =
          width == 64 ? rng.next() : rng.next() & ((uint64_t{1} << width) - 1);
      items.emplace_back(value, width);
      w.put(value, width);
    }
    const auto bytes = w.bytes();
    BitReader r(bytes);
    for (const auto& [value, width] : items) {
      EXPECT_EQ(r.get(width), value) << "trial " << trial;
    }
    EXPECT_FALSE(r.overrun());
  }
}

// Property: for any put() sequence, widths 0-64 (so every put above 56
// bits takes the accumulator's split path), SpanBitWriter writes exactly
// BitWriter's bytes and bit count.
TEST(BitStreamProperty, SpanWriterMatchesReferenceWriter) {
  Rng rng(0x5BA7);
  size_t split_puts = 0;
  for (int trial = 0; trial < 200; ++trial) {
    BitWriter ref;
    std::vector<uint8_t> buf(50 * 8 + 1, 0xA5);  // poisoned: every byte must be written
    detail::SpanBitWriter w(buf.data());
    const size_t n_puts = rng.next_below(51);
    for (size_t i = 0; i < n_puts; ++i) {
      const auto width = static_cast<unsigned>(rng.next_below(65));
      const uint64_t value = rng.next();  // high bits above `width` must be masked off
      ref.put(value, width);
      w.put(value, width);
      if (width > 56) ++split_puts;
    }
    EXPECT_EQ(w.bit_size(), ref.bit_size()) << "trial " << trial;
    const size_t len = w.finish();
    const std::vector<uint8_t> want = ref.bytes();
    ASSERT_EQ(len, want.size()) << "trial " << trial;
    EXPECT_TRUE(std::equal(want.begin(), want.end(), buf.begin())) << "trial " << trial;
  }
  EXPECT_GT(split_puts, 0u);
}

}  // namespace
}  // namespace slc
