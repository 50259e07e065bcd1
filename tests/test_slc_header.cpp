// SLC compressed-block header (Fig. 6): m + ss + len + 3 pdps = 32 bits.
// SlcHeader::write's bytes are checked against the Fig. 6 fields written one
// by one through the reference BitWriter, and SlcHeader::read must reject a
// lossy window that leaves the block.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "bit_writer.h"
#include "compress/batch_writer.h"
#include "core/slc_header.h"

namespace slc {
namespace {

// `h` through SlcHeader::write for a 128 B / 4-way / 64-symbol block,
// followed by `tail` (the start of the way data).
std::vector<uint8_t> write_header(const SlcHeader& h, std::vector<uint8_t> tail = {}) {
  std::vector<uint8_t> buf(SlcHeader::padded_bytes(128, 4, 64) + tail.size());
  detail::SpanBitWriter w(buf.data());
  h.write(w, 128, 4, 64);
  EXPECT_EQ(w.bit_size(), 32u);
  for (const uint8_t b : tail) w.put(b, 8);
  EXPECT_EQ(w.finish(), buf.size());
  return buf;
}

// The same header, field by field: m (1), ss (6), len = count-1 (4), three
// 7-bit pdps.
std::vector<uint8_t> fig6_reference(const SlcHeader& h) {
  test::BitWriter w;
  w.put_bit(h.lossy);
  w.put(h.start_symbol, 6);
  w.put(h.approx_count == 0 ? 0 : h.approx_count - 1u, 4);
  for (unsigned i = 1; i < 4; ++i) w.put(h.way_offsets[i], 7);
  return w.bytes();
}

TEST(SlcHeader, BitsMatchFig6) {
  // 1 (m) + 6 (ss) + 4 (len) + 3*7 (pdp) = 32 bits for 128 B / 4 ways.
  EXPECT_EQ(SlcHeader::bits(128, 4, 64), 32u);
  EXPECT_EQ(SlcHeader::padded_bytes(128, 4, 64), 4u);
}

TEST(SlcHeader, BitsForOtherGeometries) {
  // 64 B block, 2 ways: 1 + 5 (32 symbols) + 4 + 1*6 = 16 bits.
  EXPECT_EQ(SlcHeader::bits(64, 2, 32), 16u);
}

TEST(SlcHeader, RoundTripLossless) {
  SlcHeader h;
  h.lossy = false;
  h.way_offsets[1] = 17;
  h.way_offsets[2] = 43;
  h.way_offsets[3] = 101;
  const auto bytes = write_header(h);
  EXPECT_EQ(bytes, fig6_reference(h));

  BitReader r(bytes);
  const SlcHeader back = SlcHeader::read(r, 128, 4, 64);
  EXPECT_FALSE(back.lossy);
  EXPECT_EQ(back.approx_count, 0);
  EXPECT_EQ(back.way_offsets[1], 17);
  EXPECT_EQ(back.way_offsets[2], 43);
  EXPECT_EQ(back.way_offsets[3], 101);
}

TEST(SlcHeader, RoundTripLossy) {
  SlcHeader h;
  h.lossy = true;
  h.start_symbol = 48;
  h.approx_count = 16;  // max: stored as 15 in the 4-bit field
  const auto bytes = write_header(h);
  EXPECT_EQ(bytes, fig6_reference(h));
  BitReader r(bytes);
  const SlcHeader back = SlcHeader::read(r, 128, 4, 64);
  EXPECT_TRUE(back.lossy);
  EXPECT_EQ(back.start_symbol, 48);
  EXPECT_EQ(back.approx_count, 16);
}

TEST(SlcHeader, AllLenValues) {
  for (uint8_t count = 1; count <= 16; ++count) {
    SlcHeader h;
    h.lossy = true;
    h.start_symbol = static_cast<uint8_t>(count % 64);
    h.approx_count = count;
    const auto bytes = write_header(h);
    EXPECT_EQ(bytes, fig6_reference(h)) << int{count};
    BitReader r(bytes);
    const SlcHeader back = SlcHeader::read(r, 128, 4, 64);
    EXPECT_EQ(back.approx_count, count);
    EXPECT_EQ(back.start_symbol, count % 64);
  }
}

// A lossy window ending at the last symbol is read, one symbol further is
// not (at 96 B and 128 B). ss is 6 bits at both sizes, so it holds 0..63.
TEST(SlcHeader, ReadRejectsWindowLeavingTheBlock) {
  for (const size_t block_bytes : {size_t{96}, size_t{128}}) {
    const size_t n_sym = block_bytes / 2;
    for (const size_t count : {size_t{1}, size_t{9}, size_t{16}}) {
      for (const size_t start : {n_sym - count, n_sym - count + 1, size_t{63}}) {
        if (start > 63) continue;
        SlcHeader h;
        h.lossy = true;
        h.start_symbol = static_cast<uint32_t>(start);
        h.approx_count = static_cast<uint8_t>(count);
        std::vector<uint8_t> bytes(SlcHeader::padded_bytes(block_bytes, 4, n_sym));
        detail::SpanBitWriter w(bytes.data());
        h.write(w, block_bytes, 4, n_sym);
        w.finish();
        BitReader r(bytes);
        const std::string what = std::to_string(block_bytes) + " B, ss " +
                                 std::to_string(start) + " len " + std::to_string(count);
        if (start + count <= n_sym) {
          EXPECT_EQ(SlcHeader::read(r, block_bytes, 4, n_sym).start_symbol, start) << what;
        } else {
          EXPECT_THROW(SlcHeader::read(r, block_bytes, 4, n_sym), std::invalid_argument) << what;
        }
      }
    }
  }
}

TEST(SlcHeader, ReaderLeavesPositionByteAligned) {
  const auto bytes = write_header(SlcHeader{}, {0xAB});  // payload byte after the header
  BitReader r(bytes);
  SlcHeader::read(r, 128, 4, 64);
  EXPECT_EQ(r.position() % 8, 0u);
  EXPECT_EQ(r.get(8), 0xABu);
}

}  // namespace
}  // namespace slc
