// Huffman machinery: package-merge optimality/limits, canonical codes,
// escape coding, decode LUT.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/rng.h"
#include "compress/huffman.h"

namespace slc {
namespace {

double kraft_sum(std::span<const unsigned> lens) {
  double k = 0;
  for (unsigned l : lens) k += std::pow(2.0, -static_cast<double>(l));
  return k;
}

TEST(PackageMerge, TwoSymbols) {
  const uint64_t w[] = {1, 100};
  const auto lens = package_merge_lengths(w, 16);
  EXPECT_EQ(lens[0], 1u);
  EXPECT_EQ(lens[1], 1u);
}

TEST(PackageMerge, KraftEquality) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<uint64_t> w(2 + rng.next_below(64));
    for (auto& x : w) x = 1 + rng.next_below(10000);
    const auto lens = package_merge_lengths(w, 16);
    EXPECT_NEAR(kraft_sum(lens), 1.0, 1e-9) << "trial " << trial;
  }
}

TEST(PackageMerge, RespectsLengthLimit) {
  // Fibonacci-like weights force deep unconstrained Huffman trees.
  std::vector<uint64_t> w = {1, 1};
  while (w.size() < 32) w.push_back(w[w.size() - 1] + w[w.size() - 2]);
  for (unsigned limit : {6u, 8u, 12u}) {
    const auto lens = package_merge_lengths(w, limit);
    for (unsigned l : lens) EXPECT_LE(l, limit);
    EXPECT_NEAR(kraft_sum(lens), 1.0, 1e-9);
  }
}

TEST(PackageMerge, MatchesHuffmanWhenUnconstrained) {
  // With a generous limit, total weighted length must equal a classic
  // Huffman construction's.
  const uint64_t w[] = {5, 9, 12, 13, 16, 45};
  const auto lens = package_merge_lengths(w, 16);
  uint64_t cost = 0;
  for (size_t i = 0; i < 6; ++i) cost += w[i] * lens[i];
  EXPECT_EQ(cost, 224u);  // textbook value for this weight set
}

TEST(PackageMerge, SingleSymbol) {
  const uint64_t w[] = {7};
  const auto lens = package_merge_lengths(w, 16);
  EXPECT_EQ(lens[0], 1u);
}

TEST(PackageMerge, ThrowsWhenImpossible) {
  std::vector<uint64_t> w(32, 1);
  EXPECT_THROW(package_merge_lengths(w, 4), std::invalid_argument);  // 2^4 < 32
  EXPECT_NO_THROW(package_merge_lengths(w, 5));
}

TEST(SymbolFrequencies, CountsLittleEndianSymbols) {
  SymbolFrequencies f;
  const uint8_t data[] = {0x34, 0x12, 0x34, 0x12, 0x78, 0x56};
  f.add_data(data);
  EXPECT_EQ(f.count(0x1234), 2u);
  EXPECT_EQ(f.count(0x5678), 1u);
  EXPECT_EQ(f.total(), 3u);
  EXPECT_EQ(f.count(0x1234) + f.count(0x5678), f.total());  // no other symbol counted
}

TEST(HuffmanCode, FrequentSymbolsGetShortCodes) {
  SymbolFrequencies f;
  f.add_symbol(0xAAAA, 1000);
  f.add_symbol(0xBBBB, 10);
  f.add_symbol(0xCCCC, 1);
  const auto code = HuffmanCode::build(f, 1024, 16);
  EXPECT_LE(code.codeword_len(0xAAAA), code.codeword_len(0xBBBB));
  EXPECT_LE(code.codeword_len(0xBBBB), code.codeword_len(0xCCCC));
}

TEST(HuffmanCode, EscapeForUncoveredSymbols) {
  SymbolFrequencies f;
  f.add_symbol(1, 100);
  f.add_symbol(2, 100);
  const auto code = HuffmanCode::build(f, 1024, 16);
  EXPECT_FALSE(code.in_table(999));
  EXPECT_EQ(code.encoded_bits(999), code.esc_len() + 16u);
  EXPECT_GT(code.esc_len(), 0u);
}

TEST(HuffmanCode, TableEntryLimit) {
  SymbolFrequencies f;
  for (uint32_t s = 0; s < 3000; ++s) f.add_symbol(static_cast<uint16_t>(s), 3000 - s);
  const auto code = HuffmanCode::build(f, 256, 16);
  size_t in_table = 0;
  for (uint32_t s = 0; s < 3000; ++s) in_table += code.in_table(static_cast<uint16_t>(s)) ? 1 : 0;
  EXPECT_EQ(in_table, 256u);
  EXPECT_TRUE(code.in_table(0));       // most frequent kept
  EXPECT_FALSE(code.in_table(2999));   // least frequent escaped
}

TEST(HuffmanCode, CanonicalPrefixFree) {
  SymbolFrequencies f;
  Rng rng(7);
  for (int i = 0; i < 200; ++i)
    f.add_symbol(static_cast<uint16_t>(rng.next_below(500)), 1 + rng.next_below(1000));
  const auto code = HuffmanCode::build(f, 1024, 16);
  // Prefix-freeness: decoding any codeword via the LUT returns the symbol.
  for (uint32_t s = 0; s < 500; ++s) {
    if (!code.in_table(static_cast<uint16_t>(s))) continue;
    const unsigned len = code.codeword_len(static_cast<uint16_t>(s));
    const uint16_t peek = static_cast<uint16_t>(code.codeword(static_cast<uint16_t>(s))
                                                << (16 - len));
    const auto step = code.decode(peek);
    EXPECT_FALSE(step.is_escape);
    EXPECT_EQ(step.symbol, s);
    EXPECT_EQ(step.bits, len);
  }
}

TEST(HuffmanCode, DecodeLutEscape) {
  SymbolFrequencies f;
  f.add_symbol(42, 1000);
  const auto code = HuffmanCode::build(f, 8, 16);
  const uint16_t peek = static_cast<uint16_t>(code.esc_code() << (16 - code.esc_len()));
  const auto step = code.decode(peek);
  EXPECT_TRUE(step.is_escape);
  EXPECT_EQ(step.bits, code.esc_len());
}

TEST(HuffmanCode, MaxLenRespected) {
  SymbolFrequencies f;
  uint64_t w = 1;
  for (uint32_t s = 0; s < 40; ++s) {
    f.add_symbol(static_cast<uint16_t>(s), w);
    w = w * 3 / 2 + 1;  // strongly skewed
  }
  const auto code = HuffmanCode::build(f, 1024, 12);
  for (uint32_t s = 0; s < 40; ++s)
    if (code.in_table(static_cast<uint16_t>(s))) {
      EXPECT_LE(code.codeword_len(static_cast<uint16_t>(s)), 12u);
    }
  EXPECT_LE(code.esc_len(), 12u);
}

}  // namespace
}  // namespace slc
