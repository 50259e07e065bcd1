#include "compress/huffman.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "compress/batch_writer.h"
#include "compress/codec_registry.h"
#include "compress/e2mc.h"

namespace slc {

void SymbolFrequencies::add_data(std::span<const uint8_t> data) {
  const size_t n = data.size() / 2;
  for (size_t i = 0; i < n; ++i) {
    const uint16_t sym = static_cast<uint16_t>(data[2 * i] | (uint16_t{data[2 * i + 1]} << 8));
    add_symbol(sym);
  }
}

void SymbolFrequencies::add_sample(std::span<const uint8_t> data, double fraction) {
  fraction = std::clamp(fraction, 0.0, 1.0);
  if (fraction == 0.0 || data.empty()) return;
  // Evenly spaced 128 B blocks across the whole image: E2MC's online
  // sampling window is temporal, so it sees every resident array the kernel
  // touches — striding models that coverage.
  const size_t n_blocks = data.size() / kBlockBytes;
  if (n_blocks == 0) {
    add_data(data);
    return;
  }
  const auto want = static_cast<size_t>(static_cast<double>(n_blocks) * fraction);
  const size_t take = std::max<size_t>(want, 1);
  const size_t stride = n_blocks / take;
  for (size_t b = 0; b < n_blocks; b += std::max<size_t>(stride, 1)) {
    add_data(data.subspan(b * kBlockBytes, kBlockBytes));
  }
}

std::vector<unsigned> package_merge_lengths(std::span<const uint64_t> weights, unsigned max_len) {
  const size_t n = weights.size();
  std::vector<unsigned> lengths(n, 0);
  if (n == 0) return lengths;
  if (n == 1) {
    lengths[0] = 1;
    return lengths;
  }
  if ((size_t{1} << max_len) < n) {
    throw std::invalid_argument("max_len too small for alphabet size");
  }

  // Leaf items sorted ascending by weight; ties broken by index for
  // determinism.
  struct Node {
    uint64_t weight;
    std::vector<uint32_t> leaves;  // indices of original symbols inside
  };
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](uint32_t a, uint32_t b) { return weights[a] < weights[b]; });

  std::vector<Node> leaves;
  leaves.reserve(n);
  for (uint32_t idx : order) leaves.push_back({weights[idx], {idx}});

  // Iteratively package pairs and merge with the leaf list, max_len-1 times.
  std::vector<Node> prev = leaves;
  for (unsigned level = 1; level < max_len; ++level) {
    std::vector<Node> packages;
    packages.reserve(prev.size() / 2);
    for (size_t i = 0; i + 1 < prev.size(); i += 2) {
      Node pkg;
      pkg.weight = prev[i].weight + prev[i + 1].weight;
      pkg.leaves = prev[i].leaves;
      pkg.leaves.insert(pkg.leaves.end(), prev[i + 1].leaves.begin(), prev[i + 1].leaves.end());
      packages.push_back(std::move(pkg));
    }
    // Merge packages with fresh copies of the leaves (stable by weight).
    std::vector<Node> merged;
    merged.reserve(packages.size() + leaves.size());
    size_t a = 0, b = 0;
    while (a < leaves.size() || b < packages.size()) {
      const bool take_leaf =
          b >= packages.size() || (a < leaves.size() && leaves[a].weight <= packages[b].weight);
      if (take_leaf)
        merged.push_back(leaves[a++]);
      else
        merged.push_back(std::move(packages[b++]));
    }
    prev = std::move(merged);
  }

  // The first 2n-2 items of the final list determine the code: each
  // appearance of a leaf adds one to its code length.
  const size_t take = 2 * n - 2;
  assert(prev.size() >= take);
  for (size_t i = 0; i < take; ++i)
    for (uint32_t leaf : prev[i].leaves) ++lengths[leaf];

  // Sanity: Kraft equality must hold for an optimal complete code.
  [[maybe_unused]] long double kraft = 0;
  for (unsigned l : lengths) {
    assert(l >= 1 && l <= max_len);
    kraft += std::pow(2.0L, -static_cast<long double>(l));
  }
  assert(kraft <= 1.0L + 1e-9L);
  return lengths;
}

HuffmanCode HuffmanCode::build(const SymbolFrequencies& freqs, size_t max_entries,
                               unsigned max_len) {
  HuffmanCode hc;
  hc.len_.assign(size_t{1} << kSymbolBits, 0);
  hc.code_.assign(size_t{1} << kSymbolBits, 0);

  // Pick the most frequent symbols (stable order for determinism).
  std::vector<uint32_t> candidates;
  candidates.reserve(4096);
  for (uint32_t s = 0; s < (1u << kSymbolBits); ++s)
    if (freqs.count(static_cast<uint16_t>(s)) > 0) candidates.push_back(s);
  std::stable_sort(candidates.begin(), candidates.end(), [&](uint32_t a, uint32_t b) {
    return freqs.count(static_cast<uint16_t>(a)) > freqs.count(static_cast<uint16_t>(b));
  });
  if (candidates.size() > max_entries) candidates.resize(max_entries);

  uint64_t covered = 0;
  for (uint32_t s : candidates) covered += freqs.count(static_cast<uint16_t>(s));
  const uint64_t esc_weight = std::max<uint64_t>(freqs.total() - covered, 1);

  // Weights vector: real symbols then ESC (last index).
  std::vector<uint64_t> weights;
  weights.reserve(candidates.size() + 1);
  for (uint32_t s : candidates)
    weights.push_back(std::max<uint64_t>(freqs.count(static_cast<uint16_t>(s)), 1));
  weights.push_back(esc_weight);

  const std::vector<unsigned> lengths = package_merge_lengths(weights, max_len);

  // Canonical assignment: sort by (length, symbol id), ESC ordered last
  // within its length class.
  struct Entry {
    uint32_t sym;  // 0x10000 = ESC
    unsigned len;
  };
  std::vector<Entry> entries;
  entries.reserve(lengths.size());
  for (size_t i = 0; i < candidates.size(); ++i) entries.push_back({candidates[i], lengths[i]});
  entries.push_back({0x10000u, lengths.back()});
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.len != b.len ? a.len < b.len : a.sym < b.sym;
  });

  uint32_t code = 0;
  unsigned prev_len = entries.front().len;
  for (const Entry& e : entries) {
    code <<= (e.len - prev_len);
    prev_len = e.len;
    if (e.sym == 0x10000u) {
      hc.esc_len_ = e.len;
      hc.esc_code_ = code;
    } else {
      hc.len_[e.sym] = static_cast<uint8_t>(e.len);
      hc.code_[e.sym] = code;
    }
    ++code;
  }
  hc.build_lut();
  hc.enc_bits_.resize(size_t{1} << kSymbolBits);
  for (size_t s = 0; s < hc.enc_bits_.size(); ++s)
    hc.enc_bits_[s] = hc.encoded_bits(static_cast<uint16_t>(s));
  return hc;
}

void HuffmanCode::build_lut() {
  lut_.assign(size_t{1} << kSymbolBits, DecodeStep{0, 0, true});  // no codeword
  auto fill = [&](uint32_t code, unsigned len, uint16_t sym, bool esc) {
    assert(len >= 1 && len <= 16);
    const uint32_t lo = code << (16 - len);
    const uint32_t hi = (code + 1) << (16 - len);
    for (uint32_t p = lo; p < hi; ++p) lut_[p] = DecodeStep{sym, len, esc};
  };
  for (uint32_t s = 0; s < (1u << kSymbolBits); ++s)
    if (len_[s]) fill(code_[s], len_[s], static_cast<uint16_t>(s), false);
  if (esc_len_) fill(esc_code_, esc_len_, 0, true);
}

void HuffmanCode::encode_run(BlockView block, size_t begin, size_t end,
                             detail::SpanBitWriter& w) const {
  for (size_t s = begin; s < end; ++s) {
    const uint16_t sym = block.symbol(s);
    if (in_table(sym)) {
      w.put(codeword(sym), codeword_len(sym));
    } else {
      w.put(esc_code(), esc_len());
      w.put(sym, kSymbolBits);
    }
  }
}

std::shared_ptr<HuffmanCompressor> HuffmanCompressor::train(std::span<const uint8_t> sample,
                                                            size_t max_entries,
                                                            unsigned max_len) {
  SymbolFrequencies freqs;
  freqs.add_data(sample);
  return std::make_shared<HuffmanCompressor>(HuffmanCode::build(freqs, max_entries, max_len));
}

namespace {

// Exact code bits of one block: the sum of its symbols' encoded lengths.
size_t code_bits_of(const uint8_t* p, const uint32_t* enc_bits) {
  size_t bits = 0;
  for (size_t i = 0; i < kSymbolsPerBlock; ++i) bits += enc_bits[detail::load_le16(p + 2 * i)];
  return bits;
}

}  // namespace

void HuffmanCompressor::analyze_batch(std::span<const BlockView> blocks,
                                      BlockAnalysis* out) const {
  const uint32_t* enc_bits = code_.encoded_bits_table();
  for (size_t b = 0; b < blocks.size(); ++b) {
    check_block_bytes(blocks[b].size(), "Huffman");
    out[b] = detail::lossless_size(code_bits_of(blocks[b].bytes().data(), enc_bits));
  }
}

void HuffmanCompressor::compress_batch(std::span<const BlockView> blocks,
                                       CompressedBlock* out) const {
  // Sizing pass: every block's code bits from the length table; the emitter
  // writes each block's codewords.
  const uint32_t* enc_bits = code_.encoded_bits_table();
  for (size_t b = 0; b < blocks.size(); ++b) {
    check_block_bytes(blocks[b].size(), "Huffman");
    detail::set_lossless_size(out[b], code_bits_of(blocks[b].bytes().data(), enc_bits));
  }

  detail::scatter_payloads(blocks, out, [&](size_t b, detail::SpanBitWriter& w) {
    code_.encode_run(blocks[b], 0, kSymbolsPerBlock, w);
  });
}

Block HuffmanCompressor::decompress(const CompressedBlock& cb, size_t block_bytes) const {
  check_block_bytes(block_bytes, "Huffman");
  if (!cb.is_compressed) return detail::stored_raw_block(cb);
  Block out;
  BitReader r(cb.payload);
  code_.decode_run(r, out, 0, kSymbolsPerBlock);
  detail::check_payload_end(r, "Huffman");
  return out;
}

namespace {
const CodecRegistrar huffman_registrar({
    .name = "Huffman",
    .scheme = "whole-block canonical Huffman (single way)",
    .paper = "length-limited canonical coding per Lal et al., IPDPS 2017",
    .order = 4,
    .lossy = false,
    .needs_training = true,
    .compress_latency = E2mcCompressor::kCompressLatency,
    .decompress_latency = E2mcCompressor::kDecompressLatency,
    .make = [](const CodecOptions& opts) -> std::shared_ptr<const Compressor> {
      // Unlike E2MC/TSLC, a pre-trained E2MC model is no substitute for a
      // sample here — the single-way code must be trained directly.
      if (opts.training_data.empty())
        throw std::invalid_argument("Huffman needs CodecOptions::training_data");
      return HuffmanCompressor::train(opts.training_data, opts.e2mc.table_entries,
                                      opts.e2mc.max_code_len);
    },
    .make_block_codec = nullptr,
});
}  // namespace

}  // namespace slc
