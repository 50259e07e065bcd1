// Length-limited canonical Huffman coding over 16-bit symbols, the entropy
// coder underlying E2MC (Lal et al., IPDPS 2017).
//
// E2MC samples symbol frequencies online, codes the most frequent symbols
// with Huffman codewords of bounded length (so the hardware code-length table
// stays small and the TSLC tree adder inputs are <= 16 bits each), and
// escape-codes everything else (ESC codeword + the 16 raw symbol bits).
// Length limiting uses the package-merge algorithm, which yields optimal
// codes under a maximum-length constraint.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/bitstream.h"
#include "common/block.h"
#include "compress/compressor.h"

namespace slc {

namespace detail {
class SpanBitWriter;
}

/// Symbol frequency table over the full 16-bit alphabet.
class SymbolFrequencies {
 public:
  SymbolFrequencies() : counts_(1u << kSymbolBits, 0) {}

  /// Counts every 16-bit (little-endian) symbol in `data`.
  void add_data(std::span<const uint8_t> data);

  /// Counts symbols from a prefix fraction of `data` — stands in for E2MC's
  /// online sampling window (first ~20M instructions).
  void add_sample(std::span<const uint8_t> data, double fraction);

  void add_symbol(uint16_t sym, uint64_t n = 1) {
    counts_[sym] += n;
    total_ += n;
  }

  uint64_t count(uint16_t sym) const { return counts_[sym]; }
  uint64_t total() const { return total_; }

 private:
  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

/// A built canonical code: per-symbol lengths/codewords plus the escape code.
/// Symbols with length()==0 are not in the table and must be escape-coded.
class HuffmanCode {
 public:
  /// Builds a code from `freqs`, keeping at most `max_entries` real symbols
  /// (most frequent first) and limiting codeword lengths to `max_len` bits.
  /// The ESC pseudo-symbol always gets a codeword; its weight is the total
  /// frequency of all uncovered symbols (at least 1 so unseen symbols remain
  /// encodable).
  static HuffmanCode build(const SymbolFrequencies& freqs, size_t max_entries = 1024,
                           unsigned max_len = 16);

  /// Code length in bits for encoding `sym` (ESC length + 16 if escaped).
  unsigned encoded_bits(uint16_t sym) const {
    const uint8_t l = len_[sym];
    return l != 0 ? l : esc_len_ + kSymbolBits;
  }

  /// encoded_bits() flattened to a 65536-entry uint32 array (escape cost
  /// already folded in), sized for the AVX2 8-lane gather in the E2MC
  /// code-length kernel — a uint8 table would over-read past the end at
  /// 4-byte gather granularity.
  const uint32_t* encoded_bits_table() const { return enc_bits_.data(); }

  /// True if the symbol has its own codeword.
  bool in_table(uint16_t sym) const { return len_[sym] != 0; }

  unsigned codeword_len(uint16_t sym) const { return len_[sym]; }
  uint32_t codeword(uint16_t sym) const { return code_[sym]; }
  unsigned esc_len() const { return esc_len_; }
  uint32_t esc_code() const { return esc_code_; }

  /// Decodes one symbol from the MSB-first 16-bit window `peek16`
  /// (zero-padded past end of stream). Returns {symbol, bits_consumed,
  /// is_escape}; when is_escape, the caller must read 16 raw bits next. A
  /// window that starts no codeword (only an incomplete code, such as an
  /// escape-only one, has such windows) reads as an escape of 0 bits.
  struct DecodeStep {
    uint16_t symbol;
    unsigned bits;
    bool is_escape;
  };
  DecodeStep decode(uint16_t peek16) const { return lut_[peek16]; }

  /// The symbol-run coder of every entropy payload: encode_run() writes
  /// symbols [begin, end) of `block` as codewords, or the escape and 16 raw
  /// bits; decode_run() reads them back into `out` and throws
  /// std::invalid_argument on a non-codeword or a run past r's data. It is
  /// inline, with one pointer to the bytes, to keep the copies' tight loop.
  void encode_run(BlockView block, size_t begin, size_t end, detail::SpanBitWriter& w) const;
  void decode_run(BitReader& r, Block& out, size_t begin, size_t end) const {
    uint8_t* const bytes = out.data();
    for (size_t s = begin; s < end; ++s) {
      const DecodeStep step = decode(static_cast<uint16_t>(r.peek(16)));
      r.skip(step.bits);
      uint16_t sym = step.symbol;
      if (step.is_escape) {
        if (step.bits == 0)
          throw std::invalid_argument("entropy payload: not a codeword of the code");
        sym = static_cast<uint16_t>(r.get(kSymbolBits));
      }
      bytes[2 * s] = static_cast<uint8_t>(sym);
      bytes[2 * s + 1] = static_cast<uint8_t>(sym >> 8);
    }
    if (r.overrun())
      throw std::invalid_argument("entropy payload: a symbol run ends past the payload");
  }

 private:
  std::vector<uint8_t> len_;   // 65536 entries; 0 = escaped
  std::vector<uint32_t> code_; // canonical codewords (left-aligned to len)
  unsigned esc_len_ = 0;
  uint32_t esc_code_ = 0;
  std::vector<DecodeStep> lut_;      // 65536-entry peek-decoder
  std::vector<uint32_t> enc_bits_;   // 65536-entry encoded_bits() table

  void build_lut();
};

/// Plain whole-block Huffman coding over 16-bit symbols: one sequential
/// stream, no parallel-decoding ways and no pdp header. This is the
/// single-way upper bound E2MC's ratio is measured against (the way split and
/// byte alignment are pure MAG/latency overhead), exposed as its own registry
/// entry so the benches can quantify that gap.
class HuffmanCompressor : public Compressor {
 public:
  explicit HuffmanCompressor(HuffmanCode code) : code_(std::move(code)) {}

  /// Trains the symbol table on `sample` (same canonical construction E2MC
  /// uses, without the way geometry).
  static std::shared_ptr<HuffmanCompressor> train(std::span<const uint8_t> sample,
                                                  size_t max_entries = 1024,
                                                  unsigned max_len = 16);

  std::string name() const override { return "Huffman"; }
  Block decompress(const CompressedBlock& cb, size_t block_bytes) const override;

  /// Batched kernels: analyze sums each block's symbol lengths off
  /// HuffmanCode::encoded_bits_table(); compress sizes every block the same
  /// way and emits each block as one symbol run through the shared payload
  /// scatter.
  using Compressor::compress_batch;
  void analyze_batch(std::span<const BlockView> blocks, BlockAnalysis* out) const override;
  void compress_batch(std::span<const BlockView> blocks, CompressedBlock* out) const override;

  const HuffmanCode& code() const { return code_; }

 private:
  HuffmanCode code_;
};

/// Package-merge: returns optimal code lengths (<= max_len) for the given
/// positive weights. Exposed for direct testing against the Kraft bound and
/// unconstrained-Huffman optimality.
std::vector<unsigned> package_merge_lengths(std::span<const uint64_t> weights, unsigned max_len);

}  // namespace slc
