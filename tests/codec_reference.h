// Reference codec kernels: slow, obviously faithful per-block loops the
// production kernels are checked against.
//
// The lossless encoders. ref_<scheme>_analyze/ref_<scheme>_compress for BDI,
// FPC, C-PACK, E2MC and Huffman are the per-block scalar encoders those
// schemes shipped before their batch kernels became the only encode path:
// one block at a time, words read through BlockView, a FIFO deque for the
// C-PACK dictionary and the reference BitWriter (bit_writer.h) for the
// stream. Every one stores a block raw unless its encoding is smaller than
// the block. ref_codec() picks the
// pair for a compressor by its dynamic type. bench/codec_throughput times
// them as its `scalar` rows and checks the batch kernels against them byte
// for byte.
//
// The SLC decision. ref_code_lengths() and ref_layout() size an E2MC block
// symbol by symbol (ref_layout adds every symbol outside the skip window to
// way i / per_way); ref_windows() sums every window symbol by symbol, in the
// Fig. 5 first-fit order (sizes 1, 2, 4, [6], 8, [12], 16; symbol order
// within a size), and ref_select() takes the first that covers the
// overshoot. ref_decide() is the Fig. 4 mode decision of one block written
// out over those, and ref_slc_compress() writes the TSLC payload of that
// decision field by field: the Fig. 6 header, then the ways with the
// truncation window left out.
//
// The differential tests in test_codec_differential.cpp drive all of these
// beside the production kernels, which sum each way once, read windows off
// one prefix sum and encode or decide a span of blocks at a time.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "bit_writer.h"
#include "compress/bdi.h"
#include "compress/cpack.h"
#include "compress/e2mc.h"
#include "compress/fpc.h"
#include "compress/huffman.h"
#include "core/slc_codec.h"
#include "core/slc_header.h"
#include "core/tree_selector.h"

namespace slc::test {

// --- lossless encoders --------------------------------------------------------

namespace ref_bdi {

constexpr unsigned kTagBits = 4;

// Sign-extends the low `bytes*8` bits of v.
inline int64_t sext(uint64_t v, size_t bytes) {
  const unsigned bits = static_cast<unsigned>(bytes * 8);
  if (bits >= 64) return static_cast<int64_t>(v);
  const uint64_t mask = (uint64_t{1} << bits) - 1;
  uint64_t x = v & mask;
  const uint64_t sign = uint64_t{1} << (bits - 1);
  if (x & sign) x |= ~mask;
  return static_cast<int64_t>(x);
}

inline bool fits_signed(int64_t v, size_t bytes) {
  if (bytes >= 8) return true;
  const int64_t lim = int64_t{1} << (bytes * 8 - 1);
  return v >= -lim && v < lim;
}

inline uint64_t load_word(BlockView b, size_t i, size_t base_bytes) {
  switch (base_bytes) {
    case 2: return b.symbol(i);
    case 4: return b.word32(i);
    case 8: return b.word64(i);
    default: assert(false); return 0;
  }
}

// Checks whether `block` is encodable with `enc`; fills base if so.
inline bool encodable(BlockView block, BdiEncoding enc, uint64_t* base_out) {
  const BdiCompressor::Geometry g = BdiCompressor::geometry(enc);
  const size_t n = block.size() / g.base_bytes;
  // Base = first word that does not fit as a zero-based delta (original BDI
  // uses the first non-immediate-representable value as the explicit base).
  bool have_base = false;
  uint64_t base = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t w = load_word(block, i, g.base_bytes);
    const int64_t as_imm = sext(w, g.base_bytes);
    if (fits_signed(as_imm, g.delta_bytes)) continue;  // zero-base delta ok
    if (!have_base) {
      have_base = true;
      base = w;
      continue;
    }
    const int64_t delta = sext(w - base, g.base_bytes);
    if (!fits_signed(delta, g.delta_bytes)) return false;
  }
  if (base_out) *base_out = have_base ? base : 0;
  return true;
}

}  // namespace ref_bdi

/// The smallest valid BDI encoding of `block`.
inline BdiEncoding ref_bdi_best_encoding(BlockView block) {
  check_block_bytes(block.size(), 8, "BDI");
  // All-zero?
  bool all_zero = true;
  for (uint8_t b : block.bytes())
    if (b != 0) { all_zero = false; break; }
  if (all_zero) return BdiEncoding::kZeros;

  // Repeated 64-bit value?
  bool repeated = true;
  const uint64_t first = block.word64(0);
  for (size_t i = 1; i < block.size() / 8; ++i)
    if (block.word64(i) != first) { repeated = false; break; }
  if (repeated) return BdiEncoding::kRepeat64;

  BdiEncoding best = BdiEncoding::kUncompressed;
  size_t best_bits = block.size() * 8;
  for (BdiEncoding enc : BdiCompressor::candidate_order()) {
    const size_t bits = BdiCompressor::encoding_bits(enc, block.size());
    if (bits >= best_bits) continue;
    if (ref_bdi::encodable(block, enc, nullptr)) {
      best = enc;
      best_bits = bits;
    }
  }
  return best;
}

inline CompressedBlock ref_bdi_compress(BlockView block) {
  using namespace ref_bdi;
  const BdiEncoding enc = ref_bdi_best_encoding(block);
  CompressedBlock out;
  // Stored raw unless the encoding is smaller than the block: kUncompressed,
  // and kRepeat64 (68 bits) on an 8 B block.
  if (BdiCompressor::encoding_bits(enc, block.size()) >= block.size() * 8) {
    out.is_compressed = false;
    out.bit_size = block.size() * 8;
    out.payload.assign(block.bytes().begin(), block.bytes().end());
    return out;
  }
  BitWriter w;
  w.put(static_cast<uint64_t>(enc), kTagBits);

  switch (enc) {
    case BdiEncoding::kZeros:
      break;  // tag only
    case BdiEncoding::kRepeat64:
      w.put(block.word64(0), 64);
      break;
    default: {
      const BdiCompressor::Geometry g = BdiCompressor::geometry(enc);
      uint64_t base = 0;
      const bool ok = encodable(block, enc, &base);
      assert(ok);
      (void)ok;
      const size_t n = block.size() / g.base_bytes;
      w.put(base, static_cast<unsigned>(g.base_bytes * 8));
      // Mask: bit i set => word i uses the explicit base; clear => zero base.
      for (size_t i = 0; i < n; ++i) {
        const uint64_t v = load_word(block, i, g.base_bytes);
        const bool use_zero = fits_signed(sext(v, g.base_bytes), g.delta_bytes);
        w.put_bit(!use_zero);
      }
      for (size_t i = 0; i < n; ++i) {
        const uint64_t v = load_word(block, i, g.base_bytes);
        const bool use_zero = fits_signed(sext(v, g.base_bytes), g.delta_bytes);
        const uint64_t delta = use_zero ? v : v - base;
        w.put(delta, static_cast<unsigned>(g.delta_bytes * 8));
      }
      break;
    }
  }
  out.is_compressed = true;
  out.bit_size = w.bit_size();
  out.payload = w.bytes();
  assert(out.bit_size == BdiCompressor::encoding_bits(enc, block.size()));
  return out;
}

inline BlockAnalysis ref_bdi_analyze(BlockView block) {
  const size_t bits = BdiCompressor::encoding_bits(ref_bdi_best_encoding(block), block.size());
  const size_t raw_bits = block.size() * 8;
  BlockAnalysis a;
  a.is_compressed = bits < raw_bits;
  a.bit_size = a.is_compressed ? bits : raw_bits;
  a.lossless_bits = a.bit_size;
  return a;
}

namespace ref_fpc {
constexpr unsigned kPrefixBits = 3;
constexpr size_t kMaxZeroRun = 8;

// Whether `v` fits a `bits`-bit two's-complement field.
inline bool fits(int64_t v, unsigned bits) {
  return v >= -(int64_t{1} << (bits - 1)) && v < (int64_t{1} << (bits - 1));
}

// Pattern of one nonzero word: the first class, in prefix order, that
// holds it.
inline FpcPattern classify(uint32_t w) {
  const auto v = static_cast<int32_t>(w);
  if (fits(v, 4)) return FpcPattern::kSignExt4;
  if (fits(v, 8)) return FpcPattern::kSignExt8;
  if (fits(v, 16)) return FpcPattern::kSignExt16;
  if ((w & 0xFFFFu) == 0) return FpcPattern::kHalfwordPadded;
  if (fits(static_cast<int16_t>(w >> 16), 8) && fits(static_cast<int16_t>(w & 0xFFFFu), 8))
    return FpcPattern::kTwoHalfwordsSE;
  if (w == (w & 0xFFu) * 0x01010101u) return FpcPattern::kRepeatedBytes;
  return FpcPattern::kUncompressed;
}

// Payload bits behind a pattern's 3-bit prefix.
inline unsigned payload_bits(FpcPattern p) {
  switch (p) {
    case FpcPattern::kZeroRun: return 3;  // run length - 1
    case FpcPattern::kSignExt4: return 4;
    case FpcPattern::kSignExt8:
    case FpcPattern::kRepeatedBytes: return 8;
    case FpcPattern::kSignExt16:
    case FpcPattern::kHalfwordPadded:
    case FpcPattern::kTwoHalfwordsSE: return 16;
    case FpcPattern::kUncompressed: return 32;
  }
  return 32;
}

}  // namespace ref_fpc

inline CompressedBlock ref_fpc_compress(BlockView block) {
  using namespace ref_fpc;
  check_block_bytes(block.size(), 4, "FPC");
  const size_t n_words = block.size() / 4;
  BitWriter w;
  size_t i = 0;
  while (i < n_words) {
    const uint32_t word = block.word32(i);
    if (word == 0) {
      size_t run = 1;
      while (i + run < n_words && run < kMaxZeroRun && block.word32(i + run) == 0) ++run;
      w.put(static_cast<uint64_t>(FpcPattern::kZeroRun), kPrefixBits);
      w.put(run - 1, 3);
      i += run;
      continue;
    }
    const FpcPattern p = classify(word);
    w.put(static_cast<uint64_t>(p), kPrefixBits);
    switch (p) {
      case FpcPattern::kSignExt4: w.put(word & 0xF, 4); break;
      case FpcPattern::kSignExt8: w.put(word & 0xFF, 8); break;
      case FpcPattern::kSignExt16: w.put(word & 0xFFFF, 16); break;
      case FpcPattern::kHalfwordPadded: w.put(word >> 16, 16); break;
      case FpcPattern::kTwoHalfwordsSE:
        w.put((word >> 16) & 0xFF, 8);
        w.put(word & 0xFF, 8);
        break;
      case FpcPattern::kRepeatedBytes: w.put(word & 0xFF, 8); break;
      case FpcPattern::kUncompressed: w.put(word, 32); break;
      case FpcPattern::kZeroRun: assert(false); break;
    }
    ++i;
  }
  CompressedBlock out;
  if (w.bit_size() >= block.size() * 8) {
    out.is_compressed = false;
    out.bit_size = block.size() * 8;
    out.payload.assign(block.bytes().begin(), block.bytes().end());
  } else {
    out.is_compressed = true;
    out.bit_size = w.bit_size();
    out.payload = w.bytes();
  }
  return out;
}

inline BlockAnalysis ref_fpc_analyze(BlockView block) {
  // Mirror of ref_fpc_compress(): the same word walk, summing sizes instead
  // of emitting bits.
  using namespace ref_fpc;
  check_block_bytes(block.size(), 4, "FPC");
  const size_t n_words = block.size() / 4;
  size_t bits = 0;
  size_t i = 0;
  while (i < n_words) {
    if (block.word32(i) == 0) {
      size_t run = 1;
      while (i + run < n_words && run < kMaxZeroRun && block.word32(i + run) == 0) ++run;
      bits += kPrefixBits + payload_bits(FpcPattern::kZeroRun);
      i += run;
      continue;
    }
    bits += kPrefixBits + payload_bits(classify(block.word32(i)));
    ++i;
  }
  BlockAnalysis a;
  const size_t raw_bits = block.size() * 8;
  a.is_compressed = bits < raw_bits;
  a.bit_size = a.is_compressed ? bits : raw_bits;
  a.lossless_bits = a.bit_size;
  return a;
}

namespace ref_cpack {

// FIFO dictionary with fixed capacity; index 0 is the oldest entry, matching
// the hardware's shift-register organisation.
class FifoDict {
 public:
  explicit FifoDict(size_t cap) : cap_(cap) {}

  // Returns index of a full match or -1.
  int find_full(uint32_t w) const {
    for (size_t i = 0; i < entries_.size(); ++i)
      if (entries_[i] == w) return static_cast<int>(i);
    return -1;
  }
  // Returns index whose upper `bytes` bytes match, or -1.
  int find_partial(uint32_t w, unsigned bytes) const {
    const uint32_t mask = bytes == 3 ? 0xFFFFFF00u : 0xFFFF0000u;
    for (size_t i = 0; i < entries_.size(); ++i)
      if ((entries_[i] & mask) == (w & mask)) return static_cast<int>(i);
    return -1;
  }
  void push(uint32_t w) {
    if (entries_.size() == cap_) entries_.pop_front();
    entries_.push_back(w);
  }

 private:
  size_t cap_;
  std::deque<uint32_t> entries_;
};

constexpr unsigned prefix_bits(CpackCode c) {
  switch (c) {
    case CpackCode::kZZZZ:
    case CpackCode::kXXXX:
    case CpackCode::kMMMM: return 2;
    default: return 4;
  }
}

constexpr uint64_t prefix_value(CpackCode c) {
  switch (c) {
    case CpackCode::kZZZZ: return 0b00;
    case CpackCode::kXXXX: return 0b01;
    case CpackCode::kMMMM: return 0b10;
    case CpackCode::kMMXX: return 0b1100;
    case CpackCode::kZZZX: return 0b1101;
    case CpackCode::kMMMX: return 0b1110;
  }
  return 0;
}

// Dictionary index width: log2 of the (power-of-two) dictionary size.
inline unsigned index_width(size_t dict_entries) {
  unsigned bits = 0;
  for (size_t v = dict_entries; v > 1; v >>= 1) ++bits;
  return bits;
}

inline unsigned code_bits(CpackCode c, unsigned index_bits) {
  switch (c) {
    case CpackCode::kZZZZ: return 2;
    case CpackCode::kXXXX: return 2 + 32;
    case CpackCode::kMMMM: return 2 + index_bits;
    case CpackCode::kMMXX: return 4 + index_bits + 16;
    case CpackCode::kZZZX: return 4 + 8;
    case CpackCode::kMMMX: return 4 + index_bits + 8;
  }
  return 34;
}

}  // namespace ref_cpack

inline CompressedBlock ref_cpack_compress(BlockView block, size_t dict_entries) {
  using namespace ref_cpack;
  check_block_bytes(block.size(), 4, "C-PACK");
  const unsigned index_bits = index_width(dict_entries);
  const size_t n_words = block.size() / 4;
  FifoDict dict(dict_entries);
  BitWriter w;
  for (size_t i = 0; i < n_words; ++i) {
    const uint32_t word = block.word32(i);
    if (word == 0) {
      w.put(prefix_value(CpackCode::kZZZZ), prefix_bits(CpackCode::kZZZZ));
      continue;
    }
    if ((word & 0xFFFFFF00u) == 0) {
      w.put(prefix_value(CpackCode::kZZZX), prefix_bits(CpackCode::kZZZX));
      w.put(word & 0xFF, 8);
      continue;
    }
    int idx = dict.find_full(word);
    if (idx >= 0) {
      w.put(prefix_value(CpackCode::kMMMM), prefix_bits(CpackCode::kMMMM));
      w.put(static_cast<uint64_t>(idx), index_bits);
      continue;
    }
    idx = dict.find_partial(word, 3);
    if (idx >= 0) {
      w.put(prefix_value(CpackCode::kMMMX), prefix_bits(CpackCode::kMMMX));
      w.put(static_cast<uint64_t>(idx), index_bits);
      w.put(word & 0xFF, 8);
      dict.push(word);
      continue;
    }
    idx = dict.find_partial(word, 2);
    if (idx >= 0) {
      w.put(prefix_value(CpackCode::kMMXX), prefix_bits(CpackCode::kMMXX));
      w.put(static_cast<uint64_t>(idx), index_bits);
      w.put(word & 0xFFFF, 16);
      dict.push(word);
      continue;
    }
    w.put(prefix_value(CpackCode::kXXXX), prefix_bits(CpackCode::kXXXX));
    w.put(word, 32);
    dict.push(word);
  }
  CompressedBlock out;
  if (w.bit_size() >= block.size() * 8) {
    out.is_compressed = false;
    out.bit_size = block.size() * 8;
    out.payload.assign(block.bytes().begin(), block.bytes().end());
  } else {
    out.is_compressed = true;
    out.bit_size = w.bit_size();
    out.payload = w.bytes();
  }
  return out;
}

inline BlockAnalysis ref_cpack_analyze(BlockView block, size_t dict_entries) {
  // Mirror of ref_cpack_compress(): same dictionary walk (the FIFO must see
  // the same push sequence), summing code sizes instead of emitting bits.
  using namespace ref_cpack;
  check_block_bytes(block.size(), 4, "C-PACK");
  const unsigned index_bits = index_width(dict_entries);
  const size_t n_words = block.size() / 4;
  FifoDict dict(dict_entries);
  size_t bits = 0;
  for (size_t i = 0; i < n_words; ++i) {
    const uint32_t word = block.word32(i);
    if (word == 0) {
      bits += code_bits(CpackCode::kZZZZ, index_bits);
    } else if ((word & 0xFFFFFF00u) == 0) {
      bits += code_bits(CpackCode::kZZZX, index_bits);
    } else if (dict.find_full(word) >= 0) {
      bits += code_bits(CpackCode::kMMMM, index_bits);
    } else if (dict.find_partial(word, 3) >= 0) {
      bits += code_bits(CpackCode::kMMMX, index_bits);
      dict.push(word);
    } else if (dict.find_partial(word, 2) >= 0) {
      bits += code_bits(CpackCode::kMMXX, index_bits);
      dict.push(word);
    } else {
      bits += code_bits(CpackCode::kXXXX, index_bits);
      dict.push(word);
    }
  }
  BlockAnalysis a;
  const size_t raw_bits = block.size() * 8;
  a.is_compressed = bits < raw_bits;
  a.bit_size = a.is_compressed ? bits : raw_bits;
  a.lossless_bits = a.bit_size;
  return a;
}

/// Per-symbol encoded lengths of one block — the values the TSLC tree adder
/// reads from the compressor's code-length table.
inline std::vector<uint16_t> ref_code_lengths(const E2mcCompressor& e2mc, BlockView block) {
  check_block_bytes(block.size(), kSymbolBits / 8, "E2MC");
  const size_t n = block.num_symbols();
  std::vector<uint16_t> lens(n);
  for (size_t i = 0; i < n; ++i)
    lens[i] = static_cast<uint16_t>(e2mc.code().encoded_bits(block.symbol(i)));
  return lens;
}

inline BlockAnalysis ref_e2mc_analyze(const E2mcCompressor& e2mc, BlockView block) {
  const auto lens = ref_code_lengths(e2mc, block);
  const WayLayout lo = e2mc.layout(lens, e2mc.header_bits(block.size()));
  const size_t raw_bits = block.size() * 8;
  BlockAnalysis a;
  a.is_compressed = lo.total_bits < raw_bits;
  a.bit_size = a.is_compressed ? lo.total_bits : raw_bits;
  a.lossless_bits = a.bit_size;
  return a;
}

/// Writes the pdp header and the byte-aligned ways of `block` into `w`
/// (which must be empty) according to `lo`.
inline void ref_e2mc_emit_ways(const E2mcCompressor& e2mc, BlockView block, const WayLayout& lo,
                               BitWriter& w) {
  const unsigned ways = e2mc.config().num_ways;
  const HuffmanCode& code = e2mc.code();
  const unsigned pdp = E2mcCompressor::pdp_bits(block.size());
  const size_t per_way = e2mc.symbols_per_way(block.num_symbols());
  // Header: pdp_i = byte offset of way i (i = 1..num_ways-1) within payload.
  const size_t header_bytes = (e2mc.header_bits(block.size()) + 7) / 8;
  size_t off = header_bytes;
  for (unsigned i = 1; i < ways; ++i) {
    off += lo.way_bytes[i - 1];
    w.put(off, pdp);
  }
  // Pad header to a byte boundary.
  const size_t pad = header_bytes * 8 - w.bit_size();
  if (pad) w.put(0, static_cast<unsigned>(pad));

  for (unsigned way = 0; way < ways; ++way) {
    const size_t start_bit = w.bit_size();
    for (size_t s = way * per_way; s < (way + 1) * per_way; ++s) {
      const uint16_t sym = block.symbol(s);
      if (code.in_table(sym)) {
        w.put(code.codeword(sym), code.codeword_len(sym));
      } else {
        w.put(code.esc_code(), code.esc_len());
        w.put(sym, kSymbolBits);
      }
    }
    // Byte-align the way.
    const size_t used = w.bit_size() - start_bit;
    assert(used == lo.way_bits[way]);
    (void)used;
    const size_t aligned = lo.way_bytes[way] * 8;
    if (aligned > used) w.put(0, static_cast<unsigned>(aligned - used));
  }
}

inline CompressedBlock ref_e2mc_compress(const E2mcCompressor& e2mc, BlockView block) {
  const auto lens = ref_code_lengths(e2mc, block);
  const WayLayout lo = e2mc.layout(lens, e2mc.header_bits(block.size()));
  const size_t raw_bits = block.size() * 8;

  CompressedBlock out;
  if (lo.total_bits >= raw_bits) {
    out.is_compressed = false;
    out.bit_size = raw_bits;
    out.payload.assign(block.bytes().begin(), block.bytes().end());
    return out;
  }

  BitWriter w;
  ref_e2mc_emit_ways(e2mc, block, lo, w);
  out.is_compressed = true;
  out.bit_size = w.bit_size();
  assert(out.bit_size == lo.total_bits);
  out.payload = w.bytes();
  return out;
}

inline BlockAnalysis ref_huffman_analyze(const HuffmanCompressor& huff, BlockView block) {
  check_block_bytes(block.size(), kSymbolBits / 8, "Huffman");
  const size_t n = block.num_symbols();
  size_t bits = 0;
  for (size_t i = 0; i < n; ++i) bits += huff.code().encoded_bits(block.symbol(i));
  BlockAnalysis a;
  const size_t raw_bits = block.size() * 8;
  a.is_compressed = bits < raw_bits;
  a.bit_size = a.is_compressed ? bits : raw_bits;
  a.lossless_bits = a.bit_size;
  return a;
}

inline CompressedBlock ref_huffman_compress(const HuffmanCompressor& huff, BlockView block) {
  const BlockAnalysis a = ref_huffman_analyze(huff, block);
  const HuffmanCode& code = huff.code();
  CompressedBlock out;
  if (!a.is_compressed) {
    out.is_compressed = false;
    out.bit_size = block.size() * 8;
    out.payload.assign(block.bytes().begin(), block.bytes().end());
    return out;
  }
  BitWriter w;
  const size_t n = block.num_symbols();
  for (size_t i = 0; i < n; ++i) {
    const uint16_t sym = block.symbol(i);
    if (code.in_table(sym)) {
      w.put(code.codeword(sym), code.codeword_len(sym));
    } else {
      w.put(code.esc_code(), code.esc_len());
      w.put(sym, kSymbolBits);
    }
  }
  out.is_compressed = true;
  out.bit_size = w.bit_size();
  assert(out.bit_size == a.bit_size);
  out.payload = w.bytes();
  return out;
}

/// The reference pair of a lossless scheme, as plain function pointers: a
/// loop over blocks pays one indirect call per block.
struct RefCodec {
  BlockAnalysis (*analyze)(const Compressor&, BlockView) = nullptr;
  CompressedBlock (*compress)(const Compressor&, BlockView) = nullptr;
};

/// The reference pair for `comp` by its dynamic type; both pointers are null
/// for a compressor that is not one of the five lossless schemes.
inline RefCodec ref_codec(const Compressor& comp) {
  if (dynamic_cast<const BdiCompressor*>(&comp))
    return {[](const Compressor&, BlockView b) { return ref_bdi_analyze(b); },
            [](const Compressor&, BlockView b) { return ref_bdi_compress(b); }};
  if (dynamic_cast<const FpcCompressor*>(&comp))
    return {[](const Compressor&, BlockView b) { return ref_fpc_analyze(b); },
            [](const Compressor&, BlockView b) { return ref_fpc_compress(b); }};
  if (dynamic_cast<const CpackCompressor*>(&comp))
    return {[](const Compressor& c, BlockView b) {
              return ref_cpack_analyze(b, static_cast<const CpackCompressor&>(c).dict_entries());
            },
            [](const Compressor& c, BlockView b) {
              return ref_cpack_compress(b, static_cast<const CpackCompressor&>(c).dict_entries());
            }};
  if (dynamic_cast<const E2mcCompressor*>(&comp))
    return {[](const Compressor& c, BlockView b) {
              return ref_e2mc_analyze(static_cast<const E2mcCompressor&>(c), b);
            },
            [](const Compressor& c, BlockView b) {
              return ref_e2mc_compress(static_cast<const E2mcCompressor&>(c), b);
            }};
  if (dynamic_cast<const HuffmanCompressor*>(&comp))
    return {[](const Compressor& c, BlockView b) {
              return ref_huffman_analyze(static_cast<const HuffmanCompressor&>(c), b);
            },
            [](const Compressor& c, BlockView b) {
              return ref_huffman_compress(static_cast<const HuffmanCompressor&>(c), b);
            }};
  return {};
}

// --- SLC decision ---------------------------------------------------------------

/// E2MC way layout with symbols [skip_start, skip_start + skip_count)
/// removed. `code_lens.size()` must be a positive multiple of `num_ways`.
inline WayLayout ref_layout(std::span<const uint16_t> code_lens, unsigned num_ways,
                            size_t header_bits, size_t skip_start = 0, size_t skip_count = 0) {
  WayLayout lo;
  lo.header_bits = header_bits;
  const size_t n = code_lens.size();
  const size_t per_way = n / num_ways;
  for (size_t i = 0; i < n; ++i) {
    if (i >= skip_start && i < skip_start + skip_count) continue;
    lo.way_bits[i / per_way] += code_lens[i];
  }
  size_t total = (header_bits + 7) / 8;  // header byte-padded
  for (unsigned w = 0; w < num_ways; ++w) {
    lo.way_bytes[w] = (lo.way_bits[w] + 7) / 8;
    total += lo.way_bytes[w];
  }
  lo.total_bits = total * 8;
  return lo;
}

/// Every TSLC window in the Fig. 5 first-fit order (sizes 1, 2, 4, [6], 8,
/// [12], 16; symbol order within a size), each with its code-length sum.
/// The 6- and 12-symbol classes need `extra_nodes`.
inline std::vector<TreeCandidate> ref_windows(std::span<const uint16_t> code_lens,
                                              bool extra_nodes) {
  struct WindowClass {
    size_t size;
    size_t stride;
    bool opt_only;
  };
  constexpr std::array<WindowClass, 7> kClasses = {{
      {1, 1, false},
      {2, 2, false},
      {4, 4, false},
      {6, 8, true},
      {8, 8, false},
      {12, 16, true},
      {16, 16, false},
  }};
  std::vector<TreeCandidate> out;
  const size_t n = code_lens.size();
  for (const WindowClass& wc : kClasses) {
    if (wc.opt_only && !extra_nodes) continue;
    for (size_t start = 0; start + wc.size <= n; start += wc.stride) {
      size_t sum = 0;
      for (size_t i = start; i < start + wc.size; ++i) sum += code_lens[i];
      out.push_back(TreeCandidate{start, wc.size, sum});
    }
  }
  return out;
}

/// TSLC window selection: the first of ref_windows() whose code-length sum
/// covers `extra_bits`; nullopt when none does or when `extra_bits` is 0.
inline std::optional<TreeCandidate> ref_select(std::span<const uint16_t> code_lens,
                                               size_t extra_bits, bool extra_nodes) {
  if (extra_bits == 0) return std::nullopt;
  for (const TreeCandidate& w : ref_windows(code_lens, extra_nodes))
    if (w.sum_bits >= extra_bits) return w;
  return std::nullopt;
}

/// The Fig. 4 mode decision for one block, per block and scalar: the
/// block's code lengths (ref_code_lengths), the lossless size
/// (ref_layout), the bit budget (closest multiple of MAG at or below it,
/// floored at one MAG) and overshoot; within the threshold the first window
/// covering the overshoot (ref_select), escalated to a larger window while
/// way padding pushes the cut block over budget; otherwise lossless, or raw
/// when that needs as many bursts as the raw block.
inline SlcCodec::Decision ref_decide(const E2mcCompressor& e2mc, const SlcConfig& cfg,
                                     BlockView block) {
  const unsigned ways = e2mc.config().num_ways;
  const std::vector<uint16_t> lens = ref_code_lengths(e2mc, block);
  const size_t header = SlcHeader::bits(block.size(), ways, lens.size());
  const size_t raw_bits = block.size() * 8;
  const size_t mag_bits = cfg.mag_bytes * 8;
  const size_t max_bursts = block.size() / cfg.mag_bytes;
  const auto bursts = [&](size_t bits) {
    return std::min(std::max<size_t>((bits + mag_bits - 1) / mag_bits, 1), max_bursts);
  };

  SlcCodec::Decision d;
  const size_t comp_bits = ref_layout(lens, ways, header).total_bits;
  d.info.lossless_bits = comp_bits;
  const auto raw = [&] {
    d.info.stored_uncompressed = true;
    d.info.final_bits = raw_bits;
    d.info.bursts = max_bursts;
    return d;
  };
  if (comp_bits >= raw_bits) return raw();

  const size_t budget = std::max(comp_bits / mag_bits * mag_bits, mag_bits);
  const size_t extra = comp_bits > budget ? comp_bits - budget : 0;
  d.info.extra_bits = extra;
  if (extra != 0 && extra <= cfg.threshold_bytes * 8) {
    size_t need = extra;
    while (const auto cand = ref_select(lens, need, cfg.variant == SlcVariant::kOpt)) {
      const size_t cut = ref_layout(lens, ways, header, cand->start, cand->count).total_bits;
      if (cut <= budget) {
        d.info.lossy = true;
        d.info.truncated_symbols = cand->count;
        d.info.truncated_bits = cand->sum_bits;
        d.info.final_bits = cut;
        d.info.bursts = bursts(cut);
        d.skip_start = cand->start;
        d.skip_count = cand->count;
        return d;
      }
      need = cand->sum_bits + (cut - budget);
    }
  }
  if (bursts(comp_bits) >= max_bursts) return raw();
  d.info.final_bits = comp_bits;
  d.info.bursts = bursts(comp_bits);
  return d;
}

/// The TSLC payload of one block under its reference decision (ref_decide):
/// the block's bytes when stored raw, otherwise the Fig. 6 header and the
/// ways, field by field through the reference BitWriter. The header is m
/// (1 bit), ss (S bits, 2^S >= symbols), len (4 bits, count-1; 0 when
/// lossless) and one N-bit pdp per way after the first (2^N >= block
/// bytes), each the byte offset of its way, then zero-padded to a byte;
/// each way codes its symbols outside the truncation window and pads to a
/// byte.
inline CompressedBlock ref_slc_compress(const E2mcCompressor& e2mc, const SlcConfig& cfg,
                                        BlockView block) {
  const SlcCodec::Decision d = ref_decide(e2mc, cfg, block);
  CompressedBlock out;
  if (d.info.stored_uncompressed) {
    out.is_compressed = false;
    out.bit_size = block.size() * 8;
    out.payload.assign(block.bytes().begin(), block.bytes().end());
    return out;
  }
  const auto bits_for = [](size_t values) {
    unsigned n = 0;
    while ((size_t{1} << n) < values) ++n;
    return n;
  };
  const unsigned ways = e2mc.config().num_ways;
  const size_t n = block.num_symbols();
  const size_t per_way = n / ways;
  const unsigned ss_bits = bits_for(n), pdp_bits = bits_for(block.size());
  const size_t header_bytes = (1 + ss_bits + 4 + (ways - 1) * pdp_bits + 7) / 8;
  const size_t skip_end = d.skip_start + d.skip_count;
  const auto truncated = [&](size_t s) { return s >= d.skip_start && s < skip_end; };

  std::vector<size_t> way_bits(ways, 0);
  for (size_t s = 0; s < n; ++s)
    if (!truncated(s)) way_bits[s / per_way] += e2mc.code().encoded_bits(block.symbol(s));

  BitWriter w;
  w.put_bit(d.info.lossy);
  w.put(d.skip_start, ss_bits);
  w.put(d.info.lossy ? d.skip_count - 1 : 0, 4);
  size_t offset = header_bytes;
  for (unsigned i = 1; i < ways; ++i) {
    offset += (way_bits[i - 1] + 7) / 8;
    w.put(offset, pdp_bits);
  }
  w.put(0, static_cast<unsigned>(header_bytes * 8 - w.bit_size()));

  const HuffmanCode& code = e2mc.code();
  for (unsigned way = 0; way < ways; ++way) {
    for (size_t s = way * per_way; s < (way + 1) * per_way; ++s) {
      if (truncated(s)) continue;
      const uint16_t sym = block.symbol(s);
      if (code.in_table(sym)) {
        w.put(code.codeword(sym), code.codeword_len(sym));
      } else {
        w.put(code.esc_code(), code.esc_len());
        w.put(sym, kSymbolBits);
      }
    }
    w.put(0, static_cast<unsigned>((8 - w.bit_size() % 8) % 8));
  }
  out.is_compressed = true;
  out.bit_size = w.bit_size();
  out.payload = w.bytes();
  assert(out.bit_size == d.info.final_bits);
  return out;
}

}  // namespace slc::test
