#include "compress/fpc.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <vector>

#include "common/bitstream.h"
#include "compress/batch_writer.h"
#include "compress/codec_registry.h"
#include "compress/simd_dispatch.h"
#include "compress/simd_kernels.h"

namespace slc {

namespace {
constexpr unsigned kPrefixBits = 3;
constexpr size_t kMaxZeroRun = 8;

bool fits_se(uint32_t w, unsigned bits) {
  const int32_t v = static_cast<int32_t>(w);
  const int32_t lim = int32_t{1} << (bits - 1);
  return v >= -lim && v < lim;
}

// Pattern class of one nonzero word (zero runs are coalesced by the caller).
FpcPattern classify(uint32_t w) {
  if (fits_se(w, 4)) return FpcPattern::kSignExt4;
  if (fits_se(w, 8)) return FpcPattern::kSignExt8;
  if (fits_se(w, 16)) return FpcPattern::kSignExt16;
  if ((w & 0xFFFFu) == 0) return FpcPattern::kHalfwordPadded;
  {
    const uint32_t lo = w & 0xFFFFu;
    const uint32_t hi = w >> 16;
    const auto se8 = [](uint32_t h) {
      const int16_t v = static_cast<int16_t>(h);
      return v >= -128 && v < 128;
    };
    if (se8(lo) && se8(hi)) return FpcPattern::kTwoHalfwordsSE;
  }
  {
    const uint32_t b = w & 0xFFu;
    if (w == (b | (b << 8) | (b << 16) | (b << 24))) return FpcPattern::kRepeatedBytes;
  }
  return FpcPattern::kUncompressed;
}

// Payload bits of a pattern, excluding the 3-bit prefix.
unsigned payload_bits(FpcPattern p) {
  switch (p) {
    case FpcPattern::kZeroRun: return 3;
    case FpcPattern::kSignExt4: return 4;
    case FpcPattern::kSignExt8: return 8;
    case FpcPattern::kSignExt16: return 16;
    case FpcPattern::kHalfwordPadded: return 16;
    case FpcPattern::kTwoHalfwordsSE: return 16;
    case FpcPattern::kRepeatedBytes: return 8;
    case FpcPattern::kUncompressed: return 32;
  }
  return 32;
}

// Fills cls[i] with the FpcPattern id of word i (kZeroRun marking a zero
// word), vectorized when the dispatcher allows. Classification is the hot
// half of FPC; the run coalescing and bit emission below consume these ids
// instead of re-deriving them.
void classify_words(const uint8_t* p, size_t n_words, uint8_t* cls, bool use_avx2) {
  const size_t done = use_avx2 ? simd::fpc_classify_avx2(p, n_words, cls) : 0;
  for (size_t i = done; i < n_words; ++i) {
    const uint32_t w = detail::load_le32(p + 4 * i);
    cls[i] = w == 0 ? static_cast<uint8_t>(FpcPattern::kZeroRun)
                    : static_cast<uint8_t>(classify(w));
  }
}

// Exact compressed size implied by a classification — the walk
// emit_from_classes() does, summing instead of emitting.
size_t bits_from_classes(const uint8_t* cls, size_t n_words) {
  size_t bits = 0;
  size_t i = 0;
  while (i < n_words) {
    if (cls[i] == static_cast<uint8_t>(FpcPattern::kZeroRun)) {
      size_t run = 1;
      while (i + run < n_words && run < kMaxZeroRun &&
             cls[i + run] == static_cast<uint8_t>(FpcPattern::kZeroRun))
        ++run;
      bits += kPrefixBits + payload_bits(FpcPattern::kZeroRun);
      i += run;
      continue;
    }
    bits += kPrefixBits + payload_bits(static_cast<FpcPattern>(cls[i]));
    ++i;
  }
  return bits;
}

// The emission loop driven by precomputed classes; words are read straight
// off the block bytes.
void emit_from_classes(const uint8_t* p, size_t n_words, const uint8_t* cls,
                       detail::SpanBitWriter& w) {
  size_t i = 0;
  while (i < n_words) {
    if (cls[i] == static_cast<uint8_t>(FpcPattern::kZeroRun)) {
      size_t run = 1;
      while (i + run < n_words && run < kMaxZeroRun &&
             cls[i + run] == static_cast<uint8_t>(FpcPattern::kZeroRun))
        ++run;
      w.put(static_cast<uint64_t>(FpcPattern::kZeroRun), kPrefixBits);
      w.put(run - 1, 3);
      i += run;
      continue;
    }
    const uint32_t word = detail::load_le32(p + 4 * i);
    const auto pat = static_cast<FpcPattern>(cls[i]);
    w.put(static_cast<uint64_t>(pat), kPrefixBits);
    switch (pat) {
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
}

}  // namespace

Block FpcCompressor::decompress(const CompressedBlock& cb, size_t block_bytes) const {
  check_block_bytes(block_bytes, 4, "FPC");
  if (!cb.is_compressed) return detail::stored_raw_block(cb, block_bytes);
  Block out(block_bytes);
  BitReader r(cb.payload);
  const size_t n_words = block_bytes / 4;
  size_t i = 0;
  while (i < n_words) {
    const auto p = static_cast<FpcPattern>(r.get(kPrefixBits));
    switch (p) {
      case FpcPattern::kZeroRun: {
        const size_t run = r.get(3) + 1;
        if (run > n_words - i)
          throw std::invalid_argument("FPC payload: a zero run passes the block's last word");
        i += run;  // words already zero-initialized
        break;
      }
      case FpcPattern::kSignExt4: {
        const auto v = static_cast<uint32_t>(r.get(4));
        out.set_word32(i++, (v & 0x8) ? (v | 0xFFFFFFF0u) : v);
        break;
      }
      case FpcPattern::kSignExt8: {
        const auto v = static_cast<uint32_t>(r.get(8));
        out.set_word32(i++, (v & 0x80) ? (v | 0xFFFFFF00u) : v);
        break;
      }
      case FpcPattern::kSignExt16: {
        const auto v = static_cast<uint32_t>(r.get(16));
        out.set_word32(i++, (v & 0x8000) ? (v | 0xFFFF0000u) : v);
        break;
      }
      case FpcPattern::kHalfwordPadded: {
        const auto v = static_cast<uint32_t>(r.get(16));
        out.set_word32(i++, v << 16);
        break;
      }
      case FpcPattern::kTwoHalfwordsSE: {
        const auto hi = static_cast<uint32_t>(r.get(8));
        const auto lo = static_cast<uint32_t>(r.get(8));
        const uint32_t hi_se = (hi & 0x80) ? (hi | 0xFF00u) : hi;
        const uint32_t lo_se = (lo & 0x80) ? (lo | 0xFF00u) : lo;
        out.set_word32(i++, (hi_se << 16) | (lo_se & 0xFFFFu));
        break;
      }
      case FpcPattern::kRepeatedBytes: {
        const auto b = static_cast<uint32_t>(r.get(8));
        out.set_word32(i++, b | (b << 8) | (b << 16) | (b << 24));
        break;
      }
      case FpcPattern::kUncompressed:
        out.set_word32(i++, static_cast<uint32_t>(r.get(32)));
        break;
    }
  }
  if (r.overrun()) throw std::invalid_argument("FPC payload: the block ends past the payload");
  return out;
}

void FpcCompressor::analyze_batch(std::span<const BlockView> blocks, BlockAnalysis* out) const {
  // One class buffer, sized for the span's largest block.
  size_t max_words = 0;
  for (const BlockView& blk : blocks) {
    check_block_bytes(blk.size(), 4, "FPC");
    max_words = std::max(max_words, blk.size() / 4);
  }
  std::vector<uint8_t> cls(max_words);
  const bool use_avx2 = simd::active_level() == simd::Level::kAvx2;
  for (size_t b = 0; b < blocks.size(); ++b) {
    const BlockView blk = blocks[b];
    const size_t n_words = blk.size() / 4;
    classify_words(blk.bytes().data(), n_words, cls.data(), use_avx2);
    out[b] = detail::lossless_size(bits_from_classes(cls.data(), n_words), blk.size());
  }
}

void FpcCompressor::compress_batch(std::span<const BlockView> blocks, CompressedBlock* out) const {
  // Sizing pass: classify every block once (the vectorizable half) into one
  // span-wide class buffer, and size it from its classes; the emitter then
  // reads the classes back.
  const size_t n = blocks.size();
  std::vector<size_t> cls_off(n + 1, 0);
  for (size_t b = 0; b < n; ++b) {
    check_block_bytes(blocks[b].size(), 4, "FPC");
    cls_off[b + 1] = cls_off[b] + blocks[b].size() / 4;
  }
  std::vector<uint8_t> cls(cls_off[n]);
  const bool use_avx2 = simd::active_level() == simd::Level::kAvx2;
  for (size_t b = 0; b < n; ++b) {
    const BlockView blk = blocks[b];
    const size_t n_words = blk.size() / 4;
    classify_words(blk.bytes().data(), n_words, cls.data() + cls_off[b], use_avx2);
    detail::set_lossless_size(out[b], bits_from_classes(cls.data() + cls_off[b], n_words),
                              blk.size());
  }

  detail::scatter_payloads(blocks, out, [&](size_t b, detail::SpanBitWriter& w) {
    emit_from_classes(blocks[b].bytes().data(), blocks[b].size() / 4, cls.data() + cls_off[b],
                      w);
  });
}

namespace {
const CodecRegistrar fpc_registrar({
    .name = "FPC",
    .scheme = "frequent pattern compression",
    .paper = "Alameldeen & Wood, UW-Madison TR 2004 (paper Fig. 1 baseline)",
    .order = 1,
    .lossy = false,
    .needs_training = false,
    .compress_latency = 8,
    .decompress_latency = 5,
    .make = [](const CodecOptions&) -> std::shared_ptr<const Compressor> {
      return std::make_shared<FpcCompressor>();
    },
    .make_block_codec = nullptr,
});
}  // namespace

}  // namespace slc
