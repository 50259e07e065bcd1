#include "compress/fpc.h"

#include <algorithm>
#include <cassert>
#include <cstring>
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

// Fills cls[i] with the FpcPattern id of word i (kZeroRun marking a zero
// word), vectorized when the dispatcher allows. Classification is the hot
// half of FPC; the run coalescing and bit emission below consume these ids
// instead of re-deriving them.
void classify_words(const uint8_t* p, size_t n_words, uint8_t* cls, bool use_avx2) {
  if (use_avx2) {
    simd::fpc_classify_avx2(p, n_words, cls);
    return;
  }
  for (size_t i = 0; i < n_words; ++i) {
    const uint32_t w = detail::load_le32(p + 4 * i);
    cls[i] = w == 0 ? static_cast<uint8_t>(FpcPattern::kZeroRun)
                    : static_cast<uint8_t>(FpcCompressor::classify(w));
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
      bits += kPrefixBits + FpcCompressor::payload_bits(FpcPattern::kZeroRun);
      i += run;
      continue;
    }
    bits += kPrefixBits + FpcCompressor::payload_bits(static_cast<FpcPattern>(cls[i]));
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

FpcPattern FpcCompressor::classify(uint32_t w) {
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

unsigned FpcCompressor::payload_bits(FpcPattern p) {
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

Block FpcCompressor::decompress(const CompressedBlock& cb, size_t block_bytes) const {
  check_block_bytes(block_bytes, 4, "FPC");
  if (!cb.is_compressed) {
    return Block(std::span<const uint8_t>(cb.payload.data(), block_bytes));
  }
  Block out(block_bytes);
  BitReader r(cb.payload);
  const size_t n_words = block_bytes / 4;
  size_t i = 0;
  while (i < n_words) {
    const auto p = static_cast<FpcPattern>(r.get(kPrefixBits));
    switch (p) {
      case FpcPattern::kZeroRun: {
        const size_t run = r.get(3) + 1;
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
    const size_t bits = bits_from_classes(cls.data(), n_words);
    BlockAnalysis a;
    const size_t raw_bits = blk.size() * 8;
    a.is_compressed = bits < raw_bits;
    a.bit_size = a.is_compressed ? bits : raw_bits;
    a.lossless_bits = a.bit_size;
    out[b] = a;
  }
}

void FpcCompressor::compress_batch(std::span<const BlockView> blocks, CompressedBlock* out) const {
  // Prefix-sum payload scatter: classify every block once (stage 1, the
  // vectorizable half), turn the implied exact payload sizes into arena
  // offsets, then emit each block at its own offset (stage 2) and slice the
  // arena into per-block payloads (stage 3).
  const size_t n = blocks.size();
  std::vector<size_t> cls_off(n, 0), bits(n, 0), sizes(n, 0), offsets(n, 0);
  const bool use_avx2 = simd::active_level() == simd::Level::kAvx2;

  size_t total_words = 0;
  for (size_t b = 0; b < n; ++b) {
    check_block_bytes(blocks[b].size(), 4, "FPC");
    cls_off[b] = total_words;
    total_words += blocks[b].size() / 4;
  }
  std::vector<uint8_t> cls_all(total_words);

  for (size_t b = 0; b < n; ++b) {
    const BlockView blk = blocks[b];
    const size_t n_words = blk.size() / 4;
    uint8_t* cls = cls_all.data() + cls_off[b];
    classify_words(blk.bytes().data(), n_words, cls, use_avx2);
    bits[b] = bits_from_classes(cls, n_words);
    sizes[b] = bits[b] < blk.size() * 8 ? (bits[b] + 7) / 8 : blk.size();
  }

  const size_t total = detail::exclusive_prefix_sum(sizes.data(), n, offsets.data());
  std::vector<uint8_t> arena(total);
  detail::SpanBitWriter w;

  for (size_t b = 0; b < n; ++b) {
    const BlockView blk = blocks[b];
    const uint8_t* p = blk.bytes().data();
    if (bits[b] >= blk.size() * 8) {  // stored raw
      std::memcpy(arena.data() + offsets[b], p, blk.size());
      continue;
    }
    w.reset(arena.data() + offsets[b]);
    emit_from_classes(p, blk.size() / 4, cls_all.data() + cls_off[b], w);
    assert(w.bit_size() == bits[b]);
    const size_t written = w.finish();
    assert(written == sizes[b]);
    (void)written;
  }

  for (size_t b = 0; b < n; ++b) {
    const BlockView blk = blocks[b];
    CompressedBlock cb;
    const uint8_t* slice = arena.data() + offsets[b];
    cb.is_compressed = bits[b] < blk.size() * 8;
    cb.bit_size = cb.is_compressed ? bits[b] : blk.size() * 8;
    cb.payload.assign(slice, slice + sizes[b]);
    out[b] = std::move(cb);
  }
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
