// AVX2 implementations of the hot batch-kernel loops (see simd_kernels.h).
//
// This is the only translation unit compiled with -mavx2; everything it
// defines is reached exclusively through simd::active_level() dispatch, so
// the rest of the build stays baseline-ISA. Each kernel mirrors its scalar
// twin exactly — same candidate order, same priority chains, same arithmetic
// — and the equivalence is pinned by tests/test_batch_kernels.cpp across
// both dispatch settings.
//
// Shared idiom (the FPDC warp-kernel shape): wide probes classify or
// range-check whole tiles per instruction, the per-block/per-word outcomes
// come back as bitmasks or id lanes, and the serial remainder (bit emission,
// zero-run coalescing) consumes those precomputed results instead of
// re-deriving them word by word.
//
// Range-check trick used throughout: a two's-complement value v (lane width
// W bits) fits a signed D-byte field iff (v + 2^(8D-1)) mod 2^W < 2^(8D),
// i.e. ((v + lim) & ~(2*lim - 1)) == 0 with lim = 2^(8D-1) — one add, one
// and, one compare per tile, valid whenever D < W/8 (true for every BDI
// candidate and FPC class).

#include "compress/simd_kernels.h"

#if SLC_HAVE_AVX2_KERNELS

#include <immintrin.h>

#include <cstring>

#include "compress/fpc.h"

namespace slc::simd {

namespace {

// The four 256-bit tiles of a block staged in registers, loaded once
// (unaligned loads — BlockViews carry no alignment guarantee) and reused by
// the zero/repeat scan and every candidate probe.
constexpr size_t kTiles = kBlockBytes / 32;
struct Tiles {
  __m256i v[kTiles];
};

Tiles load_tiles(const uint8_t* p) {
  Tiles t;
  for (size_t i = 0; i < kTiles; ++i)
    t.v[i] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32 * i));
  return t;
}

// --- per-lane signed-range checks, one bit per word -------------------------

uint32_t fit_bits64(__m256i v, int64_t lim) {
  const __m256i t = _mm256_and_si256(_mm256_add_epi64(v, _mm256_set1_epi64x(lim)),
                                     _mm256_set1_epi64x(~(2 * lim - 1)));
  const __m256i eq = _mm256_cmpeq_epi64(t, _mm256_setzero_si256());
  return static_cast<uint32_t>(_mm256_movemask_pd(_mm256_castsi256_pd(eq)));
}

uint32_t fit_bits32(__m256i v, int32_t lim) {
  const __m256i t = _mm256_and_si256(_mm256_add_epi32(v, _mm256_set1_epi32(lim)),
                                     _mm256_set1_epi32(~(2 * lim - 1)));
  const __m256i eq = _mm256_cmpeq_epi32(t, _mm256_setzero_si256());
  return static_cast<uint32_t>(_mm256_movemask_ps(_mm256_castsi256_ps(eq)));
}

uint32_t fit_bits16(__m256i v, int16_t lim) {
  const __m256i t =
      _mm256_and_si256(_mm256_add_epi16(v, _mm256_set1_epi16(lim)),
                       _mm256_set1_epi16(static_cast<int16_t>(~(2 * lim - 1))));
  const __m256i eq = _mm256_cmpeq_epi16(t, _mm256_setzero_si256());
  // 16-bit lanes have no direct movemask: pack the 0xFFFF/0x0000 lanes to
  // bytes (signed saturation keeps the sign bit), undo the cross-lane
  // interleave, and take the byte movemask.
  const __m256i packed = _mm256_packs_epi16(eq, _mm256_setzero_si256());
  const __m256i ordered = _mm256_permute4x64_epi64(packed, 0xD8);
  return static_cast<uint32_t>(_mm256_movemask_epi8(ordered)) & 0xFFFFu;
}

// Word `i` of width `base_bytes`, zero-extended (x86 loads are already
// little-endian, matching the scalar word_at()).
uint64_t word_at(const uint8_t* p, size_t i, size_t base_bytes) {
  uint64_t v = 0;
  std::memcpy(&v, p + i * base_bytes, base_bytes);
  return v;
}

// Lane-width-specific tile ops, so the candidate probe below is stamped out
// once per base width with no per-tile dispatch.
template <size_t B> struct LaneOps;
template <> struct LaneOps<8> {
  static constexpr unsigned kWordsPerTile = 4;
  static __m256i bcast(uint64_t v) { return _mm256_set1_epi64x(static_cast<int64_t>(v)); }
  static __m256i sub(__m256i a, __m256i b) { return _mm256_sub_epi64(a, b); }
  static uint32_t fit(__m256i v, int64_t lim) { return fit_bits64(v, lim); }
};
template <> struct LaneOps<4> {
  static constexpr unsigned kWordsPerTile = 8;
  static __m256i bcast(uint64_t v) { return _mm256_set1_epi32(static_cast<int32_t>(v)); }
  static __m256i sub(__m256i a, __m256i b) { return _mm256_sub_epi32(a, b); }
  static uint32_t fit(__m256i v, int64_t lim) {
    return fit_bits32(v, static_cast<int32_t>(lim));
  }
};
template <> struct LaneOps<2> {
  static constexpr unsigned kWordsPerTile = 16;
  static __m256i bcast(uint64_t v) { return _mm256_set1_epi16(static_cast<int16_t>(v)); }
  static __m256i sub(__m256i a, __m256i b) { return _mm256_sub_epi16(a, b); }
  static uint32_t fit(__m256i v, int64_t lim) {
    return fit_bits16(v, static_cast<int16_t>(lim));
  }
};

// encodable_direct() on tiles: same base selection (first word that does not
// fit as an immediate), same per-word checks. Streams tile by tile so an
// unencodable candidate fails at its first bad tile — the common case for
// incompressible data, where the scalar probe bails after a word or two and
// a blockwide mask pass would be pure overhead. The base is always legal to
// pick up mid-stream: every word before the first non-immediate one fit as
// an immediate, so earlier tiles never needed the delta check.
template <size_t B>
bool encodable_avx2(const Tiles& t, const uint8_t* p, int64_t lim, uint64_t* base_out,
                    uint64_t* mask_out) {
  using Ops = LaneOps<B>;
  constexpr unsigned wpt = Ops::kWordsPerTile;
  constexpr uint32_t all = (uint32_t{1} << wpt) - 1;
  uint64_t mask = 0;
  bool have_base = false;
  uint64_t base = 0;
  __m256i vbase = _mm256_setzero_si256();
  for (size_t ti = 0; ti < kTiles; ++ti) {
    const uint32_t imm = Ops::fit(t.v[ti], lim) & all;
    const uint32_t non_imm = ~imm & all;
    if (non_imm != 0) {
      if (!have_base) {
        have_base = true;
        base = word_at(p, ti * wpt + static_cast<unsigned>(__builtin_ctz(non_imm)), B);
        vbase = Ops::bcast(base);
      }
      const uint32_t dfit = Ops::fit(Ops::sub(t.v[ti], vbase), lim);
      if (((imm | dfit) & all) != all) return false;
    }
    mask |= static_cast<uint64_t>(non_imm) << (ti * wpt);
  }
  *base_out = have_base ? base : 0;
  *mask_out = mask;  // exactly the !use_zero bits the emit loop writes
  return true;
}

bool encodable_avx2(const Tiles& t, const uint8_t* p, BdiCompressor::Geometry g,
                    uint64_t* base_out, uint64_t* mask_out) {
  const int64_t lim = int64_t{1} << (g.delta_bytes * 8 - 1);
  switch (g.base_bytes) {
    case 8: return encodable_avx2<8>(t, p, lim, base_out, mask_out);
    case 4: return encodable_avx2<4>(t, p, lim, base_out, mask_out);
    default: return encodable_avx2<2>(t, p, lim, base_out, mask_out);
  }
}

}  // namespace

BdiProbe bdi_probe_avx2(const uint8_t* p) {
  const Tiles t = load_tiles(p);

  BdiProbe out;
  __m256i acc = t.v[0];
  for (size_t i = 1; i < kTiles; ++i) acc = _mm256_or_si256(acc, t.v[i]);
  if (_mm256_testz_si256(acc, acc)) {
    out.enc = BdiEncoding::kZeros;
    return out;
  }

  uint64_t first = 0;
  std::memcpy(&first, p, 8);
  const __m256i bcast = _mm256_set1_epi64x(static_cast<int64_t>(first));
  bool repeated = true;
  for (size_t i = 0; i < kTiles && repeated; ++i) {
    const __m256i eq = _mm256_cmpeq_epi64(t.v[i], bcast);
    repeated = _mm256_movemask_pd(_mm256_castsi256_pd(eq)) == 0xF;
  }
  if (repeated) {
    out.enc = BdiEncoding::kRepeat64;
    return out;
  }

  size_t best_bits = kBlockBytes * 8;
  for (const BdiEncoding enc : BdiCompressor::candidate_order()) {
    const size_t bits = BdiCompressor::encoding_bits(enc);
    if (bits >= best_bits) continue;
    uint64_t base = 0, mask = 0;
    if (encodable_avx2(t, p, BdiCompressor::geometry(enc), &base, &mask)) {
      out.enc = enc;
      out.base = base;
      out.use_base_mask = mask;
      best_bits = bits;
    }
  }
  return out;
}

namespace {

// FpcPattern per 32-bit lane, priority-selected exactly like the scalar
// classify() chain (applied in reverse so the highest-priority class wins).
__m256i fpc_classify_vec(__m256i v) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i ones32 = _mm256_set1_epi32(-1);

  const auto fits = [&](int32_t lim) {
    const __m256i t = _mm256_and_si256(_mm256_add_epi32(v, _mm256_set1_epi32(lim)),
                                       _mm256_set1_epi32(~(2 * lim - 1)));
    return _mm256_cmpeq_epi32(t, zero);
  };
  const __m256i is_zero = _mm256_cmpeq_epi32(v, zero);
  const __m256i se4 = fits(8);
  const __m256i se8 = fits(128);
  const __m256i se16 = fits(32768);
  const __m256i half =
      _mm256_cmpeq_epi32(_mm256_and_si256(v, _mm256_set1_epi32(0xFFFF)), zero);
  // Both halfwords 8-bit sign-extendable: 16-bit range check, then require
  // both 16-bit lanes of each word to pass.
  __m256i two = _mm256_and_si256(_mm256_add_epi16(v, _mm256_set1_epi16(128)),
                                 _mm256_set1_epi16(static_cast<int16_t>(0xFF00)));
  two = _mm256_cmpeq_epi16(two, zero);
  two = _mm256_cmpeq_epi32(two, ones32);
  // All four bytes equal: compare against the byte-rotated word.
  const __m256i rot = _mm256_setr_epi8(1, 2, 3, 0, 5, 6, 7, 4, 9, 10, 11, 8, 13, 14, 15, 12,
                                       1, 2, 3, 0, 5, 6, 7, 4, 9, 10, 11, 8, 13, 14, 15, 12);
  __m256i rep = _mm256_cmpeq_epi8(v, _mm256_shuffle_epi8(v, rot));
  rep = _mm256_cmpeq_epi32(rep, ones32);

  __m256i id = _mm256_set1_epi32(static_cast<int>(FpcPattern::kUncompressed));
  const auto sel = [&](__m256i mask, FpcPattern p) {
    id = _mm256_blendv_epi8(id, _mm256_set1_epi32(static_cast<int>(p)), mask);
  };
  sel(rep, FpcPattern::kRepeatedBytes);
  sel(two, FpcPattern::kTwoHalfwordsSE);
  sel(half, FpcPattern::kHalfwordPadded);
  sel(se16, FpcPattern::kSignExt16);
  sel(se8, FpcPattern::kSignExt8);
  sel(se4, FpcPattern::kSignExt4);
  sel(is_zero, FpcPattern::kZeroRun);  // zero words; runs coalesce later
  return id;
}

}  // namespace

void fpc_classify_avx2(const uint8_t* p, uint8_t* cls) {
  static_assert(kBlockBytes / 4 == 32, "one block is four tiles of 8 words");
  __m256i id[4];
  for (int k = 0; k < 4; ++k)
    id[k] = fpc_classify_vec(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32 * k)));
  // 4x8 dword ids -> 32 bytes in word order (packs interleave 128-bit
  // lanes; the final dword permute restores it).
  const __m256i ab = _mm256_packus_epi32(id[0], id[1]);
  const __m256i cd = _mm256_packus_epi32(id[2], id[3]);
  __m256i bytes = _mm256_packus_epi16(ab, cd);
  bytes = _mm256_permutevar8x32_epi32(bytes, _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(cls), bytes);
}

void e2mc_code_lengths_avx2(const uint8_t* p, const uint32_t* bits_table, uint16_t* lens,
                            uint16_t* sums8) {
  // Eight lengths per gather, packed to 16-bit lanes and stored.
  const auto gather8 = [&](size_t i) {
    const __m128i syms = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 2 * i));
    const __m256i idx = _mm256_cvtepu16_epi32(syms);
    const __m256i bits =
        _mm256_i32gather_epi32(reinterpret_cast<const int*>(bits_table), idx, 4);
    const __m128i packed = _mm_packus_epi32(_mm256_castsi256_si128(bits),
                                            _mm256_extracti128_si256(bits, 1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(lens + i), packed);
    return packed;
  };
  // Three rounds of pairwise horizontal adds fold the block's eight gathers
  // into one vector of their eight group sums, in order. No lane wraps: a
  // group sums at most 8 lengths below 2^11.
  static_assert(kSymbolsPerBlock == 64, "one block is eight gathers");
  __m128i g[8];
  for (size_t k = 0; k < 8; ++k) g[k] = gather8(8 * k);
  const __m128i q0 = _mm_hadd_epi16(_mm_hadd_epi16(g[0], g[1]), _mm_hadd_epi16(g[2], g[3]));
  const __m128i q1 = _mm_hadd_epi16(_mm_hadd_epi16(g[4], g[5]), _mm_hadd_epi16(g[6], g[7]));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(sums8), _mm_hadd_epi16(q0, q1));
}

}  // namespace slc::simd

#endif  // SLC_HAVE_AVX2_KERNELS
