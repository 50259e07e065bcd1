// AVX2 kernel entry points for the hot batch loops (internal).
//
// These are the vector halves of the batch kernels in bdi/fpc/e2mc.cpp:
// the scheme files call them only when simd::active_level() == kAvx2, so
// every declaration here has a scalar sub-kernel twin that must produce the
// same bytes. The implementations live in
// simd_avx2.cpp, the one translation unit built with -mavx2; in builds
// without SLC_HAVE_AVX2_KERNELS the dispatcher never selects kAvx2 and the
// inline stubs below keep the scheme files link-clean without a single
// #ifdef at the call sites.
#pragma once

#include <cstddef>
#include <cstdint>

#include "compress/bdi.h"

namespace slc::simd {

/// Outcome of the vector BDI probe: the winning encoding, its explicit base,
/// and — for the base+delta encodings — the per-word base-select mask
/// (bit i set => word i needs the explicit base; exactly the !use_zero bit
/// the compress kernel emits), so compress never re-derives either.
struct BdiProbe {
  BdiEncoding enc = BdiEncoding::kUncompressed;
  uint64_t base = 0;
  uint64_t use_base_mask = 0;
};

/// probe_direct() on the four 256-bit tiles of a block: zero/repeat scan,
/// then every candidate encoding probed with broadcast-subtract range
/// checks. Identical decisions to the scalar probe_direct for any input.
BdiProbe bdi_probe_avx2(const uint8_t* p);

/// FPC prefix classification of the 32 little-endian 32-bit words of a
/// block: cls[i] gets the FpcPattern value of word i, with 0 (kZeroRun)
/// marking a zero word — run coalescing stays with the caller, exactly like
/// the scalar walk.
void fpc_classify_avx2(const uint8_t* p, uint8_t* cls);

/// E2MC code-length probe: lens[i] = bits_table[symbol i] for the 64
/// little-endian 16-bit symbols of a block, via 8-lane gathers over the
/// flattened encoded-bits table (HuffmanCode::encoded_bits_table()), and
/// sums8[k] = lens[8k] + ... + lens[8k + 7] for its 8 groups, folded from
/// the gather registers by horizontal adds. Each length must be at most
/// CodeLengthTree::kMaxLengthBits, so a sum fits 16 bits.
void e2mc_code_lengths_avx2(const uint8_t* p, const uint32_t* bits_table, uint16_t* lens,
                            uint16_t* sums8);

#if !SLC_HAVE_AVX2_KERNELS
// Builds without the AVX2 TU: unreachable (active_level() is pinned to
// kScalar), present only so the call sites compile unchanged.
inline BdiProbe bdi_probe_avx2(const uint8_t*) { return {}; }
inline void fpc_classify_avx2(const uint8_t*, uint8_t*) {}
inline void e2mc_code_lengths_avx2(const uint8_t*, const uint32_t*, uint16_t*, uint16_t*) {}
#endif

}  // namespace slc::simd
