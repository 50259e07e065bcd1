#include "compress/bdi.h"

#include <array>
#include <cassert>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bitstream.h"
#include "compress/batch_writer.h"
#include "compress/codec_registry.h"
#include "compress/simd_dispatch.h"
#include "compress/simd_kernels.h"

namespace slc {

namespace {

constexpr unsigned kTagBits = 4;

using Geometry = BdiCompressor::Geometry;

Geometry geometry(BdiEncoding enc) { return BdiCompressor::geometry(enc); }

// Sign-extends the low `bytes*8` bits of v.
int64_t sext(uint64_t v, size_t bytes) {
  const unsigned bits = static_cast<unsigned>(bytes * 8);
  if (bits >= 64) return static_cast<int64_t>(v);
  const uint64_t mask = (uint64_t{1} << bits) - 1;
  uint64_t x = v & mask;
  const uint64_t sign = uint64_t{1} << (bits - 1);
  if (x & sign) x |= ~mask;
  return static_cast<int64_t>(x);
}

bool fits_signed(int64_t v, size_t bytes) {
  if (bytes >= 8) return true;
  const int64_t lim = int64_t{1} << (bytes * 8 - 1);
  return v >= -lim && v < lim;
}

const std::array<BdiEncoding, 6>& kOrder = BdiCompressor::candidate_order();

// The kernels read words straight off the block bytes with single
// little-endian loads, run the zero scan on 64-bit lanes, and probe each
// candidate once — the winning base is kept so compress never walks the
// block a second time. Every entry point first checks the block is whole
// 8 B words: the repeat and base-8 probes cannot encode a partial word.

// Word `i` of width `base_bytes`, little-endian.
uint64_t word_at(const uint8_t* p, size_t i, size_t base_bytes) {
  switch (base_bytes) {
    case 8: return detail::load_le64(p + i * 8);
    case 4: return detail::load_le32(p + i * 4);
    default: return detail::load_le16(p + i * 2);
  }
}

bool encodable_direct(const uint8_t* p, size_t block_bytes, BdiEncoding enc,
                      uint64_t* base_out) {
  const Geometry g = geometry(enc);
  const size_t n = block_bytes / g.base_bytes;
  bool have_base = false;
  uint64_t base = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t w = word_at(p, i, g.base_bytes);
    if (fits_signed(sext(w, g.base_bytes), g.delta_bytes)) continue;
    if (!have_base) {
      have_base = true;
      base = w;
      continue;
    }
    if (!fits_signed(sext(w - base, g.base_bytes), g.delta_bytes)) return false;
  }
  *base_out = have_base ? base : 0;
  return true;
}

// The scalar probe: the all-zero and repeated-64-bit special cases, then the
// smallest encodable base+delta candidate. Also returns the winning base.
BdiEncoding probe_direct(const uint8_t* p, size_t block_bytes, uint64_t* base_out) {
  *base_out = 0;
  const size_t n64 = block_bytes / 8;
  uint64_t acc = 0;
  for (size_t i = 0; i < n64; ++i) acc |= detail::load_le64(p + i * 8);
  if (acc == 0) return BdiEncoding::kZeros;

  const uint64_t first = detail::load_le64(p);
  bool repeated = true;
  for (size_t i = 1; i < n64; ++i)
    if (detail::load_le64(p + i * 8) != first) { repeated = false; break; }
  if (repeated) return BdiEncoding::kRepeat64;

  BdiEncoding best = BdiEncoding::kUncompressed;
  size_t best_bits = block_bytes * 8;
  for (BdiEncoding enc : kOrder) {
    const size_t bits = BdiCompressor::encoding_bits(enc, block_bytes);
    if (bits >= best_bits) continue;
    uint64_t base = 0;
    if (encodable_direct(p, block_bytes, enc, &base)) {
      best = enc;
      best_bits = bits;
      *base_out = base;
    }
  }
  return best;
}

}  // namespace

BdiCompressor::Geometry BdiCompressor::geometry(BdiEncoding enc) {
  switch (enc) {
    case BdiEncoding::kBase8Delta1: return {8, 1};
    case BdiEncoding::kBase8Delta2: return {8, 2};
    case BdiEncoding::kBase8Delta4: return {8, 4};
    case BdiEncoding::kBase4Delta1: return {4, 1};
    case BdiEncoding::kBase4Delta2: return {4, 2};
    case BdiEncoding::kBase2Delta1: return {2, 1};
    default: return {0, 0};
  }
}

const std::array<BdiEncoding, 6>& BdiCompressor::candidate_order() {
  // Ordered by compressed size (ascending for a 128 B block): B8D1 (212b)
  // < B4D1 (324b) < B8D2 (340b) < B4D2 (580b) < B8D4 = B2D1 (596b).
  static constexpr std::array<BdiEncoding, 6> kCandidates = {
      BdiEncoding::kBase8Delta1, BdiEncoding::kBase4Delta1, BdiEncoding::kBase8Delta2,
      BdiEncoding::kBase4Delta2, BdiEncoding::kBase8Delta4, BdiEncoding::kBase2Delta1,
  };
  return kCandidates;
}

size_t BdiCompressor::encoding_bits(BdiEncoding enc, size_t block_bytes) {
  const size_t block_bits = block_bytes * 8;
  switch (enc) {
    case BdiEncoding::kUncompressed: return block_bits;
    case BdiEncoding::kZeros: return kTagBits;
    case BdiEncoding::kRepeat64: return kTagBits + 64;
    default: break;
  }
  const Geometry g = geometry(enc);
  const size_t n = block_bytes / g.base_bytes;
  // tag + explicit base + per-word base-select mask + per-word delta
  return kTagBits + g.base_bytes * 8 + n + n * g.delta_bytes * 8;
}

Block BdiCompressor::decompress(const CompressedBlock& cb, size_t block_bytes) const {
  check_block_bytes(block_bytes, 8, "BDI");
  if (!cb.is_compressed) return detail::stored_raw_block(cb, block_bytes);
  BitReader r(cb.payload);
  const auto enc = static_cast<BdiEncoding>(r.get(kTagBits));
  Block out(block_bytes);
  switch (enc) {
    case BdiEncoding::kZeros:
      break;
    case BdiEncoding::kRepeat64: {
      const uint64_t v = r.get(64);
      for (size_t i = 0; i < block_bytes / 8; ++i) out.set_word64(i, v);
      break;
    }
    default: {
      // kUncompressed marks a stored-raw block, which has no compressed
      // payload, and the tags past kBase2Delta1 name no encoding.
      const Geometry g = geometry(enc);
      if (g.base_bytes == 0)
        throw std::invalid_argument("BDI payload: tag " + std::to_string(static_cast<int>(enc)) +
                                    " is no compressed encoding");
      const size_t n = block_bytes / g.base_bytes;
      const uint64_t base = r.get(static_cast<unsigned>(g.base_bytes * 8));
      std::vector<bool> use_base(n);
      for (size_t i = 0; i < n; ++i) use_base[i] = r.get_bit();
      for (size_t i = 0; i < n; ++i) {
        const uint64_t raw = r.get(static_cast<unsigned>(g.delta_bytes * 8));
        const int64_t delta = sext(raw, g.delta_bytes);
        const uint64_t v = use_base[i] ? base + static_cast<uint64_t>(delta)
                                       : static_cast<uint64_t>(delta);
        switch (g.base_bytes) {
          case 2: out.set_symbol(i, static_cast<uint16_t>(v)); break;
          case 4: out.set_word32(i, static_cast<uint32_t>(v)); break;
          case 8: out.set_word64(i, v); break;
          default: assert(false);
        }
      }
    }
  }
  if (r.overrun()) throw std::invalid_argument("BDI payload: the block ends past the payload");
  return out;
}

void BdiCompressor::analyze_batch(std::span<const BlockView> blocks, BlockAnalysis* out) const {
  const bool use_avx2 = simd::active_level() == simd::Level::kAvx2;
  for (size_t b = 0; b < blocks.size(); ++b) {
    const BlockView blk = blocks[b];
    check_block_bytes(blk.size(), 8, "BDI");
    BdiEncoding enc;
    if (use_avx2 && simd::bdi_avx2_applicable(blk.size())) {
      enc = simd::bdi_probe_avx2(blk.bytes().data(), blk.size()).enc;
    } else {
      uint64_t base = 0;
      enc = probe_direct(blk.bytes().data(), blk.size(), &base);
    }
    out[b] = detail::lossless_size(encoding_bits(enc, blk.size()), blk.size());
  }
}

void BdiCompressor::compress_batch(std::span<const BlockView> blocks, CompressedBlock* out) const {
  // Sizing pass: probe every block once (AVX2 when available) and keep the
  // winner's base and select mask for the emitter.
  struct Probe {
    BdiEncoding enc = BdiEncoding::kUncompressed;
    uint64_t base = 0;
    uint64_t mask = 0;       // per-word base-select bits (AVX2 probe only)
    bool have_mask = false;
  };
  std::vector<Probe> probes(blocks.size());
  const bool use_avx2 = simd::active_level() == simd::Level::kAvx2;
  for (size_t b = 0; b < blocks.size(); ++b) {
    const BlockView blk = blocks[b];
    Probe& pr = probes[b];
    check_block_bytes(blk.size(), 8, "BDI");
    const uint8_t* p = blk.bytes().data();
    if (use_avx2 && simd::bdi_avx2_applicable(blk.size())) {
      const simd::BdiProbe sp = simd::bdi_probe_avx2(p, blk.size());
      pr.enc = sp.enc;
      pr.base = sp.base;
      pr.mask = sp.use_base_mask;
      pr.have_mask = true;
    } else {
      pr.enc = probe_direct(p, blk.size(), &pr.base);
    }
    detail::set_lossless_size(out[b], encoding_bits(pr.enc, blk.size()), blk.size());
  }

  detail::scatter_payloads(blocks, out, [&](size_t b, detail::SpanBitWriter& w) {
    const uint8_t* p = blocks[b].bytes().data();
    const Probe& pr = probes[b];
    w.put(static_cast<uint64_t>(pr.enc), kTagBits);
    switch (pr.enc) {
      case BdiEncoding::kZeros:
        break;  // tag only
      case BdiEncoding::kRepeat64:
        w.put(detail::load_le64(p), 64);
        break;
      default: {
        const Geometry g = geometry(pr.enc);
        const size_t nw = blocks[b].size() / g.base_bytes;
        w.put(pr.base, static_cast<unsigned>(g.base_bytes * 8));
        if (pr.have_mask) {
          // The probe already decided zero-base vs explicit-base per word.
          for (size_t i = 0; i < nw; ++i) w.put_bit((pr.mask >> i) & 1);
          for (size_t i = 0; i < nw; ++i) {
            const uint64_t v = word_at(p, i, g.base_bytes);
            const bool use_base = (pr.mask >> i) & 1;
            w.put(use_base ? v - pr.base : v, static_cast<unsigned>(g.delta_bytes * 8));
          }
        } else {
          for (size_t i = 0; i < nw; ++i) {
            const uint64_t v = word_at(p, i, g.base_bytes);
            w.put_bit(!fits_signed(sext(v, g.base_bytes), g.delta_bytes));
          }
          for (size_t i = 0; i < nw; ++i) {
            const uint64_t v = word_at(p, i, g.base_bytes);
            const bool use_zero = fits_signed(sext(v, g.base_bytes), g.delta_bytes);
            w.put(use_zero ? v : v - pr.base, static_cast<unsigned>(g.delta_bytes * 8));
          }
        }
        break;
      }
    }
  });
}

namespace {
const CodecRegistrar bdi_registrar({
    .name = "BDI",
    .scheme = "base-delta-immediate",
    .paper = "Pekhimenko et al., PACT 2012 (paper Fig. 1 baseline)",
    .order = 0,
    .lossy = false,
    .needs_training = false,
    .compress_latency = 2,
    .decompress_latency = 1,
    .make = [](const CodecOptions&) -> std::shared_ptr<const Compressor> {
      return std::make_shared<BdiCompressor>();
    },
    .make_block_codec = nullptr,
});
}  // namespace

}  // namespace slc
