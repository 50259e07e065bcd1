#include "compress/e2mc.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <stdexcept>
#include <string>

#include "common/bitstream.h"
#include "compress/batch_writer.h"
#include "compress/codec_registry.h"
#include "compress/simd_dispatch.h"
#include "compress/simd_kernels.h"

namespace slc {

namespace {
// Stack staging bound for the AVX2 analyze path's code lengths (256 symbols
// = 512 B blocks); larger blocks sum straight off the table instead.
constexpr size_t kMaxStagedSymbols = 256;

std::atomic<uint64_t> g_next_model_id{1};

// Writes the pdp header and the byte-aligned ways of `block` into `w`
// (which must be empty) according to `lo`.
void emit_ways(const E2mcCompressor& e2mc, BlockView block, const WayLayout& lo,
               detail::SpanBitWriter& w) {
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

}  // namespace

E2mcCompressor::E2mcCompressor(HuffmanCode code, E2mcConfig cfg)
    : code_(std::move(code)),
      cfg_(cfg),
      model_id_(g_next_model_id.fetch_add(1, std::memory_order_relaxed)) {
  if (cfg_.num_ways < 1 || cfg_.num_ways > 8)
    throw std::invalid_argument("E2MC: num_ways must be in [1, 8]");
}

std::shared_ptr<E2mcCompressor> E2mcCompressor::train(std::span<const uint8_t> sample,
                                                      E2mcConfig cfg) {
  SymbolFrequencies freqs;
  freqs.add_sample(sample, cfg.sample_fraction);
  return std::make_shared<E2mcCompressor>(
      HuffmanCode::build(freqs, cfg.table_entries, cfg.max_code_len), cfg);
}

unsigned E2mcCompressor::pdp_bits(size_t block_bytes) {
  unsigned n = 0;
  while ((size_t{1} << n) < block_bytes) ++n;
  return n;
}

void E2mcCompressor::code_lengths(BlockView block, uint16_t* lens, simd::Level level) const {
  check_block_bytes(block.size(), kSymbolBits / 8, "E2MC");
  const uint8_t* p = block.bytes().data();
  const size_t n = block.num_symbols();
  if (level == simd::Level::kAvx2) {
    simd::e2mc_code_lengths_avx2(p, n, code_.encoded_bits_table(), lens);
  } else {
    for (size_t i = 0; i < n; ++i)
      lens[i] = static_cast<uint16_t>(code_.encoded_bits(detail::load_le16(p + 2 * i)));
  }
}

size_t E2mcCompressor::symbols_per_way(size_t num_symbols) const {
  if (num_symbols == 0 || num_symbols % cfg_.num_ways != 0)
    throw std::invalid_argument("E2MC: " + std::to_string(num_symbols) +
                                " symbols do not split into " +
                                std::to_string(cfg_.num_ways) + " ways");
  return num_symbols / cfg_.num_ways;
}

WayLayout E2mcCompressor::layout(std::span<const uint16_t> code_lens, size_t header_bits,
                                 size_t skip_start, size_t skip_count) const {
  WayLayout lo;
  lo.header_bits = header_bits;
  const size_t per_way = symbols_per_way(code_lens.size());
  const size_t skip_end = skip_start + skip_count;
  size_t total = (header_bits + 7) / 8;  // header byte-padded
  for (unsigned w = 0; w < cfg_.num_ways; ++w) {
    // The way's sum, minus the part of the skip window that falls inside it.
    const size_t begin = w * per_way, end = begin + per_way;
    size_t bits = 0;
    for (size_t i = begin; i < end; ++i) bits += code_lens[i];
    for (size_t i = std::max(begin, skip_start); i < std::min(end, skip_end); ++i)
      bits -= code_lens[i];
    lo.way_bits[w] = bits;
    lo.way_bytes[w] = (bits + 7) / 8;
    total += lo.way_bytes[w];
  }
  lo.total_bits = total * 8;
  return lo;
}

void E2mcCompressor::analyze_batch(std::span<const BlockView> blocks, BlockAnalysis* out) const {
  const bool use_avx2 = simd::active_level() == simd::Level::kAvx2;
  const uint32_t* enc = code_.encoded_bits_table();
  for (size_t b = 0; b < blocks.size(); ++b) {
    const BlockView blk = blocks[b];
    check_block_bytes(blk.size(), kSymbolBits / 8, "E2MC");
    const size_t n = blk.num_symbols();
    const size_t per_way = symbols_per_way(n);
    // layout() without the per-block lengths vector: sum encoded bits per
    // way directly off the flattened code-length table, escape cost folded
    // in (8-lane gathers when AVX2 is active; identical values either way).
    const uint8_t* p = blk.bytes().data();
    size_t total = (header_bits(blk.size()) + 7) / 8;
    if (use_avx2 && n <= kMaxStagedSymbols) {
      uint16_t lens[kMaxStagedSymbols];
      simd::e2mc_code_lengths_avx2(p, n, enc, lens);
      for (unsigned way = 0; way < cfg_.num_ways; ++way) {
        size_t way_bits = 0;
        for (size_t s = way * per_way; s < (way + 1) * per_way; ++s) way_bits += lens[s];
        total += (way_bits + 7) / 8;
      }
    } else {
      size_t s = 0;
      for (unsigned way = 0; way < cfg_.num_ways; ++way) {
        size_t way_bits = 0;
        for (size_t e = s + per_way; s < e; ++s) way_bits += enc[detail::load_le16(p + 2 * s)];
        total += (way_bits + 7) / 8;
      }
    }
    out[b] = detail::lossless_size(total * 8, blk.size());
  }
}

void E2mcCompressor::compress_batch(std::span<const BlockView> blocks,
                                    CompressedBlock* out) const {
  // Sizing pass: the code-length probe (8-lane gathers when AVX2 is active)
  // and the way layout per block; the emitter writes the header and ways
  // from each block's layout.
  std::vector<uint16_t> lens;  // scratch, reused across the batch
  std::vector<WayLayout> layouts(blocks.size());
  const simd::Level level = simd::active_level();
  for (size_t b = 0; b < blocks.size(); ++b) {
    const BlockView blk = blocks[b];
    lens.resize(blk.num_symbols());
    code_lengths(blk, lens.data(), level);
    layouts[b] = layout(lens, header_bits(blk.size()));
    detail::set_lossless_size(out[b], layouts[b].total_bits, blk.size());
  }

  detail::scatter_payloads(blocks, out, [&](size_t b, detail::SpanBitWriter& w) {
    emit_ways(*this, blocks[b], layouts[b], w);
  });
}

Block E2mcCompressor::decompress(const CompressedBlock& cb, size_t block_bytes) const {
  check_block_bytes(block_bytes, kSymbolBits / 8, "E2MC");
  if (!cb.is_compressed) {
    return Block(std::span<const uint8_t>(cb.payload.data(), block_bytes));
  }
  const unsigned pdp = pdp_bits(block_bytes);
  const size_t per_way = symbols_per_way(block_bytes * 8 / kSymbolBits);
  const size_t header_bytes = (header_bits(block_bytes) + 7) / 8;

  BitReader hdr(cb.payload);
  std::array<size_t, 8> way_off{};
  way_off[0] = header_bytes;
  for (unsigned i = 1; i < cfg_.num_ways; ++i) way_off[i] = hdr.get(pdp);

  Block out(block_bytes);
  for (unsigned way = 0; way < cfg_.num_ways; ++way) {
    BitReader r(cb.payload);
    r.seek(way_off[way] * 8);
    for (size_t s = way * per_way; s < (way + 1) * per_way; ++s) {
      const auto step = code_.decode(static_cast<uint16_t>(r.peek(16)));
      assert(step.bits > 0 && "invalid codeword");
      r.skip(step.bits);
      uint16_t sym = step.symbol;
      if (step.is_escape) sym = static_cast<uint16_t>(r.get(kSymbolBits));
      out.set_symbol(s, sym);
    }
  }
  return out;
}

namespace {
const CodecRegistrar e2mc_registrar({
    .name = "E2MC",
    .scheme = "entropy coding, 4 parallel decoding ways",
    .paper = "Lal et al., IPDPS 2017 (paper Sec. II-B, lossless baseline)",
    .order = 3,
    .lossy = false,
    .needs_training = true,
    .compress_latency = E2mcCompressor::kCompressLatency,
    .decompress_latency = E2mcCompressor::kDecompressLatency,
    .make = [](const CodecOptions& opts) -> std::shared_ptr<const Compressor> {
      if (opts.trained_e2mc) return opts.trained_e2mc;
      return E2mcCompressor::train(opts.training_data, opts.e2mc);
    },
    .make_block_codec = nullptr,
});
}  // namespace

}  // namespace slc
