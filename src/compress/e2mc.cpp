#include "compress/e2mc.h"

#include <algorithm>
#include <atomic>
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

// Zero-pads `w` to a byte: the header and every way end on one.
void pad_to_byte(detail::SpanBitWriter& w) {
  w.put(0, static_cast<unsigned>((8 - w.bit_size() % 8) % 8));
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

void WayLayout::way_offsets(unsigned num_ways, uint32_t* out) const {
  size_t off = (header_bits + 7) / 8;
  for (unsigned i = 1; i < num_ways; ++i) {
    off += way_bytes[i - 1];
    out[i] = static_cast<uint32_t>(off);
  }
}

void E2mcCompressor::write_pdps(detail::SpanBitWriter& w, size_t block_bytes, unsigned num_ways,
                                const uint32_t* way_offsets) {
  const unsigned pdp = pdp_bits(block_bytes);
  for (unsigned i = 1; i < num_ways; ++i) w.put(way_offsets[i], pdp);
  pad_to_byte(w);
}

void E2mcCompressor::read_pdps(BitReader& r, size_t block_bytes, unsigned num_ways,
                               uint32_t* way_offsets) {
  const unsigned pdp = pdp_bits(block_bytes);
  for (unsigned i = 1; i < num_ways; ++i) way_offsets[i] = static_cast<uint32_t>(r.get(pdp));
  r.seek((r.position() + 7) / 8 * 8);
}

void E2mcCompressor::emit_ways(BlockView block, detail::SpanBitWriter& w, size_t skip_start,
                               size_t skip_count) const {
  const size_t per_way = symbols_per_way(block.num_symbols());
  const size_t skip_end = skip_start + skip_count;
  for (unsigned way = 0; way < cfg_.num_ways; ++way) {
    const size_t begin = way * per_way, end = begin + per_way;
    code_.encode_run(block, begin, std::clamp(skip_start, begin, end), w);
    code_.encode_run(block, std::clamp(skip_end, begin, end), end, w);
    pad_to_byte(w);
  }
}

void E2mcCompressor::decode_ways(BitReader& r, const uint32_t* way_offsets, Block& out,
                                 size_t skip_start, size_t skip_count) const {
  const size_t per_way = symbols_per_way(out.size() * 8 / kSymbolBits);
  const size_t skip_end = skip_start + skip_count;
  size_t start = r.position();  // way 0's: the end of the header
  for (unsigned way = 0; way < cfg_.num_ways; ++way) {
    // Way i starts at pdp i: in order, and none past the payload.
    const size_t next = way + 1 < cfg_.num_ways ? size_t{way_offsets[way + 1]} * 8 : r.bit_size();
    if (next < start)
      throw std::invalid_argument("E2MC: way offsets out of order or past the payload");
    const size_t begin = way * per_way, end = begin + per_way;
    r.seek(start);
    code_.decode_run(r, out, begin, std::clamp(skip_start, begin, end));
    code_.decode_run(r, out, std::clamp(skip_end, begin, end), end);
    start = next;
  }
}

void E2mcCompressor::code_lengths(BlockView block, uint16_t* lens, uint16_t* sums8,
                                  simd::Level level) const {
  check_block_bytes(block.size(), kSymbolBits / 8, "E2MC");
  const uint8_t* p = block.bytes().data();
  const size_t n = block.num_symbols();
  const uint32_t* enc = code_.encoded_bits_table();
  if (level == simd::Level::kAvx2) {
    simd::e2mc_code_lengths_avx2(p, n, enc, lens, sums8);
    return;
  }
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    unsigned sum = 0;
    for (size_t k = i; k < i + 8; ++k) {
      lens[k] = static_cast<uint16_t>(enc[detail::load_le16(p + 2 * k)]);
      sum += lens[k];
    }
    sums8[i / 8] = static_cast<uint16_t>(sum);
  }
  for (; i < n; ++i) lens[i] = static_cast<uint16_t>(enc[detail::load_le16(p + 2 * i)]);
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
    // in (when AVX2 is active, 8-lane gathers whose group sums give the way
    // sums; identical values either way).
    const uint8_t* p = blk.bytes().data();
    size_t total = (header_bits(blk.size()) + 7) / 8;
    if (use_avx2 && n <= kMaxStagedSymbols) {
      uint16_t lens[kMaxStagedSymbols], sums8[kMaxStagedSymbols / 8];
      size_t bits[8];
      simd::e2mc_code_lengths_avx2(p, n, enc, lens, sums8);
      way_bits(lens, sums8, per_way, cfg_.num_ways, bits);
      for (unsigned way = 0; way < cfg_.num_ways; ++way) total += (bits[way] + 7) / 8;
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
  std::vector<uint16_t> lens, sums8;  // scratch, reused across the batch
  std::vector<WayLayout> layouts(blocks.size());
  const simd::Level level = simd::active_level();
  for (size_t b = 0; b < blocks.size(); ++b) {
    const BlockView blk = blocks[b];
    lens.resize(blk.num_symbols());
    sums8.resize(blk.num_symbols() / 8);
    code_lengths(blk, lens.data(), sums8.data(), level);
    layouts[b] = layout(lens, header_bits(blk.size()));
    detail::set_lossless_size(out[b], layouts[b].total_bits, blk.size());
  }

  detail::scatter_payloads(blocks, out, [&](size_t b, detail::SpanBitWriter& w) {
    uint32_t way_offsets[8] = {};
    layouts[b].way_offsets(cfg_.num_ways, way_offsets);
    write_pdps(w, blocks[b].size(), cfg_.num_ways, way_offsets);
    emit_ways(blocks[b], w);
  });
}

Block E2mcCompressor::decompress(const CompressedBlock& cb, size_t block_bytes) const {
  check_block_bytes(block_bytes, kSymbolBits / 8, "E2MC");
  if (!cb.is_compressed) return detail::stored_raw_block(cb, block_bytes);
  BitReader r(cb.payload);
  uint32_t way_offsets[8] = {};
  read_pdps(r, block_bytes, cfg_.num_ways, way_offsets);
  Block out(block_bytes);
  decode_ways(r, way_offsets, out);
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
