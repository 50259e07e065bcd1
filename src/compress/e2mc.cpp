#include "compress/e2mc.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "common/bitstream.h"
#include "compress/batch_writer.h"
#include "compress/codec_registry.h"
#include "compress/simd_dispatch.h"
#include "compress/simd_kernels.h"

namespace slc {

namespace {

std::atomic<uint64_t> g_next_model_id{1};

// Zero-pads `w` to a byte: the header and every way end on one.
void pad_to_byte(detail::SpanBitWriter& w) {
  w.put(0, static_cast<unsigned>((8 - w.bit_size() % 8) % 8));
}

}  // namespace

E2mcCompressor::E2mcCompressor(HuffmanCode code, E2mcConfig cfg)
    : code_(std::move(code)),
      cfg_(cfg),
      model_id_(g_next_model_id.fetch_add(1, std::memory_order_relaxed)) {}

std::shared_ptr<E2mcCompressor> E2mcCompressor::train(std::span<const uint8_t> sample,
                                                      E2mcConfig cfg) {
  SymbolFrequencies freqs;
  freqs.add_sample(sample, cfg.sample_fraction);
  return std::make_shared<E2mcCompressor>(
      HuffmanCode::build(freqs, cfg.table_entries, cfg.max_code_len), cfg);
}

void WayLayout::way_offsets(uint32_t* out) const {
  size_t off = (header_bits + 7) / 8;
  for (unsigned i = 1; i < kNumWays; ++i) {
    off += way_bytes[i - 1];
    out[i] = static_cast<uint32_t>(off);
  }
}

void E2mcCompressor::write_pdps(detail::SpanBitWriter& w, const uint32_t* way_offsets) {
  for (unsigned i = 1; i < kNumWays; ++i) w.put(way_offsets[i], kPdpBits);
  pad_to_byte(w);
}

void E2mcCompressor::read_pdps(BitReader& r, uint32_t* way_offsets) {
  for (unsigned i = 1; i < kNumWays; ++i) way_offsets[i] = static_cast<uint32_t>(r.get(kPdpBits));
  r.seek((r.position() + 7) / 8 * 8);
}

void E2mcCompressor::emit_ways(BlockView block, detail::SpanBitWriter& w, size_t skip_start,
                               size_t skip_count) const {
  const size_t skip_end = skip_start + skip_count;
  for (unsigned way = 0; way < kNumWays; ++way) {
    const size_t begin = way * kSymbolsPerWay, end = begin + kSymbolsPerWay;
    code_.encode_run(block, begin, std::clamp(skip_start, begin, end), w);
    code_.encode_run(block, std::clamp(skip_end, begin, end), end, w);
    pad_to_byte(w);
  }
}

void E2mcCompressor::decode_ways(BitReader& r, const uint32_t* way_offsets, Block& out,
                                 size_t skip_start, size_t skip_count) const {
  const size_t skip_end = skip_start + skip_count;
  size_t start = r.position();  // way 0's: the end of the header
  for (unsigned way = 0; way < kNumWays; ++way) {
    const size_t begin = way * kSymbolsPerWay, end = begin + kSymbolsPerWay;
    r.seek(start);
    code_.decode_run(r, out, begin, std::clamp(skip_start, begin, end));
    code_.decode_run(r, out, std::clamp(skip_end, begin, end), end);
    // Byte-padded, the way ends where pdp way + 1 (the payload, for the
    // last way) says the next begins.
    start = way + 1 < kNumWays ? size_t{way_offsets[way + 1]} * 8 : r.bit_size();
    if ((r.position() + 7) / 8 * 8 != start)
      throw std::invalid_argument("E2MC: a way does not end where the next one or the payload "
                                  "does");
  }
}

void E2mcCompressor::code_lengths(BlockView block, uint16_t* lens, uint16_t* sums8,
                                  simd::Level level) const {
  check_block_bytes(block.size(), "E2MC");
  const uint8_t* p = block.bytes().data();
  const uint32_t* enc = code_.encoded_bits_table();
  if (level == simd::Level::kAvx2) {
    simd::e2mc_code_lengths_avx2(p, enc, lens, sums8);
    return;
  }
  for (size_t i = 0; i < kSymbolsPerBlock; i += 8) {
    unsigned sum = 0;
    for (size_t k = i; k < i + 8; ++k) {
      lens[k] = static_cast<uint16_t>(enc[detail::load_le16(p + 2 * k)]);
      sum += lens[k];
    }
    sums8[i / 8] = static_cast<uint16_t>(sum);
  }
}

WayLayout E2mcCompressor::layout(const uint16_t* lens, size_t header_bits, size_t skip_start,
                                 size_t skip_count) {
  WayLayout lo;
  lo.header_bits = header_bits;
  const size_t skip_end = skip_start + skip_count;
  size_t total = (header_bits + 7) / 8;  // header byte-padded
  for (unsigned w = 0; w < kNumWays; ++w) {
    // The way's sum, minus the part of the skip window that falls inside it.
    const size_t begin = w * kSymbolsPerWay, end = begin + kSymbolsPerWay;
    size_t bits = 0;
    for (size_t i = begin; i < end; ++i) bits += lens[i];
    for (size_t i = std::max(begin, skip_start); i < std::min(end, skip_end); ++i)
      bits -= lens[i];
    lo.way_bits[w] = bits;
    lo.way_bytes[w] = (bits + 7) / 8;
    total += lo.way_bytes[w];
  }
  lo.total_bits = total * 8;
  return lo;
}

void E2mcCompressor::analyze_batch(std::span<const BlockView> blocks, BlockAnalysis* out) const {
  // layout() without staging the lengths: sum encoded bits per way directly
  // off the flattened code-length table, escape cost folded in.
  const uint32_t* enc = code_.encoded_bits_table();
  for (size_t b = 0; b < blocks.size(); ++b) {
    check_block_bytes(blocks[b].size(), "E2MC");
    const uint8_t* p = blocks[b].bytes().data();
    size_t total = (kHeaderBits + 7) / 8;
    for (size_t s = 0; s < kSymbolsPerBlock;) {
      size_t way_bits = 0;
      for (const size_t e = s + kSymbolsPerWay; s < e; ++s)
        way_bits += enc[detail::load_le16(p + 2 * s)];
      total += (way_bits + 7) / 8;
    }
    out[b] = detail::lossless_size(total * 8);
  }
}

void E2mcCompressor::compress_batch(std::span<const BlockView> blocks,
                                    CompressedBlock* out) const {
  // Sizing pass: the code-length probe (8-lane gathers when AVX2 is active)
  // and the way layout per block; the emitter writes the header and ways
  // from each block's layout.
  std::vector<WayLayout> layouts(blocks.size());
  const simd::Level level = simd::active_level();
  for (size_t b = 0; b < blocks.size(); ++b) {
    uint16_t lens[kSymbolsPerBlock], sums8[kSymbolsPerBlock / 8];
    code_lengths(blocks[b], lens, sums8, level);
    layouts[b] = layout(lens, kHeaderBits);
    detail::set_lossless_size(out[b], layouts[b].total_bits);
  }

  detail::scatter_payloads(blocks, out, [&](size_t b, detail::SpanBitWriter& w) {
    uint32_t way_offsets[kNumWays] = {};
    layouts[b].way_offsets(way_offsets);
    write_pdps(w, way_offsets);
    emit_ways(blocks[b], w);
  });
}

Block E2mcCompressor::decompress(const CompressedBlock& cb, size_t block_bytes) const {
  check_block_bytes(block_bytes, "E2MC");
  if (!cb.is_compressed) return detail::stored_raw_block(cb);
  BitReader r(cb.payload);
  uint32_t way_offsets[kNumWays] = {};
  read_pdps(r, way_offsets);
  Block out;
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
