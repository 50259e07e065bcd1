// E2MC: entropy-encoding based memory compression for GPUs
// (Lal et al., IPDPS 2017) — the lossless baseline that SLC extends.
//
// Geometry follows the paper's best configuration: 16-bit symbols, 4 parallel
// decoding ways (PDWs) of 16 symbols each, and a per-block header of three
// parallel-decoding pointers (pdp). Each pdp is N bits with 2^N = block size
// in bytes (7 bits for 128 B), i.e. a byte offset, so each way's bitstream is
// byte-aligned. Compressed size is the header plus the byte-aligned ways —
// exactly the value the hardware obtains by summing code lengths (Sec. III-C).
#pragma once

#include <array>
#include <memory>

#include "compress/compressor.h"
#include "compress/huffman.h"
#include "compress/simd_dispatch.h"

namespace slc {

/// E2MC configuration knobs (defaults = paper's best configuration).
struct E2mcConfig {
  size_t table_entries = 1024;  ///< symbols with dedicated codewords
  unsigned max_code_len = 16;   ///< length limit (hardware table width)
  unsigned num_ways = 4;        ///< parallel decoding ways
  double sample_fraction = 0.10;///< online-sampling share of training data
};

/// Per-way layout of one encoded block: bit counts before byte alignment and
/// byte offsets of each way within the compressed payload.
struct WayLayout {
  std::array<size_t, 8> way_bits{};   // raw code bits per way
  std::array<size_t, 8> way_bytes{};  // byte-aligned sizes
  size_t header_bits = 0;
  size_t total_bits = 0;  // header (byte-padded) + sum(way_bytes)*8

  /// The pdps: out[i] = byte offset of way i (1 <= i < num_ways) in the
  /// payload, after the byte-padded header and ways 0..i-1.
  void way_offsets(unsigned num_ways, uint32_t* out) const;
};

class E2mcCompressor : public Compressor {
 public:
  /// Throws std::invalid_argument unless 1 <= cfg.num_ways <= 8.
  E2mcCompressor(HuffmanCode code, E2mcConfig cfg = {});

  /// Trains the frequency table on `sample` (prefix `cfg.sample_fraction` of
  /// it, modelling E2MC's online sampling window) and builds the code.
  static std::shared_ptr<E2mcCompressor> train(std::span<const uint8_t> sample,
                                               E2mcConfig cfg = {});

  std::string name() const override { return "E2MC"; }
  Block decompress(const CompressedBlock& cb, size_t block_bytes) const override;

  /// Batched kernels: analyze sums encoded bits per way straight off the
  /// flattened code-length table (8-lane gathers when AVX2 is active);
  /// compress runs the same probe into a way layout per block, then writes
  /// its pdps and ways through the shared payload scatter.
  using Compressor::compress_batch;
  void analyze_batch(std::span<const BlockView> blocks, BlockAnalysis* out) const override;
  void compress_batch(std::span<const BlockView> blocks, CompressedBlock* out) const override;

  /// The length probe the SLC decision reads from the compressor's
  /// code-length table: lens[i] = encoded bits of symbol i of `block`
  /// (escape cost folded in) for its num_symbols() symbols, with single
  /// le16 loads (8-lane gathers at simd::Level::kAvx2), and in the same
  /// pass sums8[k] = lens[8k] + ... + lens[8k + 7] for each of its
  /// num_symbols() / 8 whole groups of 8 (at kAvx2 folded from the gather
  /// registers). The caller owns the staging, so the SLC decision keeps it
  /// on the stack; a batch kernel reads the dispatch level once and passes
  /// it. Throws std::invalid_argument when the block is not whole symbols.
  void code_lengths(BlockView block, uint16_t* lens, uint16_t* sums8,
                    simd::Level level = simd::active_level()) const;

  /// Each way's code bits off a code_lengths() probe: out[w] for the
  /// num_ways ways of per_way symbols. A running sum over the group sums
  /// reaches each way's end, plus the lengths of the symbols past its last
  /// whole group (none when per_way is a multiple of 8): a way of 16
  /// symbols is two reads.
  static void way_bits(const uint16_t* lens, const uint16_t* sums8, size_t per_way,
                       unsigned num_ways, size_t* out) {
    size_t before = 0;  // code bits of the ways so far
    size_t groups = 0;  // code bits of the first k groups
    size_t k = 0;
    for (unsigned w = 0; w < num_ways; ++w) {
      const size_t end = (w + 1) * per_way;
      for (; k < end / 8; ++k) groups += sums8[k];
      size_t upto = groups;
      for (size_t i = 8 * k; i < end; ++i) upto += lens[i];
      out[w] = upto - before;
      before = upto;
    }
  }

  /// Layout (way bit/byte sizes, header, total) for a block, optionally with
  /// symbols [skip_start, skip_start+skip_count) removed from their way —
  /// used by the SLC codec to size a truncated block. Sums way by way and
  /// subtracts the part of the skip window inside each way: no per-symbol
  /// division or branch. Throws like symbols_per_way(code_lens.size()).
  WayLayout layout(std::span<const uint16_t> code_lens, size_t header_bits,
                   size_t skip_start = 0, size_t skip_count = 0) const;

  /// Symbols per decoding way for a block of `num_symbols` symbols. Throws
  /// std::invalid_argument unless the count is a positive multiple of
  /// num_ways: every path that sizes, emits or decodes ways checks it here.
  size_t symbols_per_way(size_t num_symbols) const;

  const HuffmanCode& code() const { return code_; }
  const E2mcConfig& config() const { return cfg_; }

  /// Process-unique identity of this trained model (monotonic counter, never
  /// reused). Two compressors with distinct code tables always report
  /// distinct ids, so consumers keying caches on a model — the fingerprint
  /// memo's codec key — can never mix decisions across trainings, even if
  /// one model is freed and another allocated at the same address.
  uint64_t model_id() const { return model_id_; }

  /// pdp width: N bits with 2^N = block size in bytes.
  static unsigned pdp_bits(size_t block_bytes);

  // --- the way layer ---------------------------------------------------------
  // E2MC payload: the pdps, byte-padded, then ways of HuffmanCode symbol runs.
  // A TSLC payload adds its Fig. 6 fields in front and cuts its window out.

  /// Writes way_offsets[1..num_ways-1] as pdp_bits(block_bytes)-bit pdps and
  /// byte-pads, as the pdps end a header; read_pdps() reads them back and
  /// leaves `r` at the first way.
  static void write_pdps(detail::SpanBitWriter& w, size_t block_bytes, unsigned num_ways,
                         const uint32_t* way_offsets);
  static void read_pdps(BitReader& r, size_t block_bytes, unsigned num_ways,
                        uint32_t* way_offsets);

  /// Emits the ways of `block`: each codes its symbols outside the window
  /// [skip_start, skip_start + skip_count) as the runs on either side of it
  /// and zero-pads to a byte. decode_ways() reads them into `out`, way 0
  /// from r's position and way i from byte way_offsets[i], leaving the
  /// window as it is; it throws std::invalid_argument unless those starts
  /// lie in order within the payload and every run ends inside it, and like
  /// symbols_per_way().
  void emit_ways(BlockView block, detail::SpanBitWriter& w, size_t skip_start = 0,
                 size_t skip_count = 0) const;
  void decode_ways(BitReader& r, const uint32_t* way_offsets, Block& out, size_t skip_start = 0,
                   size_t skip_count = 0) const;

  /// Baseline E2MC header: 3 pdps (no mode/ss/len fields).
  size_t header_bits(size_t block_bytes) const {
    return (cfg_.num_ways - 1) * pdp_bits(block_bytes);
  }

  /// Decompression / compression pipeline latencies in core cycles (paper
  /// Sec. IV-A: 46 cycles compress, 20 cycles decompress).
  static constexpr unsigned kCompressLatency = 46;
  static constexpr unsigned kDecompressLatency = 20;

 private:
  HuffmanCode code_;
  E2mcConfig cfg_;
  uint64_t model_id_;
};

}  // namespace slc
