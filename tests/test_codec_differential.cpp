// Differential tests against the reference loops in codec_reference.h: the
// lossless schemes' batch kernels against the per-block reference encoders
// over seeded block streams, E2mcCompressor::layout and
// CodeLengthTree::select against the per-symbol loops over seeded random
// code lengths of 1-32 bits, and SlcCodec's batch decision against the
// per-block ref_decide over seeded block streams, also as SlcBlockCodec and
// ApproxMemory commit it at every region threshold. Every payload,
// BlockAnalysis, WayLayout, TreeCandidate and Decision must match field by
// field, and every SLC payload must carry its reference decision.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "codec_reference.h"
#include "common/rng.h"
#include "core/fingerprint_cache.h"
#include "core/slc_block_codec.h"
#include "test_util.h"
#include "workloads/approx_memory.h"

namespace slc {
namespace {

// --- lossless encoders ----------------------------------------------------------

// Every lossless scheme's analyze_batch/compress_batch against its reference
// encoder: C-PACK at every dictionary size and E2MC at every way count, on
// blocks from one word to 8 KiB (every size over 512 B is one the kernels
// once handed to a per-block scalar member), random, all-zero, denormal,
// value-similar, repeat-delta and zero-run data, at batch splits of 1, 5 and
// the whole span with the SIMD sub-kernels pinned off and on. Two more spans
// per scheme check the payload layout's edges: an empty span, which must
// write no slot, and one span mixing one-word, 96 B, 128 B, 520 B and 8 KiB
// blocks of random and all-zero data, so stored-raw and compressed payloads
// of every size sit side by side. analyze_batch must also size every block
// exactly as compress_batch does, a compressed block must be smaller than
// the raw block, and decompress must return every block.
TEST(CodecDifferential, LosslessMatchesReference) {
  test::ForceScalarGuard guard;
  const auto training = test::quantized_walk(0x1055, 64);
  struct Scheme {
    std::string label;
    std::shared_ptr<const Compressor> comp;
    size_t word_bytes;  // the scheme's coding unit
    size_t ways;        // symbols must split evenly into this many ways
  };
  std::vector<Scheme> schemes = {{"BDI", std::make_shared<BdiCompressor>(), 8, 1},
                                 {"FPC", std::make_shared<FpcCompressor>(), 4, 1}};
  for (const size_t dict : {2, 4, 8, 16, 32, 64})
    schemes.push_back({"C-PACK/" + std::to_string(dict),
                       std::make_shared<CpackCompressor>(dict), 4, 1});
  for (const unsigned ways : {1u, 2u, 4u, 8u}) {
    E2mcConfig cfg;
    cfg.num_ways = ways;
    schemes.push_back({"E2MC/" + std::to_string(ways) + "way",
                       E2mcCompressor::train(training, cfg), 2, ways});
  }
  schemes.push_back({"Huffman", HuffmanCompressor::train(training), 2, 1});

  size_t large_compressed = 0;  // compressed blocks over 512 B
  const auto check_span = [&](const Scheme& sc, const test::RefCodec& ref,
                              const std::vector<Block>& blocks, const std::string& tag) {
    const size_t n_blocks = blocks.size();
    const std::vector<BlockView> views = to_views(blocks);
    std::vector<BlockAnalysis> want_a(n_blocks);
    std::vector<CompressedBlock> want_c(n_blocks);
    for (size_t i = 0; i < n_blocks; ++i) {
      want_a[i] = ref.analyze(*sc.comp, views[i]);
      want_c[i] = ref.compress(*sc.comp, views[i]);
    }

    std::vector<BlockAnalysis> got_a(n_blocks);
    std::vector<CompressedBlock> got_c(n_blocks);
    for (const bool pin_scalar : {true, false}) {
      simd::force_scalar(pin_scalar);
      for (const size_t split : {size_t{1}, size_t{5}, n_blocks}) {
        for (size_t begin = 0; begin < n_blocks; begin += split) {
          const std::span<const BlockView> part(views.data() + begin,
                                                std::min(split, n_blocks - begin));
          sc.comp->analyze_batch(part, got_a.data() + begin);
          sc.comp->compress_batch(part, got_c.data() + begin);
        }
        for (size_t i = 0; i < n_blocks; ++i) {
          const std::string what = tag + " block " + std::to_string(i) + " split " +
                                   std::to_string(split) + " scalar " +
                                   std::to_string(pin_scalar);
          test::expect_analysis_eq(want_a[i], got_a[i], what);
          test::expect_payload_eq(want_c[i], got_c[i], what);
          EXPECT_EQ(got_a[i].bit_size, got_c[i].bit_size) << what;
          EXPECT_EQ(got_a[i].is_compressed, got_c[i].is_compressed) << what;
          if (got_c[i].is_compressed) {
            EXPECT_LT(got_c[i].bit_size, blocks[i].size() * 8) << what;
            EXPECT_LE(got_c[i].payload.size(), blocks[i].size()) << what;
          }
        }
      }
    }
    for (size_t i = 0; i < n_blocks; ++i) {
      EXPECT_EQ(sc.comp->decompress(got_c[i], blocks[i].size()), blocks[i])
          << tag << " block " << i << " decompress";
      if (blocks[i].size() > 512 && got_c[i].is_compressed) ++large_compressed;
    }
  };

  const char* const kinds[] = {"random",        "all-zero",     "denormal",
                               "value-similar", "repeat-delta", "zero-runs"};
  for (const Scheme& sc : schemes) {
    const test::RefCodec ref = test::ref_codec(*sc.comp);
    ASSERT_NE(ref.analyze, nullptr) << sc.label;
    const auto fits = [&](size_t block_bytes) {
      return (block_bytes / 2) % sc.ways == 0;  // an even way split
    };
    for (const size_t block_bytes : {sc.word_bytes, 3 * sc.word_bytes, size_t{64}, size_t{96},
                                     size_t{128}, size_t{256}, size_t{512}, size_t{520},
                                     size_t{1024}, size_t{8192}}) {
      if (!fits(block_bytes)) continue;
      const size_t n_blocks = std::max<size_t>(6, std::min<size_t>(24, 16384 / block_bytes));
      for (const char* kind : kinds) {
        const auto bytes = test::data_stream(kind, n_blocks * block_bytes, block_bytes);
        check_span(sc, ref, to_blocks(bytes, block_bytes),
                   sc.label + " " + kind + " " + std::to_string(block_bytes) + " B");
      }
    }

    // An empty span writes no slot.
    BlockAnalysis a_slot;
    a_slot.bit_size = 7;
    CompressedBlock c_slot;
    c_slot.bit_size = 7;
    c_slot.payload = {1, 2, 3};
    sc.comp->analyze_batch(std::span<const BlockView>{}, &a_slot);
    sc.comp->compress_batch(std::span<const BlockView>{}, &c_slot);
    EXPECT_EQ(a_slot.bit_size, 7u) << sc.label << " empty span";
    EXPECT_EQ(c_slot.bit_size, 7u) << sc.label << " empty span";
    EXPECT_EQ(c_slot.payload, (std::vector<uint8_t>{1, 2, 3})) << sc.label << " empty span";

    // Mixed block sizes in one span, random beside all-zero.
    std::vector<Block> mixed;
    for (const size_t block_bytes :
         {sc.word_bytes, size_t{96}, size_t{128}, size_t{520}, size_t{8192}}) {
      if (!fits(block_bytes)) continue;
      for (const char* kind : {"random", "all-zero"})
        mixed.emplace_back(test::data_stream(kind, block_bytes, mixed.size()));
    }
    check_span(sc, ref, mixed, sc.label + " mixed sizes");
  }
  EXPECT_GT(large_compressed, 0u);
}

// --- SLC decision -----------------------------------------------------------------

std::vector<uint16_t> random_lens(Rng& rng, size_t n) {
  std::vector<uint16_t> lens(n);
  for (uint16_t& l : lens) l = static_cast<uint16_t>(1 + rng.next_below(32));
  return lens;
}

void expect_layout_eq(const WayLayout& ref, const WayLayout& got, const std::string& what) {
  EXPECT_EQ(ref.way_bits, got.way_bits) << what;
  EXPECT_EQ(ref.way_bytes, got.way_bytes) << what;
  EXPECT_EQ(ref.header_bits, got.header_bits) << what;
  EXPECT_EQ(ref.total_bits, got.total_bits) << what;
}

void expect_candidate_eq(const std::optional<TreeCandidate>& ref,
                         const std::optional<TreeCandidate>& got, const std::string& what) {
  ASSERT_EQ(ref.has_value(), got.has_value()) << what;
  if (!ref) return;
  EXPECT_EQ(ref->start, got->start) << what;
  EXPECT_EQ(ref->count, got->count) << what;
  EXPECT_EQ(ref->sum_bits, got->sum_bits) << what;
}

constexpr size_t kSymbolCounts[] = {32, 64, 128};
constexpr unsigned kWayCounts[] = {1, 2, 4, 8};
constexpr int kTrials = 6;

// Every way count that divides the block, every skip window of 0-16 symbols
// at every start (so windows straddling one or more way boundaries), and a
// few header sizes.
TEST(CodecDifferential, LayoutMatchesPerSymbolReference) {
  Rng rng(0x1A70);
  size_t straddling = 0;
  for (const size_t n : kSymbolCounts) {
    for (const unsigned ways : kWayCounts) {
      ASSERT_EQ(n % ways, 0u);
      E2mcConfig cfg;
      cfg.num_ways = ways;
      const E2mcCompressor comp(HuffmanCode{}, cfg);
      const size_t per_way = n / ways;
      for (int t = 0; t < kTrials; ++t) {
        const auto lens = random_lens(rng, n);
        const size_t header = rng.next_below(64);
        const std::string tag = "n=" + std::to_string(n) + " ways=" + std::to_string(ways) +
                                " trial=" + std::to_string(t);
        expect_layout_eq(test::ref_layout(lens, ways, header), comp.layout(lens, header), tag);
        for (size_t count = 1; count <= kMaxApproxSymbols; ++count) {
          for (size_t start = 0; start + count <= n; ++start) {
            if (start / per_way != (start + count - 1) / per_way) ++straddling;
            expect_layout_eq(test::ref_layout(lens, ways, header, start, count),
                             comp.layout(lens, header, start, count),
                             tag + " skip=[" + std::to_string(start) + "," +
                                 std::to_string(start + count) + ")");
          }
        }
      }
    }
  }
  EXPECT_GT(straddling, 0u);
}

// Every extra_bits from 0 to one past the largest window sum, with and
// without the TSLC-OPT extra nodes. At 4 and 260 symbols the tree's top
// levels are partial; the 260- and 320-symbol spans are longer than the
// tree's stack storage. Every symbol range of the tree sums like the
// lengths themselves.
TEST(CodecDifferential, SelectMatchesWindowSumReference) {
  Rng rng(0x5E1EC7);
  for (const size_t n :
       {size_t{4}, size_t{32}, size_t{64}, size_t{128}, size_t{260}, size_t{320}}) {
    for (int t = 0; t < kTrials; ++t) {
      const auto lens = random_lens(rng, n);
      std::vector<size_t> prefix(n + 1);
      for (size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + lens[i];
      for (const bool extra_nodes : {false, true}) {
        const CodeLengthTree tree(lens, extra_nodes);
        const std::string tag = "n=" + std::to_string(n) + " trial=" + std::to_string(t) +
                                " extra_nodes=" + std::to_string(extra_nodes);
        // The largest window sum bounds the extra_bits sweep.
        size_t max_sum = 0;
        for (const TreeCandidate& c : test::ref_windows(lens, extra_nodes))
          max_sum = std::max(max_sum, c.sum_bits);
        for (size_t extra = 0; extra <= max_sum + 1; ++extra) {
          expect_candidate_eq(test::ref_select(lens, extra, extra_nodes), tree.select(extra),
                              tag + " extra=" + std::to_string(extra));
        }
        EXPECT_FALSE(tree.select(max_sum + 1).has_value()) << tag;
      }
      const CodeLengthTree tree(lens, /*extra_nodes=*/true);
      for (size_t begin = 0; begin <= n; ++begin)
        for (size_t end = begin; end <= n; ++end)
          ASSERT_EQ(tree.range_bits(begin, end), prefix[end] - prefix[begin])
              << "n=" << n << " trial=" << t << " range [" << begin << "," << end << ")";
    }
  }
}

void expect_decision_eq(const SlcCodec::Decision& ref, const SlcCodec::Decision& got,
                        const std::string& what) {
  EXPECT_EQ(ref.info.lossy, got.info.lossy) << what;
  EXPECT_EQ(ref.info.stored_uncompressed, got.info.stored_uncompressed) << what;
  EXPECT_EQ(ref.info.lossless_bits, got.info.lossless_bits) << what;
  EXPECT_EQ(ref.info.final_bits, got.info.final_bits) << what;
  EXPECT_EQ(ref.info.bursts, got.info.bursts) << what;
  EXPECT_EQ(ref.info.truncated_symbols, got.info.truncated_symbols) << what;
  EXPECT_EQ(ref.info.truncated_bits, got.info.truncated_bits) << what;
  EXPECT_EQ(ref.info.extra_bits, got.info.extra_bits) << what;
  EXPECT_EQ(ref.skip_start, got.skip_start) << what;
  EXPECT_EQ(ref.skip_count, got.skip_count) << what;
}

// SlcCodec::decide_batch with the memo off, on, and on with verify-on-hit,
// and compress_batch's payloads (header fields, size, decoded block, and
// every byte against ref_slc_compress, pad bits included), against
// ref_decide:
// every variant and MAG, thresholds up to 64 B (an overshoot up to a whole
// 16-symbol window), 64 B to 1 KiB blocks at 4 and 8 ways (the way counts
// that split the block), and random, value-similar, duplicate-heavy (the
// memo serves the repeats) and code-mix streams (symbols drawn across the
// model's whole code table and escapes). Way padding can push a cut block
// back over budget, so that the decision escalates to a larger window, only
// when the window starts inside one way and ends in another: 96 B blocks
// (12 or 6 symbols per way) and 520 B blocks (65 per way) are the
// geometries here where that happens. Blocks over 256 B carry way offsets
// and, at 520 B (260 symbols), window starts wider than 8 bits.
TEST(CodecDifferential, DecideMatchesReference) {
  constexpr size_t kBlocks = 48;
  const auto training = test::quantized_walk(0xDEC1DE, 64);
  size_t lossy = 0, raw = 0, decided = 0;
  for (const unsigned ways : {4u, 8u}) {
    E2mcConfig ecfg;
    ecfg.num_ways = ways;
    const auto e2mc = E2mcCompressor::train(training, ecfg);
    std::vector<uint16_t> coded;  // every symbol with a codeword
    for (uint32_t sym = 0; sym <= UINT16_MAX; ++sym)
      if (e2mc->code().in_table(static_cast<uint16_t>(sym)))
        coded.push_back(static_cast<uint16_t>(sym));

    for (const size_t block_bytes :
         {size_t{64}, size_t{96}, size_t{128}, size_t{256}, size_t{520}, size_t{1024}}) {
      if (block_bytes / 2 % ways != 0) continue;  // the ways must split the symbols
      // The streams as flat buffers: uniform random bytes; a value-similar
      // walk like the training data; blocks drawn from 6 of that walk's; and
      // symbols drawn from the code table (every code length) or, one in 8,
      // uniformly (mostly escapes).
      Rng rng(block_bytes);
      std::vector<uint8_t> random(kBlocks * block_bytes);
      for (uint8_t& b : random) b = static_cast<uint8_t>(rng.next());
      const std::vector<uint8_t> similar =
          test::quantized_walk(block_bytes + 1, kBlocks * block_bytes / kBlockBytes);
      std::vector<uint8_t> dups;
      for (size_t i = 0; i < kBlocks; ++i) {
        const auto src = similar.begin() + static_cast<ptrdiff_t>(rng.next_below(6) * block_bytes);
        dups.insert(dups.end(), src, src + static_cast<ptrdiff_t>(block_bytes));
      }
      std::vector<uint8_t> code_mix(kBlocks * block_bytes);
      for (size_t i = 0; i < code_mix.size(); i += 2) {
        const uint16_t sym = rng.chance(0.125) ? static_cast<uint16_t>(rng.next())
                                               : coded[rng.next_below(coded.size())];
        code_mix[i] = static_cast<uint8_t>(sym);
        code_mix[i + 1] = static_cast<uint8_t>(sym >> 8);
      }
      const struct {
        const char* name;
        const std::vector<uint8_t>& bytes;
      } streams[] = {{"random", random},
                     {"value-similar", similar},
                     {"dup-heavy", dups},
                     {"code-mix", code_mix}};

      for (const auto& [sname, bytes] : streams) {
        const std::vector<Block> blocks = to_blocks(bytes, block_bytes);
        const std::vector<BlockView> views = to_views(blocks);
        for (const SlcVariant variant : {SlcVariant::kSimp, SlcVariant::kPred, SlcVariant::kOpt}) {
          for (const size_t mag : {size_t{16}, size_t{32}, size_t{64}}) {
            for (const size_t threshold :
                 {size_t{0}, size_t{8}, size_t{16}, size_t{32}, size_t{64}}) {
              SlcConfig cfg;
              cfg.mag_bytes = mag;
              cfg.threshold_bytes = threshold;
              cfg.variant = variant;
              std::vector<SlcCodec::Decision> want;
              for (const BlockView& v : views) want.push_back(test::ref_decide(*e2mc, cfg, v));
              const std::string tag = std::string(sname) + " " + std::to_string(block_bytes) +
                                      " B " + std::to_string(ways) + " ways " +
                                      to_string(variant) + " MAG " + std::to_string(mag) +
                                      " thr " + std::to_string(threshold);

              for (const int memo : {0, 1, 2}) {  // off, on, verify-on-hit
                cfg.cache = memo == 0 ? nullptr
                                      : std::make_shared<FingerprintCache>(FingerprintCache::Config{
                                            .verify_on_hit = memo == 2});
                const SlcCodec codec(e2mc, cfg);
                // Twice, so the second pass is served from the memo.
                for (int pass = 0; pass < 2; ++pass) {
                  const auto got = test::decide_all(codec, views);
                  for (size_t i = 0; i < views.size(); ++i)
                    expect_decision_eq(want[i], got[i],
                                       tag + " memo " + std::to_string(memo) + " pass " +
                                           std::to_string(pass) + " block " + std::to_string(i));
                }
              }

              // The payload carries the decision: it is the reference payload
              // byte for byte, its Fig. 6 header holds the mode and window,
              // its size is the final size, and it decodes to the
              // payload-free approximation of the block.
              cfg.cache = nullptr;
              const SlcCodec codec(e2mc, cfg);
              std::vector<CompressedBlock> cbs(views.size());
              codec.compress_batch(views, cbs.data());
              for (size_t i = 0; i < views.size(); ++i) {
                const std::string what = tag + " compress block " + std::to_string(i);
                test::expect_payload_eq(test::ref_slc_compress(*e2mc, cfg, views[i]), cbs[i],
                                        what);
                const SlcEncodeInfo& info = want[i].info;
                EXPECT_EQ(cbs[i].is_compressed, !info.stored_uncompressed) << what;
                EXPECT_EQ(cbs[i].bit_size, info.final_bits) << what;
                EXPECT_EQ(cbs[i].payload.size(), info.final_bits / 8) << what;
                if (cbs[i].is_compressed) {
                  BitReader r(cbs[i].payload);
                  const SlcHeader h =
                      SlcHeader::read(r, block_bytes, ways, views[i].num_symbols());
                  EXPECT_EQ(h.lossy, info.lossy) << what;
                  EXPECT_EQ(h.start_symbol, want[i].skip_start) << what;
                  EXPECT_EQ(h.approx_count, info.lossy ? want[i].skip_count : 0) << what;
                }
                EXPECT_EQ(codec.decompress(cbs[i], block_bytes),
                          codec.approx_decode(views[i], want[i]))
                    << what;
                lossy += info.lossy ? 1 : 0;
                raw += want[i].info.stored_uncompressed ? 1 : 0;
                ++decided;
              }
            }
          }
        }
      }
    }
  }
  // The sweep must reach the lossy, lossless and raw branches.
  EXPECT_GT(lossy, 0u);
  EXPECT_GT(raw, 0u);
  EXPECT_GT(decided - lossy - raw, 0u);
}

// The decision reads the Fig. 5 tree only for a lossy candidate, an
// overshoot in (0, threshold]; every other block is settled by its way
// sums. Blocks at each edge of that branch against ref_decide: an overshoot
// of 0 (lossless at the budget), exactly threshold·8 (a candidate, which
// the tree truncates) and the next overshoot above it, threshold·8 + 8
// (lossless past the threshold: the comparison that skips the tree;
// overshoots are whole bytes, since both the lossless size and the budget
// are). The blocks come from a seeded code-mix stream whose shares of
// escapes and of the shortest codes vary per block, so their sizes spread
// over every overshoot, picked by
// the overshoot of their reference lossless size at a 32 B and a 64 B MAG,
// and decided at every variant and thresholds of 8, 16 and 24 B.
TEST(CodecDifferential, ThresholdEdgesMatchReference) {
  constexpr size_t kBlocks = 16384;
  constexpr size_t kPerEdge = 16;
  constexpr unsigned kWays = 4;
  const auto e2mc = E2mcCompressor::train(test::quantized_walk(0xED6E, 64));
  std::vector<uint16_t> coded;  // every symbol with a codeword, shortest first
  for (uint32_t sym = 0; sym <= UINT16_MAX; ++sym)
    if (e2mc->code().in_table(static_cast<uint16_t>(sym))) coded.push_back(static_cast<uint16_t>(sym));
  std::stable_sort(coded.begin(), coded.end(), [&](uint16_t a, uint16_t b) {
    return e2mc->code().codeword_len(a) < e2mc->code().codeword_len(b);
  });
  const size_t n_short = std::min<size_t>(coded.size(), 32);
  Rng rng(0xED6E);
  std::vector<Block> blocks;
  std::vector<size_t> lossless_bits;  // each block's reference lossless size
  const size_t header = SlcHeader::bits(kBlockBytes, kWays, kSymbolsPerBlock);
  for (size_t b = 0; b < kBlocks; ++b) {
    // Escapes, the shortest codes and any code, in per-block shares.
    Block block(kBlockBytes);
    const double escapes = rng.uniform(0.0, 0.5);
    const double shortest = rng.uniform(0.0, 1.0);
    for (size_t i = 0; i < kSymbolsPerBlock; ++i)
      block.set_symbol(i, rng.chance(escapes)    ? static_cast<uint16_t>(rng.next())
                          : rng.chance(shortest) ? coded[rng.next_below(n_short)]
                                                 : coded[rng.next_below(coded.size())]);
    lossless_bits.push_back(
        test::ref_layout(test::ref_code_lengths(*e2mc, block.view()), kWays, header).total_bits);
    blocks.push_back(std::move(block));
  }

  for (const size_t mag : {size_t{32}, size_t{64}}) {
    const size_t mag_bits = mag * 8;
    for (const size_t threshold : {size_t{8}, size_t{16}, size_t{24}}) {
      // Up to kPerEdge blocks at each overshoot: 0, threshold·8, threshold·8 + 8.
      const size_t edges[] = {0, threshold * 8, threshold * 8 + 8};
      std::vector<BlockView> picked[3];
      for (size_t b = 0; b < kBlocks; ++b) {
        // A block at or above the raw size has no overshoot, nor one below
        // a MAG (its budget is the one MAG).
        const size_t comp = lossless_bits[b];
        if (comp >= kBlockBytes * 8 || comp < mag_bits) continue;
        const size_t overshoot = comp % mag_bits;
        for (size_t e = 0; e < 3; ++e)
          if (overshoot == edges[e] && picked[e].size() < kPerEdge)
            picked[e].push_back(blocks[b].view());
      }
      for (const SlcVariant variant : {SlcVariant::kSimp, SlcVariant::kPred, SlcVariant::kOpt}) {
        SlcConfig cfg;
        cfg.mag_bytes = mag;
        cfg.threshold_bytes = threshold;
        cfg.variant = variant;
        const SlcCodec codec(e2mc, cfg);
        const std::string tag = std::string(to_string(variant)) + " MAG " + std::to_string(mag) +
                                " thr " + std::to_string(threshold);
        size_t lossy[3] = {};
        for (size_t e = 0; e < 3; ++e) {
          const std::string at = tag + " overshoot " + std::to_string(edges[e]);
          ASSERT_EQ(picked[e].size(), kPerEdge) << at << ": the stream has too few such blocks";
          const auto got = test::decide_all(codec, picked[e]);
          for (size_t i = 0; i < kPerEdge; ++i) {
            const SlcCodec::Decision want = test::ref_decide(*e2mc, cfg, picked[e][i]);
            const std::string what = at + " block " + std::to_string(i);
            EXPECT_EQ(want.info.extra_bits, edges[e]) << what;
            expect_decision_eq(want, got[i], what);
            lossy[e] += got[i].info.lossy ? 1 : 0;
          }
        }
        EXPECT_EQ(lossy[0], 0u) << tag;
        EXPECT_GT(lossy[1], 0u) << tag << ": no candidate at the threshold was truncated";
        EXPECT_EQ(lossy[2], 0u) << tag;
      }
    }
  }
}

// A region's threshold (the extended cudaMalloc of Sec. IV-C) against
// ref_decide: regions allocated with thresholds 0, 4, 8, 16 and 24 B and
// without one, safe and unsafe, under a 16 B and a 32 B codec of every
// variant. Every block SlcBlockCodec commits carries the reference decision
// at min(region, codec) threshold, or at 0 in an unsafe region: its bursts,
// sizes and, for a lossy block, the contents the reference payload decodes
// to. ApproxMemory commits the same regions to the same contents and
// totals. The second run shares one memo across every codec, so the same
// content is decided at every threshold through it: a memo key without the
// threshold would serve one threshold's decisions at another.
TEST(CodecDifferential, RegionThresholdMatchesReference) {
  constexpr size_t kBlocks = 96;
  const auto e2mc = E2mcCompressor::train(test::quantized_walk(0x7E61, 64));
  const std::vector<Block> blocks = to_blocks(test::quantized_walk(0x7E62, kBlocks));
  const std::vector<BlockView> views = to_views(blocks);
  const size_t kNone = SIZE_MAX;  // ApproxMemory::alloc's default: no cap
  const size_t region_thresholds[] = {0, 4, 8, 16, 24, kNone};
  constexpr SlcVariant kVariants[] = {SlcVariant::kSimp, SlcVariant::kPred, SlcVariant::kOpt};

  // The reference decision and committed contents of every block, per
  // variant and effective threshold.
  struct Committed {
    SlcCodec::Decision d;
    Block bytes;
  };
  std::map<std::pair<SlcVariant, size_t>, std::vector<Committed>> refs;
  const auto reference = [&](SlcVariant variant, size_t threshold) -> const auto& {
    std::vector<Committed>& ref = refs[{variant, threshold}];
    if (!ref.empty()) return ref;
    SlcConfig cfg;
    cfg.mag_bytes = 32;
    cfg.threshold_bytes = threshold;
    cfg.variant = variant;
    const SlcCodec decoder(e2mc, cfg);
    for (size_t i = 0; i < views.size(); ++i) {
      const SlcCodec::Decision d = test::ref_decide(*e2mc, cfg, views[i]);
      Block bytes = blocks[i];
      if (d.info.lossy)
        bytes = decoder.decompress(test::ref_slc_compress(*e2mc, cfg, views[i]), kBlockBytes);
      ref.push_back({d, std::move(bytes)});
    }
    return ref;
  };

  std::map<size_t, size_t> lossy_at;  // effective threshold -> lossy blocks
  for (const bool memo : {false, true}) {
    const auto cache = memo ? std::make_shared<FingerprintCache>() : nullptr;
    CacheCounters counters;
    for (const size_t codec_threshold : {size_t{16}, size_t{32}}) {
      for (const SlcVariant variant : kVariants) {
        SlcConfig cfg;
        cfg.mag_bytes = 32;
        cfg.threshold_bytes = codec_threshold;
        cfg.variant = variant;
        cfg.cache = cache;
        const auto policy = std::make_shared<SlcBlockCodec>(std::make_shared<SlcCodec>(e2mc, cfg));
        ApproxMemory mem;
        mem.set_codec(policy);
        struct Region {
          RegionId id;
          size_t threshold;  // effective
          std::string tag;
        };
        std::vector<Region> regions;
        for (const bool safe : {true, false}) {
          for (const size_t region : region_thresholds) {
            const size_t threshold = safe ? std::min(region, codec_threshold) : 0;
            const std::vector<Committed>& ref = reference(variant, threshold);
            const std::string tag = std::string(to_string(variant)) + " codec " +
                                    std::to_string(codec_threshold) + " B, " +
                                    (safe ? "safe" : "unsafe") + " region " +
                                    (region == kNone ? "none" : std::to_string(region)) +
                                    (memo ? ", memo" : "");
            std::vector<BlockCodecResult> got(views.size());
            policy->process_batch(views, safe, region, got.data());
            for (size_t i = 0; i < views.size(); ++i) {
              const std::string what = tag + ", block " + std::to_string(i);
              const SlcEncodeInfo& want = ref[i].d.info;
              EXPECT_EQ(got[i].bursts, want.bursts) << what;
              EXPECT_EQ(got[i].lossless_bits, want.lossless_bits) << what;
              EXPECT_EQ(got[i].final_bits, want.final_bits) << what;
              EXPECT_EQ(got[i].lossy, want.lossy) << what;
              EXPECT_EQ(got[i].stored_uncompressed, want.stored_uncompressed) << what;
              EXPECT_EQ(got[i].truncated_symbols, want.truncated_symbols) << what;
              EXPECT_EQ(got[i].decoded.value_or(blocks[i]), ref[i].bytes) << what;
              counters.record(got[i].cache);
            }
            const RegionId r = mem.alloc(tag, kBlocks * kBlockBytes, safe, region);
            const std::span<uint8_t> dst = mem.span<uint8_t>(r);
            for (size_t i = 0; i < kBlocks; ++i)
              std::ranges::copy(blocks[i].bytes(), dst.subspan(i * kBlockBytes).begin());
            regions.push_back({r, threshold, tag});
          }
        }

        mem.commit_all();
        mem.flush();
        for (const auto& [r, threshold, tag] : regions) {
          const std::vector<Committed>& ref = reference(variant, threshold);
          const std::span<const uint8_t> contents = mem.span<const uint8_t>(r);
          CommitStats want;
          for (size_t i = 0; i < kBlocks; ++i) {
            const SlcEncodeInfo& info = ref[i].d.info;
            want.bursts += info.bursts;
            want.final_bits += info.final_bits;
            want.lossy_blocks += info.lossy ? 1 : 0;
            EXPECT_TRUE(std::ranges::equal(
                contents.subspan(i * kBlockBytes, kBlockBytes), ref[i].bytes.bytes()))
                << tag << ", committed block " << i;
          }
          const CommitStats got = mem.region_stats(r);
          EXPECT_EQ(got.bursts, want.bursts) << tag;
          EXPECT_EQ(got.final_bits, want.final_bits) << tag;
          EXPECT_EQ(got.lossy_blocks, want.lossy_blocks) << tag;
          if (!memo) lossy_at[threshold] = want.lossy_blocks;
        }
      }
    }
    // Every decision went through the memo, which served repeats: each
    // content is decided more than once at threshold 0 alone.
    if (memo && FingerprintCache::runtime_enabled()) {
      EXPECT_EQ(counters.bypassed, 0u);
      EXPECT_GT(counters.hits, 0u);
    }
  }
  // Each threshold step approximates more blocks, so every region threshold
  // decides differently.
  for (auto it = lossy_at.begin(); std::next(it) != lossy_at.end(); ++it)
    EXPECT_LT(it->second, std::next(it)->second) << "threshold " << it->first;
}

}  // namespace
}  // namespace slc
