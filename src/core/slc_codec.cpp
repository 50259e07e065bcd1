#include "core/slc_codec.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <utility>
#include <vector>

#include "common/bitstream.h"
#include "compress/batch_writer.h"
#include "core/fingerprint_cache.h"

namespace slc {

namespace {

/// splitmix64 step — mixes the codec-identity fields into one cache key.
uint64_t mix_key(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBull;
  h ^= h >> 31;
  return h;
}

}  // namespace

const char* to_string(SlcVariant v) {
  switch (v) {
    case SlcVariant::kSimp: return "TSLC-SIMP";
    case SlcVariant::kPred: return "TSLC-PRED";
    case SlcVariant::kOpt: return "TSLC-OPT";
  }
  return "?";
}

SlcCodec::SlcCodec(std::shared_ptr<const E2mcCompressor> lossless, SlcConfig cfg)
    : lossless_(std::move(lossless)),
      cfg_(std::move(cfg)),
      extra_nodes_(cfg_.variant == SlcVariant::kOpt) {
  assert(lossless_ != nullptr);
  check_mag_bytes(cfg_.mag_bytes, "SlcCodec");
}

uint64_t SlcCodec::cache_key(size_t threshold_bytes) const {
  // Everything the Fig. 4 decision depends on beyond the block content: the
  // trained model (its process-unique id — never reused, unlike a pointer),
  // geometry, threshold and variant. Two decisions agreeing on this key
  // always agree, so their memo entries are interchangeable.
  uint64_t key = mix_key(0, lossless_->model_id());
  key = mix_key(key, cfg_.mag_bytes);
  key = mix_key(key, threshold_bytes);
  return mix_key(key, static_cast<uint64_t>(cfg_.variant));
}

FingerprintCache* SlcCodec::active_cache() const {
  if (cfg_.cache == nullptr || !FingerprintCache::runtime_enabled()) return nullptr;
  return cfg_.cache.get();
}

size_t SlcCodec::header_bits(size_t block_bytes) const {
  const size_t n_sym = block_bytes * 8 / kSymbolBits;
  return SlcHeader::bits(block_bytes, lossless_->config().num_ways, n_sym);
}

SlcCodec::Geometry SlcCodec::geometry(size_t block_bytes) const {
  check_block_bytes(block_bytes, kSymbolBits / 8, "SlcCodec");
  Geometry g;
  g.block_bytes = block_bytes;
  g.num_symbols = block_bytes * 8 / kSymbolBits;
  g.per_way = lossless_->symbols_per_way(g.num_symbols);
  g.num_ways = lossless_->config().num_ways;
  g.header_bytes = SlcHeader::padded_bytes(block_bytes, g.num_ways, g.num_symbols);
  g.raw_bursts = bursts_for_bits(block_bytes * 8, cfg_.mag_bytes, block_bytes);
  return g;
}

void SlcCodec::decide(std::span<const uint16_t> lens, const uint16_t* sums8, const Geometry& g,
                      size_t threshold_bytes, Decision& d) const {
  const size_t raw_bits = g.block_bytes * 8;
  const size_t mag_bits = cfg_.mag_bytes * 8;
  const auto way_bytes = [](size_t bits) { return (bits + 7) >> 3; };

  // The lossless layout: each way's sum off the probe's group sums,
  // byte-aligned, after the byte-padded header.
  std::array<size_t, 8> way_bits{};
  E2mcCompressor::way_bits(lens.data(), sums8, g.per_way, g.num_ways, way_bits.data());
  size_t comp_bytes = g.header_bytes;
  for (unsigned w = 0; w < g.num_ways; ++w) comp_bytes += way_bytes(way_bits[w]);
  const size_t comp_bits = comp_bytes * 8;

  d = Decision{};
  d.info.lossless_bits = comp_bits;

  auto store_raw = [&] {
    d.info.stored_uncompressed = true;
    d.info.final_bits = raw_bits;
    d.info.bursts = g.raw_bursts;
  };

  // Fig. 4, top branch: when the compressed size reaches the uncompressed
  // size, the block is always stored raw with the full bit budget (128 B).
  if (comp_bits >= raw_bits) return store_raw();

  // Bit budget: closest multiple of MAG <= comp size, floored at one MAG
  // (it is impossible to fetch less than one burst). Note a block slightly
  // above the last burst boundary (e.g. 108 B at MAG 32) is still a lossy
  // candidate: truncating to 96 B saves the fourth burst. A MAG divides
  // 128 B, so it is a power of two and rounding down is a mask.
  const size_t budget_bits = std::max(comp_bits & ~(mag_bits - 1), mag_bits);
  const size_t extra_bits = comp_bits > budget_bits ? comp_bits - budget_bits : 0;
  d.info.extra_bits = extra_bits;

  if (extra_bits != 0 && extra_bits <= threshold_bytes * 8) {
    // Lossy path, the only one that reads the Fig. 5 tree: find the
    // sub-block to truncate. The tree works on raw code bits while way
    // byte-alignment can re-add up to (ways-1)*7 padding bits, so size the
    // cut block and escalate to a larger window, another walk of the same
    // tree, if padding pushed it back over budget. A cut re-rounds only the
    // ways its window overlaps; a window inside one way removes its whole
    // sum from that way.
    const CodeLengthTree tree(lens, extra_nodes_);
    std::optional<TreeCandidate> cand = tree.select(extra_bits);
    size_t cut_bits = 0;
    while (cand) {
      const size_t begin = cand->start, end = cand->start + cand->count;
      size_t cut_bytes = comp_bytes;
      size_t w = begin / g.per_way;
      for (size_t way_begin = w * g.per_way; way_begin < end; ++w, way_begin += g.per_way) {
        const size_t lo = std::max(way_begin, begin);
        const size_t hi = std::min(way_begin + g.per_way, end);
        const size_t share = lo == begin && hi == end ? cand->sum_bits : tree.range_bits(lo, hi);
        cut_bytes -= way_bytes(way_bits[w]) - way_bytes(way_bits[w] - share);
      }
      cut_bits = cut_bytes * 8;
      if (cut_bits <= budget_bits) break;
      cand = tree.select(cand->sum_bits + (cut_bits - budget_bits));
      // A repeated selection with a larger target always returns a strictly
      // larger sum or nullopt, so this loop terminates.
    }
    if (cand) {
      d.info.lossy = true;
      d.info.truncated_symbols = cand->count;
      d.info.truncated_bits = cand->sum_bits;
      d.info.final_bits = cut_bits;
      // Usually the budget's burst count; one fewer when the selected window
      // overshoots past another burst boundary.
      d.info.bursts = bursts_for_bits(cut_bits, cfg_.mag_bytes, g.block_bytes);
      d.skip_start = cand->start;
      d.skip_count = cand->count;
      return;
    }
    // No window covers the overshoot -> fall through to lossless.
  }

  // Lossless path (comp size == budget, below one MAG, or above threshold).
  // A lossless block needing as many bursts as the raw block is stored raw:
  // same traffic, no decompression latency, and the MDC's max burst count
  // marks it (no header needed, Sec. III-G).
  const size_t lossless_bursts = bursts_for_bits(comp_bits, cfg_.mag_bytes, g.block_bytes);
  if (lossless_bursts >= g.raw_bursts) return store_raw();
  d.info.final_bits = comp_bits;
  d.info.bursts = lossless_bursts;
}

void SlcCodec::probe_batch(std::span<const BlockView> blocks, size_t threshold_bytes,
                           Decision* out) const {
  // Each block's code lengths and their group sums are staged once, in one
  // pass, then the decision reads them. The geometry is derived once per
  // run of equal-sized blocks.
  uint16_t stack_lens[CodeLengthTree::kStackSymbols];
  uint16_t stack_sums[CodeLengthTree::kStackSymbols / 8];
  std::vector<uint16_t> heap_lens, heap_sums;
  Geometry g;
  const simd::Level level = simd::active_level();
  for (size_t i = 0; i < blocks.size(); ++i) {
    if (blocks[i].size() != g.block_bytes) g = geometry(blocks[i].size());
    uint16_t* lens = stack_lens;
    uint16_t* sums8 = stack_sums;
    if (g.num_symbols > CodeLengthTree::kStackSymbols) {
      heap_lens.resize(g.num_symbols);
      heap_sums.resize(g.num_symbols / 8);
      lens = heap_lens.data();
      sums8 = heap_sums.data();
    }
    lossless_->code_lengths(blocks[i], lens, sums8, level);
    decide(std::span<const uint16_t>(lens, g.num_symbols), sums8, g, threshold_bytes, out[i]);
  }
}

// --- memo governor ------------------------------------------------------------

SlcCodec::MemoGovernor::Stage SlcCodec::MemoGovernor::next(uint64_t epoch) {
  if (epoch_.load(std::memory_order_relaxed) != epoch) restart(epoch);
  if (!off_.load(std::memory_order_relaxed)) return Stage::kMemo;
  const uint32_t k = chunks_.fetch_add(1, std::memory_order_relaxed);
  return k % kSampleEvery == kSampleEvery - 1 ? Stage::kSample : Stage::kBypass;
}

void SlcCodec::MemoGovernor::restart(uint64_t epoch) {
  window_.store(0, std::memory_order_relaxed);
  off_.store(false, std::memory_order_relaxed);
  epoch_.store(epoch, std::memory_order_relaxed);
}

void SlcCodec::MemoGovernor::report(Stage stage, uint32_t probed, uint32_t hits) {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  if (stage == Stage::kMemo) {
    // The chunk that fills the window judges it and opens the next one
    // empty, in the same step, so exactly one chunk judges each window.
    const uint64_t add = uint64_t{probed} << 32 | hits;
    uint64_t w = window_.load(kRelaxed), filled;
    do {
      filled = w + add;
    } while (!window_.compare_exchange_weak(w, (filled >> 32) >= kWindow ? 0 : filled, kRelaxed));
    const uint64_t n = filled >> 32, h = filled & 0xFFFFFFFFu;
    if (n >= kWindow && 2 * h < n) {
      chunks_.store(0, kRelaxed);
      samples_.store(0, kRelaxed);
      off_.store(true, kRelaxed);
    }
    return;
  }
  static_assert(kProbeChunk < 256 && kSamples * 16 <= 64,
                "a sampled chunk's probed and hit counts are 8-bit fields of one word");
  uint64_t old = samples_.load(kRelaxed), hist;
  do {
    hist = old << 16 | probed << 8 | hits;
  } while (!samples_.compare_exchange_weak(old, hist, kRelaxed));
  uint32_t n = 0, h = 0;
  for (unsigned k = 0; k < kSamples; ++k) {
    const uint32_t p = (hist >> (16 * k + 8)) & 0xFFu;
    if (p == 0) return;  // fewer than kSamples samples since the memo went off
    n += p;
    h += (hist >> (16 * k)) & 0xFFu;
  }
  if (2 * h >= n) {
    window_.store(0, kRelaxed);
    off_.store(false, kRelaxed);
  }
}

void SlcCodec::decide_batch(std::span<const BlockView> blocks, size_t threshold_bytes,
                            Decision* out, CacheOutcome* oc) const {
  FingerprintCache* c = active_cache();
  if (c == nullptr) {
    probe_batch(blocks, threshold_bytes, out);
    std::fill_n(oc, blocks.size(), CacheOutcome{});
    return;
  }
  const uint64_t key = cache_key(threshold_bytes);
  const uint64_t epoch = c->epoch();
  for (size_t base = 0; base < blocks.size(); base += kProbeChunk) {
    const size_t n = std::min(kProbeChunk, blocks.size() - base);
    const std::span<const BlockView> chunk = blocks.subspan(base, n);
    const MemoGovernor::Stage stage = governor_.next(epoch);
    if (stage == MemoGovernor::Stage::kBypass) {
      probe_batch(chunk, threshold_bytes, out + base);
      std::fill_n(oc + base, n, CacheOutcome{.bypassed = true});
      continue;
    }
    const ChunkHits h = decide_chunk_cached(*c, key, threshold_bytes, chunk, out + base, oc + base,
                                            stage == MemoGovernor::Stage::kSample);
    // The memo is on: every block served without a decision counts. It is
    // off: only the contents the table held, each once.
    if (stage == MemoGovernor::Stage::kMemo) {
      governor_.report(stage, static_cast<uint32_t>(n), h.hits);
    } else {
      governor_.report(stage, h.contents, h.content_hits);
    }
  }
}

SlcCodec::ChunkHits SlcCodec::decide_chunk_cached(FingerprintCache& c, uint64_t key,
                                                  size_t threshold_bytes,
                                                  std::span<const BlockView> blocks,
                                                  Decision* out, CacheOutcome* oc,
                                                  bool count_contents) const {
  const size_t n = blocks.size();
  assert(n <= kProbeChunk);

  // 1. Fingerprint the chunk and prefetch every block's set, so the table
  // misses of the whole chunk overlap before the first probe. Each key's
  // set is computed here once, for the prefetch, the probe and the insert.
  std::array<FingerprintCache::Key, kProbeChunk> keys;
  for (size_t i = 0; i < n; ++i) {
    keys[i] = c.key(key, block_fingerprint(blocks[i].bytes()));
    c.prefetch(keys[i].set);
  }

  // 2. Probe the chunk, taking each lock stripe once.
  static_assert(kProbeChunk <= FingerprintCache::kMaxBatch);
  std::array<FingerprintCache::Lookup, kProbeChunk> probed{};
  c.lookup_batch(key, std::span<const FingerprintCache::Key>(keys.data(), n), blocks, out,
                 probed.data());

  // 3. Dedup the misses within the chunk — a chunk of 95% duplicates then
  // pays one decision per distinct content even on a cold memo.
  // `first_miss` is an open-addressed set of the chunk's distinct missing
  // fingerprints (slot value: 1 + the index of the block that will compute
  // it; 0 = empty); later twins copy that block's decision. `first_hit`
  // holds the distinct fingerprints the table served the same way, so each
  // such content counts once.
  constexpr size_t kSlots = 2 * kProbeChunk;
  std::array<uint8_t, kSlots> first_miss{}, first_hit{};
  const auto slot_of = [&](const std::array<uint8_t, kSlots>& set, uint64_t fp) {
    size_t slot = fp & (kSlots - 1);
    while (set[slot] != 0 && keys[set[slot] - 1].fp != fp) slot = (slot + 1) & (kSlots - 1);
    return slot;
  };
  std::array<uint8_t, kProbeChunk> miss{};         // blocks that need the decision
  std::array<uint8_t, kProbeChunk> twin{}, rep{};  // twin[k] copies rep[k]'s decision
  size_t n_miss = 0, n_twin = 0;
  ChunkHits hits;
  for (size_t i = 0; i < n; ++i) {
    oc[i] = CacheOutcome{.probed = true};
    const uint64_t fp = keys[i].fp;
    switch (probed[i]) {
      case FingerprintCache::Lookup::kHit: {
        oc[i].hit = true;
        ++hits.hits;
        if (!count_contents) continue;
        const size_t slot = slot_of(first_hit, fp);
        if (first_hit[slot] == 0) {
          first_hit[slot] = static_cast<uint8_t>(i + 1);
          ++hits.content_hits;
        }
        continue;
      }
      case FingerprintCache::Lookup::kCollision:
        oc[i].collision = true;
        break;
      case FingerprintCache::Lookup::kMiss:
        break;
    }
    const size_t slot = slot_of(first_miss, fp);
    if (first_miss[slot] != 0) {
      // Same fingerprint as an earlier miss of this chunk. In verify-on-hit
      // mode trust it only on equal size and bytes (an in-chunk collision
      // gets its own decision); otherwise the fingerprint is the identity,
      // exactly like a memo hit.
      const size_t j = first_miss[slot] - 1u;
      const auto a = blocks[j].bytes(), b = blocks[i].bytes();
      if (!c.verify_on_hit() ||
          (a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin()))) {
        oc[i].hit = true;
        ++hits.hits;
        twin[n_twin] = static_cast<uint8_t>(i);
        rep[n_twin++] = static_cast<uint8_t>(j);
        continue;
      }
    } else {
      first_miss[slot] = static_cast<uint8_t>(i + 1);
    }
    miss[n_miss++] = static_cast<uint8_t>(i);
  }

  // 4. One staged probe over the distinct misses, then insert them, again
  // one lock per stripe.
  if (n_miss != 0) {
    std::array<BlockView, kProbeChunk> views;
    std::array<FingerprintCache::Key, kProbeChunk> miss_keys;
    std::array<Decision, kProbeChunk> decided;
    std::array<bool, kProbeChunk> evicted{};
    for (size_t k = 0; k < n_miss; ++k) {
      views[k] = blocks[miss[k]];
      miss_keys[k] = keys[miss[k]];
    }
    const std::span<const BlockView> miss_views(views.data(), n_miss);
    probe_batch(miss_views, threshold_bytes, decided.data());
    c.insert_batch(key, std::span<const FingerprintCache::Key>(miss_keys.data(), n_miss),
                   miss_views, decided.data(), evicted.data());
    for (size_t k = 0; k < n_miss; ++k) {
      out[miss[k]] = decided[k];
      oc[miss[k]].evicted = evicted[k];
    }
  }
  for (size_t k = 0; k < n_twin; ++k) out[twin[k]] = out[rep[k]];
  hits.contents = hits.content_hits + static_cast<uint32_t>(n_miss);
  return hits;
}

void SlcCodec::analyze_batch(std::span<const BlockView> blocks, BlockAnalysis* out) const {
  // One probe chunk at a time, so the staged results live on the stack. Each
  // analysis is written field by field into the caller's slot: one built
  // aside and copied in would be read back with loads wider than the stores
  // that built it, which cannot be forwarded.
  std::array<Decision, kProbeChunk> ds;
  std::array<CacheOutcome, kProbeChunk> ocs;
  for (size_t base = 0; base < blocks.size(); base += kProbeChunk) {
    const size_t n = std::min(kProbeChunk, blocks.size() - base);
    decide_batch(blocks.subspan(base, n), cfg_.threshold_bytes, ds.data(), ocs.data());
    for (size_t i = 0; i < n; ++i) {
      const SlcEncodeInfo& info = ds[i].info;
      BlockAnalysis& a = out[base + i];
      a.bit_size = info.final_bits;
      a.is_compressed = !info.stored_uncompressed;
      a.lossy = info.lossy;
      a.lossless_bits = info.lossless_bits;
      a.truncated_symbols = info.truncated_symbols;
      a.cache = ocs[i];
    }
  }
}

void SlcCodec::compress_batch(std::span<const BlockView> blocks, CompressedBlock* out) const {
  // Sizing pass: the Fig. 4 decision gives every block's exact final size
  // (final_bits is always a whole number of bytes — the ways are
  // byte-aligned and raw blocks are byte-sized); the emitter re-encodes each
  // compressed block from its decision and staged lengths, so the lengths
  // stay staged for the whole span.
  std::vector<uint16_t> lens;
  std::vector<size_t> offsets(blocks.size() + 1);
  for (size_t b = 0; b < blocks.size(); ++b)
    offsets[b + 1] = offsets[b] + blocks[b].num_symbols();
  lens.resize(offsets.back());
  std::vector<Decision> ds(blocks.size());
  Geometry g;
  const simd::Level level = simd::active_level();
  const auto block_lens = [&](size_t b) {
    return std::span<const uint16_t>(lens).subspan(offsets[b], offsets[b + 1] - offsets[b]);
  };
  // The group sums are read only by the decision, so one block's at a time.
  uint16_t stack_sums[CodeLengthTree::kStackSymbols / 8];
  std::vector<uint16_t> heap_sums;
  uint16_t* sums8 = stack_sums;
  for (size_t b = 0; b < blocks.size(); ++b) {
    if (blocks[b].size() != g.block_bytes) {
      g = geometry(blocks[b].size());
      if (g.num_symbols > CodeLengthTree::kStackSymbols) {
        heap_sums.resize(std::max(heap_sums.size(), g.num_symbols / 8));
        sums8 = heap_sums.data();
      } else {
        sums8 = stack_sums;
      }
    }
    lossless_->code_lengths(blocks[b], lens.data() + offsets[b], sums8, level);
    decide(block_lens(b), sums8, g, cfg_.threshold_bytes, ds[b]);
    out[b].bit_size = ds[b].info.final_bits;
    out[b].is_compressed = !ds[b].info.stored_uncompressed;
  }

  // Each payload: the Fig. 6 header (m, ss, len, then the pdps of the cut
  // layout), then the E2MC ways with the truncation window left out.
  const unsigned num_ways = lossless_->config().num_ways;
  detail::scatter_payloads(blocks, out, [&](size_t b, detail::SpanBitWriter& w) {
    const BlockView block = blocks[b];
    const Decision& d = ds[b];
    const WayLayout lo =
        lossless_->layout(block_lens(b), header_bits(block.size()), d.skip_start, d.skip_count);
    SlcHeader h;
    h.lossy = d.info.lossy;
    h.start_symbol = static_cast<uint32_t>(d.skip_start);
    h.approx_count = static_cast<uint8_t>(d.info.lossy ? d.skip_count : 0);
    lo.way_offsets(num_ways, h.way_offsets);
    h.write(w, block.size(), num_ways, block.num_symbols());
    lossless_->emit_ways(block, w, d.skip_start, d.skip_count);
    assert(!d.info.lossy || w.bit_size() <= d.info.bursts * cfg_.mag_bytes * 8);
  });
}

Block SlcCodec::decompress(const CompressedBlock& cb, size_t block_bytes) const {
  check_block_bytes(block_bytes, kSymbolBits / 8, "SlcCodec");
  if (!cb.is_compressed) return detail::stored_raw_block(cb, block_bytes);
  BitReader r(cb.payload);
  const SlcHeader h = SlcHeader::read(r, block_bytes, lossless_->config().num_ways,
                                      block_bytes * 8 / kSymbolBits);
  // A lossless header's len reads as 0: its window is empty.
  Block out(block_bytes);
  lossless_->decode_ways(r, h.way_offsets, out, h.start_symbol, h.approx_count);
  if (h.approx_count > 0) fill_approximated(out, h.start_symbol, h.approx_count);
  return out;
}

void SlcCodec::fill_approximated(Block& out, size_t skip_start, size_t skip_count) const {
  const size_t n_sym = out.size() * 8 / kSymbolBits;
  if (cfg_.variant == SlcVariant::kSimp) {
    for (size_t s = skip_start; s < skip_start + skip_count; ++s) out.set_symbol(s, 0);
    return;
  }
  // Value-similarity prediction (Sec. III-E): the nearest non-truncated
  // symbol predicts the truncated ones. Adjacent threads hold similar
  // 32-bit values, so a 16-bit symbol is only predictive for symbols at
  // the same position within a word — the fill is parity-matched (one
  // predictor register per halfword lane; the decompressor only
  // generates the predictor indices, keeping the hardware delta tiny).
  uint16_t fill[2] = {0, 0};
  for (size_t parity = 0; parity < 2; ++parity) {
    size_t idx = n_sym;  // sentinel: none found
    // Last intact symbol before the window...
    for (size_t s = skip_start; s-- > 0;) {
      if (s % 2 == parity) {
        idx = s;
        break;
      }
    }
    // ...or the first intact one after it.
    if (idx == n_sym) {
      for (size_t s = skip_start + skip_count; s < n_sym; ++s) {
        if (s % 2 == parity) {
          idx = s;
          break;
        }
      }
    }
    if (idx < n_sym) fill[parity] = out.symbol(idx);
  }
  for (size_t s = skip_start; s < skip_start + skip_count; ++s) out.set_symbol(s, fill[s % 2]);
}

Block SlcCodec::approx_decode(BlockView block, const Decision& d) const {
  Block out(block.bytes());
  if (d.info.lossy && d.skip_count > 0) fill_approximated(out, d.skip_start, d.skip_count);
  return out;
}

}  // namespace slc
