// SLC codec: MAG-aware selective lossy compression on top of E2MC
// (paper Sec. III). This is the paper's primary contribution.
//
// Mode decision (Fig. 4): compute the lossless compressed size (sum of code
// lengths + header), derive the bit budget (closest multiple of MAG <= comp
// size, floored at one MAG) and the overshoot (`extra_bits`). If the
// overshoot is zero the block is stored lossless; if it is at most the
// user threshold, the TSLC tree picks a sub-block of symbols to truncate so
// the block fits the budget; otherwise the block stays lossless at the next
// burst boundary. Blocks whose lossless size needs as many bursts as the raw
// block are stored uncompressed.
//
// Variants (Sec. V): TSLC-SIMP truncates and decodes zeros; TSLC-PRED decodes
// the value of the first non-truncated symbol of the block (value-similarity
// prediction, Sec. III-E); TSLC-OPT additionally enables the extra tree nodes
// (Sec. III-F).
#pragma once

#include <memory>
#include <optional>

#include "compress/e2mc.h"
#include "core/slc_header.h"
#include "core/tree_selector.h"

namespace slc {

class FingerprintCache;

enum class SlcVariant : uint8_t { kSimp, kPred, kOpt };

const char* to_string(SlcVariant v);

struct SlcConfig {
  size_t mag_bytes = kDefaultMagBytes;  ///< memory access granularity
  size_t threshold_bytes = 16;          ///< lossy threshold (paper default 16 B)
  SlcVariant variant = SlcVariant::kOpt;
  /// Optional content-addressed memo for the Fig. 4 decision
  /// (core/fingerprint_cache.h). Null (the default) keeps every path
  /// uncached; when set, analyze()/analyze_batch() and the cached decide
  /// entry points serve repeat blocks without the E2MC length probe. The
  /// codec derives its cache key from (E2MC model id, MAG, threshold,
  /// variant), so one cache may safely back any number of codecs — entries
  /// never cross a configuration or a trained model.
  std::shared_ptr<FingerprintCache> cache{};
};

/// Outcome bookkeeping for one block (drives both timing and error studies).
struct SlcEncodeInfo {
  bool lossy = false;
  bool stored_uncompressed = false;
  size_t lossless_bits = 0;   ///< E2MC+SLC-header size before any truncation
  size_t final_bits = 0;      ///< size actually stored
  size_t bursts = 0;          ///< MAG bursts fetched for this block
  size_t truncated_symbols = 0;
  size_t truncated_bits = 0;  ///< code bits removed (>= extra bits when lossy)
  size_t extra_bits = 0;      ///< overshoot above the bit budget
};

struct SlcCompressedBlock {
  CompressedBlock data;
  SlcEncodeInfo info;
};

class SlcCodec {
 public:
  /// Every entry point that sizes, encodes or decodes a block throws
  /// std::invalid_argument when the block's symbols do not split into the
  /// E2MC ways (E2mcCompressor::symbols_per_way).
  SlcCodec(std::shared_ptr<const E2mcCompressor> lossless, SlcConfig cfg);

  /// Compresses one block per the Fig. 4 decision flow.
  SlcCompressedBlock compress(BlockView block) const;

  /// Size-only fast path: the full Fig. 4 decision (budget, threshold, tree
  /// selection) without building the bit stream. Exactly the sizes/bursts
  /// compress() would report — the simulator's common case, since only lossy
  /// blocks need their payload materialized. Served from the fingerprint
  /// memo when cfg.cache is set (see below).
  SlcEncodeInfo analyze(BlockView block) const;

  // --- batched mode decision -------------------------------------------------
  // The decision layer's batch kernel, feeding BlockCodec::process_batch and
  // SlcCompressor::analyze_batch: one staged E2MC length probe for the whole
  // span, then the Fig. 4 decide() pass per block over the staged lengths.
  // Results are byte-identical to analyze()/compress() per block; all scratch
  // lives in the caller's frame, so concurrent engine shards need no locks.

  /// Outcome of the Fig. 4 mode decision for one block: the bookkeeping plus
  /// the selected truncation window (meaningful only when info.lossy).
  struct Decision {
    SlcEncodeInfo info;
    size_t skip_start = 0;
    size_t skip_count = 0;
  };

  /// Staged per-symbol code lengths for a span of blocks (block i's lengths
  /// at lens[offsets[i] .. offsets[i+1])). Reuse across calls to amortize
  /// the allocation; the commit path feeds it back into compress_decided().
  struct LengthScratch {
    std::vector<uint16_t> lens;
    std::vector<size_t> offsets;

    std::span<const uint16_t> block_lens(size_t i) const {
      return std::span<const uint16_t>(lens).subspan(offsets[i], offsets[i + 1] - offsets[i]);
    }
  };

  /// Batched decision: fills out[0..blocks.size()) with exactly the Decision
  /// compress()/analyze() derive per block, probing code lengths once for
  /// the whole span into `scratch`. Never consults the fingerprint memo —
  /// the staged lengths it produces feed compress_decided()/compress_batch(),
  /// which a cache hit (decision only, no lens) cannot serve.
  void decide_batch(std::span<const BlockView> blocks, LengthScratch& scratch,
                    Decision* out) const;

  /// Batched analyze(): out[i] == analyze(blocks[i]).
  void analyze_batch(std::span<const BlockView> blocks, SlcEncodeInfo* out) const;

  // --- fingerprint-memoized decision ----------------------------------------
  // When cfg.cache is set (and SLC_FINGERPRINT_CACHE is not force-disabling
  // it), the entry points below first consult the content-addressed memo:
  // a hit returns the stored Decision — exactly what the miss path computes
  // for that content — and skips the E2MC length probe entirely; a miss
  // computes the decision through the regular path and inserts it (a
  // decision too wide for a packed memo way is returned but not stored).
  // Without a cache they are the plain decide()/decide_batch() paths. The outcome
  // flags feed CacheCounters only and are the single thing that is NOT
  // thread-count invariant about a cached run.

  /// Per-block cache bookkeeping for one decision.
  struct CacheOutcome {
    bool probed = false;     ///< a configured, enabled cache was consulted
    bool hit = false;        ///< decision served from the memo (or an in-chunk twin)
    bool evicted = false;    ///< the insert replaced the least recent way of a full set
    bool collision = false;  ///< verify-on-hit content mismatch (fp collision)
  };

  /// One-block memoized decision (the scalar process()/analyze() path).
  Decision decide_cached(BlockView block, CacheOutcome& oc) const;

  /// Batched memoized decision, in chunks of at most kProbeChunk blocks and
  /// with no heap allocation of its own. Per chunk: fingerprint every block
  /// and prefetch its memo set, probe (one lock per memo stripe), dedup the
  /// misses within the chunk (twins copy the first one's decision; under
  /// verify-on-hit only on equal size and bytes), then run one
  /// decide_batch() over the distinct misses in `scratch` and insert them. out[i] is identical to decide_batch()'s
  /// out[i] for every block (modulo undetected 64-bit fingerprint
  /// collisions, which verify-on-hit eliminates), including decisions the
  /// memo cannot store; oc[i] carries block i's cache outcome.
  void decide_batch_cached(std::span<const BlockView> blocks, LengthScratch& scratch,
                           Decision* out, CacheOutcome* oc) const;

  /// decide_batch_cached() works through its span in chunks of at most this
  /// many blocks, with all per-chunk bookkeeping in fixed arrays; callers
  /// that stage per-chunk results on the stack use the same size.
  static constexpr size_t kProbeChunk = 64;

  /// analyze()/analyze_batch() with the per-block cache outcome surfaced.
  SlcEncodeInfo analyze(BlockView block, CacheOutcome& oc) const;
  void analyze_batch(std::span<const BlockView> blocks, SlcEncodeInfo* out,
                     CacheOutcome* oc) const;

  /// The (model, MAG, threshold, variant) key this codec's entries live
  /// under; distinct for every distinct decision function.
  uint64_t cache_key() const { return cache_key_; }
  /// The configured memo (null when uncached).
  const std::shared_ptr<FingerprintCache>& cache() const { return cfg_.cache; }

  /// compress() with the mode decision and staged lengths already computed —
  /// payload materialization without re-running the probe or the tree
  /// selection. `d` and `lens` must come from decide_batch()/code_lengths()
  /// of `block`.
  SlcCompressedBlock compress_decided(BlockView block, const Decision& d,
                                      std::span<const uint16_t> lens) const;

  /// Batched compress(): one decide_batch() probe for the whole span, then
  /// payload emission through the prefix-sum scatter (each block's exact
  /// final size is known from its Decision, so every payload is written at
  /// an independent offset of one reused arena). out[i] is byte-identical
  /// to compress(blocks[i]).
  void compress_batch(std::span<const BlockView> blocks, SlcCompressedBlock* out) const;

  /// The block as reads will observe it after a store+load round trip of
  /// decision `d`, without materializing the payload: every non-truncated
  /// symbol round-trips exactly through the entropy code, so the result is
  /// the original block with the selected window re-filled per the variant
  /// (zeros for TSLC-SIMP, parity-matched prediction otherwise — the same
  /// fill routine decompress() runs). Byte-identical to
  /// decompress(compress_decided(block, d, lens)); the batched commit path's
  /// way to mutate lossy blocks at decision cost.
  Block approx_decode(BlockView block, const Decision& d) const;

  /// Decompresses (exact for lossless blocks; approximated symbols filled
  /// per the configured variant for lossy blocks).
  Block decompress(const SlcCompressedBlock& cb, size_t block_bytes = kBlockBytes) const;

  /// Convenience: compress + decompress. For lossless blocks this is the
  /// identity; for lossy blocks it returns the approximated block the GPU
  /// would observe.
  Block roundtrip(BlockView block) const { return decompress(compress(block), block.size()); }

  const SlcConfig& config() const { return cfg_; }
  const E2mcCompressor& lossless() const { return *lossless_; }
  const TreeSlcSelector& selector() const { return selector_; }

  /// SLC header size in bits for this geometry (Fig. 6: 32 bits for the
  /// default 128 B / 4-way configuration).
  size_t header_bits(size_t block_bytes) const;

  /// Compression latency in memory-controller cycles: E2MC's 46 plus 12 to
  /// stream the code lengths and 2 to add/select (paper Sec. IV-A: 60).
  static constexpr unsigned kCompressLatency = 60;
  /// Decompression latency equals E2MC's (Sec. IV-A).
  static constexpr unsigned kDecompressLatency = E2mcCompressor::kDecompressLatency;

 private:
  std::shared_ptr<const E2mcCompressor> lossless_;
  SlcConfig cfg_;
  TreeSlcSelector selector_;
  uint64_t cache_key_ = 0;

  /// The memo the cached entry points consult: cfg_.cache unless the
  /// SLC_FINGERPRINT_CACHE env knob force-disables caching process-wide.
  FingerprintCache* active_cache() const;

  /// One chunk of decide_batch_cached() (blocks.size() <= kProbeChunk).
  void decide_chunk_cached(FingerprintCache& c, std::span<const BlockView> blocks,
                           LengthScratch& scratch, Decision* out, CacheOutcome* oc) const;

  /// The Fig. 4 mode decision, shared by compress()/analyze()/decide_batch().
  Decision decide(std::span<const uint16_t> lens, size_t block_bytes) const;

  /// Re-fills the truncated window of `out` per the configured variant. All
  /// symbols outside [skip_start, skip_start + skip_count) must already hold
  /// their exact values — the one fill routine decompress() and
  /// approx_decode() share, so the payload and payload-free decodes cannot
  /// drift apart.
  void fill_approximated(Block& out, size_t skip_start, size_t skip_count) const;

  /// Encodes the block with symbols [start, start+count) removed.
  CompressedBlock encode(BlockView block, const SlcHeader& hdr,
                         std::span<const uint16_t> lens, size_t skip_start,
                         size_t skip_count) const;

  /// encode()'s emission into a caller-provided writer (BitWriter or
  /// detail::SpanBitWriter, which must be empty); returns the total bits
  /// written. Defined in slc_codec.cpp; all instantiations live there.
  template <class Writer>
  size_t encode_into(BlockView block, const SlcHeader& hdr, std::span<const uint16_t> lens,
                     size_t skip_start, size_t skip_count, Writer& w) const;
};

}  // namespace slc
