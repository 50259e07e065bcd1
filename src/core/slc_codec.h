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
//
// SlcCodec is the Compressor of the three variants: analyze_batch() and
// compress_batch() decide at the configured threshold, and decide_batch()
// takes the threshold as an argument, so one codec serves every region
// threshold of the extended cudaMalloc (Sec. IV-C). The variants are lossy:
// decompress(compress(b)) may differ from b in its truncated symbols.
#pragma once

#include <atomic>
#include <memory>
#include <optional>

#include "common/stats.h"
#include "compress/e2mc.h"
#include "core/slc_header.h"
#include "core/tree_selector.h"

namespace slc {

class FingerprintCache;

enum class SlcVariant : uint8_t { kSimp, kPred, kOpt };

const char* to_string(SlcVariant v);

struct SlcConfig {
  size_t mag_bytes = kDefaultMagBytes;  ///< memory access granularity
  size_t threshold_bytes = kDefaultThresholdBytes;  ///< lossy threshold
  SlcVariant variant = SlcVariant::kOpt;
  /// Optional content-addressed memo for the Fig. 4 decision
  /// (core/fingerprint_cache.h). Null (the default) keeps the decision
  /// uncached; when set, decide_batch() serves repeat blocks without the
  /// E2MC length probe. Each decision is keyed on (E2MC model id, MAG,
  /// threshold, variant), so one cache may safely back any number of codecs
  /// — entries never cross a configuration, a threshold or a trained model.
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

class SlcCodec : public Compressor {
 public:
  /// Throws std::invalid_argument unless cfg.mag_bytes is positive and
  /// divides kBlockBytes. Every entry point that sizes, encodes or decodes a
  /// block throws std::invalid_argument when the block's symbols do not
  /// split into the E2MC ways (E2mcCompressor::symbols_per_way).
  SlcCodec(std::shared_ptr<const E2mcCompressor> lossless, SlcConfig cfg);

  // --- block operations ------------------------------------------------------
  // Four, each a span kernel; one block is a span of 1. All scratch lives in
  // the caller's frame, so concurrent engine shards need no locks.

  /// Outcome of the Fig. 4 mode decision for one block: the bookkeeping plus
  /// the selected truncation window (meaningful only when info.lossy).
  struct Decision {
    SlcEncodeInfo info;
    size_t skip_start = 0;
    size_t skip_count = 0;
  };

  /// Per-block memo bookkeeping for one decision. Feeds CacheCounters only
  /// and is the single thing that is NOT thread-count invariant about a
  /// cached run.
  using CacheOutcome = slc::CacheOutcome;

  /// The memo stage works through its span in chunks of at most this many
  /// blocks, with all per-chunk bookkeeping in fixed arrays; callers that
  /// stage per-chunk results on the stack use the same size.
  static constexpr size_t kProbeChunk = 64;

  /// The Fig. 4 mode decision at `threshold_bytes` for every block of the
  /// span: out[i] is block i's Decision, oc[i] its memo outcome. Without an
  /// active memo (cfg.cache null, or SLC_FINGERPRINT_CACHE force-disabling
  /// it) each block's E2MC code lengths and their sums of 8 are staged on
  /// the stack in one pass; the way sums off the group sums settle the
  /// block, and only a lossy candidate sums its lengths into a
  /// CodeLengthTree for the window. With a memo, it is a stage in front of
  /// that probe, run per chunk of kProbeChunk blocks: fingerprint every
  /// block and prefetch its memo set, probe (one lock per memo stripe),
  /// dedup the misses within the chunk (twins copy the first one's
  /// decision; under verify-on-hit only on equal size and bytes), then
  /// probe and decide the distinct misses and insert them. A hit returns
  /// exactly the Decision the probe computes for that content (modulo
  /// undetected 64-bit fingerprint collisions, which verify-on-hit
  /// eliminates), including decisions too wide for the memo to store. The codec's memo governor (MemoGovernor) may run a chunk through
  /// the probe alone instead; its blocks are then `bypassed`, neither hits
  /// nor misses. Allocates nothing for blocks of up to
  /// CodeLengthTree::kStackSymbols symbols.
  void decide_batch(std::span<const BlockView> blocks, size_t threshold_bytes, Decision* out,
                    CacheOutcome* oc) const;

  /// decide_batch() at the configured threshold, one kProbeChunk chunk at a
  /// time, mapped onto BlockAnalysis.
  void analyze_batch(std::span<const BlockView> blocks, BlockAnalysis* out) const override;

  /// Compresses the span per the Fig. 4 decision at the configured
  /// threshold: one staged length probe (never the memo: emission needs the
  /// lengths a hit does not carry), then payload emission through the
  /// shared payload scatter — each block's exact final size is known from
  /// its Decision. The payload is
  /// self-describing (the Fig. 6 header carries mode, ss and len); the
  /// decision bookkeeping itself comes from decide_batch().
  using Compressor::compress_batch;
  void compress_batch(std::span<const BlockView> blocks, CompressedBlock* out) const override;

  /// The block as reads will observe it after a store+load round trip of
  /// decision `d`, without materializing the payload: every non-truncated
  /// symbol round-trips exactly through the entropy code, so the result is
  /// the original block with the selected window re-filled per the variant
  /// (zeros for TSLC-SIMP, parity-matched prediction otherwise — the same
  /// fill routine decompress() runs). Byte-identical to decompressing the
  /// compress_batch() payload; the commit path's way to mutate lossy blocks
  /// at decision cost.
  Block approx_decode(BlockView block, const Decision& d) const;

  /// Decompresses (exact for lossless blocks; approximated symbols filled
  /// per the configured variant for lossy blocks).
  Block decompress(const CompressedBlock& cb, size_t block_bytes) const override;

  /// The (model, MAG, threshold, variant) memo key of the decisions at
  /// `threshold_bytes`; distinct for every distinct decision function.
  uint64_t cache_key(size_t threshold_bytes) const;

  std::string name() const override { return to_string(cfg_.variant); }
  const SlcConfig& config() const { return cfg_; }
  const E2mcCompressor& lossless() const { return *lossless_; }

  /// SLC header size in bits for this geometry (Fig. 6: 32 bits for the
  /// default 128 B / 4-way configuration).
  size_t header_bits(size_t block_bytes) const;

  /// Compression latency in memory-controller cycles: E2MC's 46 plus 12 to
  /// stream the code lengths and 2 to add/select (paper Sec. IV-A: 60).
  static constexpr unsigned kCompressLatency = 60;
  /// Decompression latency equals E2MC's (Sec. IV-A).
  static constexpr unsigned kDecompressLatency = E2mcCompressor::kDecompressLatency;

 private:
  /// Steps the memo aside while it does not pay. Each codec (so each server
  /// stream) has one, across every threshold it decides at. With the memo
  /// on, it judges windows of kWindow probed blocks: a window whose hit rate
  /// (in-chunk twins included) is below 1/2 switches the memo off. With it
  /// off, chunks skip the memo stage — no fingerprint, lookup, dedup or
  /// insert — except 1 in kSampleEvery, which runs it; once the last
  /// kSamples of those sampled chunks reach a hit rate of 1/2 over their
  /// distinct contents the memo is back on, with an empty window. A sample
  /// counts each content the memo table held once, however often the chunk
  /// repeats it, and in-chunk twins not at all: a sample of 64 blocks is
  /// two or so requests, and one that lands in a run of zero blocks would
  /// otherwise read as a hit rate the traffic does not have. A new memo
  /// epoch (FingerprintCache::clear()) restarts it: memo on, empty window.
  /// The state is relaxed atomics: concurrent shards of one codec race on
  /// it, which moves only which chunks bypass, never a decision.
  class MemoGovernor {
   public:
    static constexpr uint32_t kWindow = 4096;
    static constexpr uint32_t kSampleEvery = 64;
    static constexpr unsigned kSamples = 4;

    enum class Stage : uint8_t { kMemo, kSample, kBypass };

    /// The stage of the next chunk under memo epoch `epoch`.
    Stage next(uint64_t epoch);
    /// Reports a chunk that ran the memo stage as `stage`: for kMemo its
    /// `probed` blocks, `hits` of them served without a decision; for
    /// kSample its `probed` distinct contents, `hits` of them held by the
    /// memo table.
    void report(Stage stage, uint32_t probed, uint32_t hits);

   private:
    void restart(uint64_t epoch);

    std::atomic<uint64_t> epoch_{0};
    std::atomic<bool> off_{false};
    /// Memo on: the open window, probed blocks << 32 | hits.
    std::atomic<uint64_t> window_{0};
    /// Memo off: chunks since it went off, and the last kSamples sampled
    /// chunks as 16-bit probed << 8 | hits fields, the newest lowest.
    std::atomic<uint32_t> chunks_{0};
    std::atomic<uint64_t> samples_{0};
  };

  /// Everything the decision needs to know about a block size, derived once
  /// per run of equal-sized blocks.
  struct Geometry {
    size_t block_bytes = 0;  ///< 0: none yet
    size_t num_symbols = 0;
    unsigned num_ways = 0;
    size_t per_way = 0;
    size_t header_bytes = 0;  ///< the byte-padded Fig. 6 header
    size_t raw_bursts = 0;    ///< the bursts of the raw block
  };

  std::shared_ptr<const E2mcCompressor> lossless_;
  SlcConfig cfg_;
  bool extra_nodes_;  ///< TSLC-OPT's 6- and 12-symbol windows
  /// On a cache line of its own: engine workers write it once per chunk,
  /// and read everything above on every decision.
  alignas(64) mutable MemoGovernor governor_;

  /// The memo decide_batch() consults: cfg_.cache unless the
  /// SLC_FINGERPRINT_CACHE env knob force-disables caching process-wide.
  FingerprintCache* active_cache() const;

  /// Throws std::invalid_argument like E2mcCompressor::symbols_per_way.
  Geometry geometry(size_t block_bytes) const;

  /// The memo-free probe: each block's code lengths and group sums staged
  /// on the stack (on the heap above CodeLengthTree::kStackSymbols
  /// symbols), then decide(). decide_batch() without a memo and the memo's
  /// miss path run it.
  void probe_batch(std::span<const BlockView> blocks, size_t threshold_bytes,
                   Decision* out) const;

  /// What one chunk of the memo stage found: `hits` of its blocks were
  /// served without a decision (memo hits and in-chunk twins); of its
  /// `contents` distinct contents, the memo table held `content_hits`
  /// (counted only when asked: the governor reads them for samples).
  struct ChunkHits {
    uint32_t hits = 0;
    uint32_t contents = 0;
    uint32_t content_hits = 0;
  };

  /// One chunk of the memo stage (blocks.size() <= kProbeChunk) under `key`,
  /// cache_key(threshold_bytes).
  ChunkHits decide_chunk_cached(FingerprintCache& c, uint64_t key, size_t threshold_bytes,
                                std::span<const BlockView> blocks, Decision* out,
                                CacheOutcome* oc, bool count_contents) const;

  /// The Fig. 4 mode decision at `threshold_bytes` over one block's
  /// code_lengths() probe (its lengths and their sums of 8) into `d`. The
  /// way sums, and from them the lossless size, budget and overshoot, come
  /// off the group sums, which settle every block but a lossy candidate
  /// (an overshoot in (0, threshold]): only that one builds a
  /// CodeLengthTree, for the first-fit window and each candidate's cut
  /// size. It writes `d` in place (the caller's slot): a returned Decision
  /// would be copied out with loads wider than the stores that built it,
  /// which cannot be forwarded.
  void decide(std::span<const uint16_t> lens, const uint16_t* sums8, const Geometry& g,
              size_t threshold_bytes, Decision& d) const;

  /// Re-fills the truncated window of `out` per the configured variant. All
  /// symbols outside [skip_start, skip_start + skip_count) must already hold
  /// their exact values — the one fill routine decompress() and
  /// approx_decode() share, so the payload and payload-free decodes cannot
  /// drift apart.
  void fill_approximated(Block& out, size_t skip_start, size_t skip_count) const;
};

}  // namespace slc
