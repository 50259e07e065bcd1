// FingerprintCache: content-addressed memoization of the Fig. 4 mode
// decision. Real traffic repeats — zero pages, re-committed regions,
// duplicated tensors — yet the decision path pays the full E2MC length probe
// per block. The cache keys each block on a fast 64-bit content fingerprint
// (xxHash64-style mixer over the 128 B block) plus the deciding codec's key
// (trained model id, MAG, threshold, variant), so a repeat block's Decision
// is served without touching the code-length table.
//
// Structure: one flat, set-associative table allocated at construction and
// never resized. The capacity rounds up to a power-of-two number of 4-way
// sets; a set is 128 B (two cache lines) of 32 B ways, and each way holds
// the full (codec key, fingerprint) pair plus the Decision packed into 16 B.
// A (key, fingerprint) pair maps to exactly one set. Within a set the ways
// keep an LRU order: a hit or insert makes its way the most recent, and an
// insert into a full set replaces the least recent way. Sets are guarded by
// at most 16 lock stripes (contiguous set ranges, one Mutex each), so
// concurrent engine workers only contend when their blocks land in the same
// stripe, and the batch probe takes each stripe once per chunk. Nothing is
// allocated after construction.
//
// What is not stored: a Decision with a field wider than its packed width
// (bit counts above 65535, burst or symbol counts above 255 — blocks far
// larger than 128 B), and, in verify-on-hit mode, a block longer than an
// arena slot (kBlockBytes). The miss path still returns such a decision;
// insert_batch() just stores nothing, so the next probe of it misses again.
//
// The memo is a stage of SlcCodec::decide_batch, which probes and inserts a
// chunk of blocks at a time; the batch forms below are its only probe and
// store entry points.
//
// Correctness contract: a hit returns exactly the Decision the miss path
// computes for that content, so cached and uncached runs produce identical
// decisions and byte-identical outputs. The only hole is a 64-bit
// fingerprint collision between two live blocks under the same codec key —
// astronomically unlikely, and `verify_on_hit` closes it entirely by
// keeping each way's content in a side arena (one kBlockBytes slot per way,
// allocated at construction) and comparing size, then bytes, on every hit
// (a mismatch counts as a collision + miss, never a wrong decision).
// Hit/miss/eviction *counters* are not thread-count invariant (which block
// of a concurrent pair misses first is a race); the decisions are.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>

#include "common/stats.h"
#include "common/thread_safety.h"
#include "core/slc_codec.h"

namespace slc {

/// 64-bit content fingerprint (xxHash64-style: four parallel multiply/rotate
/// lanes over 32 B stripes, an avalanche finalizer over the tail). Equal
/// bytes => equal fingerprint; the converse holds modulo 64-bit collisions.
uint64_t block_fingerprint(std::span<const uint8_t> bytes);

class FingerprintCache {
 public:
  struct Config {
    /// Entries; rounded up to a power-of-two number of kWays-way sets.
    size_t capacity = size_t{1} << 15;
    /// Paranoia mode: keep each entry's content and require byte equality
    /// on every hit. Costs one block copy per insert and one compare per
    /// hit; turns any fingerprint collision into a detected miss.
    bool verify_on_hit = false;
  };

  enum class Lookup {
    kMiss,       ///< no entry for (key, fingerprint)
    kHit,        ///< decision served (content verified when configured)
    kCollision,  ///< entry found but verify-on-hit content differs
  };

  static constexpr size_t kWays = 4;          ///< ways per set
  static constexpr size_t kMaxStripes = 16;   ///< lock stripes (fewer when sets are fewer)
  static constexpr size_t kSlotBytes = kBlockBytes;  ///< verify-on-hit arena slot

  FingerprintCache() : FingerprintCache(Config{}) {}
  explicit FingerprintCache(Config cfg);

  /// One probe or store key under a codec key: the block's fingerprint and
  /// the set it maps to, set_index(codec_key, fp) — computed once per
  /// chunk by the caller, then shared by prefetch, lookup and insert.
  struct Key {
    uint64_t fp = 0;
    size_t set = 0;
  };

  /// Starts pulling set `set` into the cache hierarchy. A pure hint: the
  /// batch probe prefetches a whole chunk before the first lookup, so the
  /// table misses overlap instead of serializing.
  void prefetch(size_t set) const;

  /// Probe and store for at most kMaxBatch keys: key i is (codec_key,
  /// keys[i]) with content blocks[i], which only verify-on-hit mode reads.
  /// Keys apply in index order within each stripe, so a batch leaves the
  /// table as the same keys in batches of 1 would, but each lock stripe is
  /// taken once per batch instead of once per key.
  static constexpr size_t kMaxBatch = 64;

  /// result[i] is kHit when key i is stored (under verify-on-hit, with the
  /// same size and bytes): out[i] gets its decision and the entry becomes
  /// its set's most recent way. Otherwise kCollision (stored, content
  /// differs) or kMiss; neither touches out[i] or the set's order.
  void lookup_batch(uint64_t codec_key, std::span<const Key> keys,
                    std::span<const BlockView> blocks, SlcCodec::Decision* out,
                    Lookup* result);
  /// Stores ds[i] as its set's most recent way; evicted[i] is true when the
  /// set was full and its least recent way was replaced. A stored key is
  /// refreshed in place (last writer wins, no eviction); an entry too wide
  /// for a way (see the header comment) is not stored.
  void insert_batch(uint64_t codec_key, std::span<const Key> keys,
                    std::span<const BlockView> blocks, const SlcCodec::Decision* ds,
                    bool* evicted);

  size_t size() const;  ///< current entries across all sets
  size_t capacity() const { return num_sets_ * kWays; }
  size_t num_sets() const { return num_sets_; }
  bool verify_on_hit() const { return cfg_.verify_on_hit; }

  /// Which set (codec_key, fp) maps to: the set half of a Key.
  size_t set_index(uint64_t codec_key, uint64_t fp) const;
  Key key(uint64_t codec_key, uint64_t fp) const { return {fp, set_index(codec_key, fp)}; }

  /// Lifetime hit/miss/eviction/collision totals across all stripes (the
  /// memo never sees a bypassed block, so `bypassed` stays 0 here).
  CacheCounters counters() const;

  /// Drops every entry (counters keep their totals) and starts a new epoch.
  void clear();
  /// Bumped by every clear(): a codec's memo governor restarts when the
  /// epoch it last saw changes, so a cleared memo is judged afresh.
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

  /// Process-wide force-disable knob, probed once: SLC_FINGERPRINT_CACHE=0
  /// (or "off") makes every codec ignore its configured cache, so the
  /// uncached oracle path can be exercised end-to-end without rebuilding.
  static bool runtime_enabled();

 private:
  /// One way: the full key and the Decision packed into 16 B. All-zero
  /// bytes are an empty way.
  struct Way {
    uint64_t codec_key;
    uint64_t fp;
    uint16_t lossless_bits;
    uint16_t final_bits;
    uint16_t truncated_bits;
    uint16_t extra_bits;
    uint16_t content_bytes;  ///< verify-on-hit: length of the arena copy
    uint8_t bursts;
    uint8_t truncated_symbols;
    uint8_t skip_start;
    uint8_t skip_count;
    uint8_t flags;  ///< kValid | kLossy | kStoredUncompressed
    uint8_t age;    ///< LRU rank within the set: 0 = most recent
  };
  static_assert(sizeof(Way) == 32);
  struct alignas(64) Set {
    Way ways[kWays];
  };
  static_assert(sizeof(Set) == 128);

  /// One lock stripe: guards the sets [i << stripe_shift_, (i + 1) <<
  /// stripe_shift_) — by convention the analysis cannot spell — and its own
  /// counters. Stripe mutexes are leaf locks: lookups and inserts hold one
  /// stripe at a time and acquire nothing under it.
  struct alignas(64) Stripe {
    mutable Mutex m;
    CacheCounters counters SLC_GUARDED_BY(m);
  };

  /// Packs the entry for (codec_key, fp) into `w`; false when it does not
  /// fit a way (a decision field wider than its packed width, or verify-on-
  /// hit content longer than a slot).
  bool pack(uint64_t codec_key, uint64_t fp, const SlcCodec::Decision& d,
            std::span<const uint8_t> block, Way& w) const;
  static SlcCodec::Decision unpack(const Way& w);

  /// One key of lookup_batch() / insert_batch() on set `s`, whose stripe
  /// `st` the caller holds.
  Lookup lookup_locked(Stripe& st, size_t s, uint64_t codec_key, uint64_t fp,
                       std::span<const uint8_t> block, SlcCodec::Decision& out)
      SLC_REQUIRES(st.m);
  bool insert_locked(Stripe& st, size_t s, const Way& packed, std::span<const uint8_t> block)
      SLC_REQUIRES(st.m);

  /// The way holding (codec_key, fp) in `set`, or kWays.
  static size_t find(const Set& set, uint64_t codec_key, uint64_t fp);
  /// Makes way `w` (previous LRU rank `rank`; kWays for a new entry) the
  /// set's most recent: every valid way more recent than it ages by one.
  static void promote(Set& set, size_t w, unsigned rank);

  Stripe& stripe_for(size_t set) const { return stripes_[set >> stripe_shift_]; }
  uint8_t* slot(size_t set, size_t way) const {
    return arena_.get() + (set * kWays + way) * kSlotBytes;
  }

  Config cfg_;
  size_t num_sets_ = 1;        ///< power of two
  size_t num_stripes_ = 1;     ///< min(kMaxStripes, num_sets_)
  unsigned stripe_shift_ = 0;  ///< set index >> stripe_shift_ = stripe index
  std::unique_ptr<Set[]> sets_;
  std::unique_ptr<Stripe[]> stripes_;
  std::unique_ptr<uint8_t[]> arena_;  ///< verify-on-hit content, one slot per way
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace slc
