// Fingerprint-cache suite: unit coverage of the content-addressed decision
// memo (core/fingerprint_cache.h) plus the differential fuzz harness that
// pins its one non-negotiable property — a cached run is byte-identical to
// an uncached run of the same stream. The fuzz streams come from
// test::dedup_corpus: seeded mixes of fresh random / value-similar blocks,
// verbatim duplicates, one-byte near-duplicates and zero pages, replayed
// through cached and uncached codecs at every layer (SlcCodec, BlockCodec,
// engine commits, server streams) and at 1 and N threads.
//
// Hit/miss/eviction *counters* are not part of the determinism contract
// (see CacheCounters), so decision checks use CommitStats::same_decisions.
// Tests that assert cache effects (hits, evictions) skip themselves when
// SLC_FINGERPRINT_CACHE force-disables the memo — the differential checks
// still run and must pass trivially in that configuration.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "compress/block_codec.h"
#include "compress/codec_registry.h"
#include "core/fingerprint_cache.h"
#include "core/slc_codec.h"
#include "engine/codec_engine.h"
#include "server/codec_server.h"
#include "test_util.h"
#include "workloads/approx_memory.h"

namespace slc {
namespace {

const std::vector<uint8_t>& shared_training() {
  static const std::vector<uint8_t> training = test::quantized_walk(7, 64);
  return training;
}

std::shared_ptr<const E2mcCompressor> shared_model() {
  static const std::shared_ptr<const E2mcCompressor> model =
      E2mcCompressor::train(shared_training(), E2mcConfig{});
  return model;
}

SlcCodec make_slc(std::shared_ptr<FingerprintCache> cache, size_t threshold_bytes = 16,
                  SlcVariant variant = SlcVariant::kOpt) {
  SlcConfig cfg;
  cfg.mag_bytes = 32;
  cfg.threshold_bytes = threshold_bytes;
  cfg.variant = variant;
  cfg.cache = std::move(cache);
  return SlcCodec(shared_model(), cfg);
}

CodecOptions cached_options(std::shared_ptr<FingerprintCache> cache) {
  CodecOptions opts = test::test_options(shared_training());
  opts.trained_e2mc = shared_model();
  opts.fingerprint_cache = std::move(cache);
  return opts;
}

std::vector<BlockView> views_of(const std::vector<Block>& blocks) {
  std::vector<BlockView> v;
  v.reserve(blocks.size());
  for (const Block& b : blocks) v.push_back(b.view());
  return v;
}

struct NamedCorpus {
  const char* name;
  std::vector<Block> blocks;
};

/// The adversarial stream mix every differential test replays: heavy
/// duplication, one-byte near-duplicates, zero pages, and an all-fresh
/// control stream.
std::vector<NamedCorpus> fuzz_corpora() {
  std::vector<NamedCorpus> out;
  out.push_back({"dup-heavy", test::dedup_corpus({.blocks = 192,
                                                  .dup_fraction = 0.55,
                                                  .flip_fraction = 0.05,
                                                  .zero_fraction = 0.05,
                                                  .seed = 11})});
  out.push_back({"near-duplicates", test::dedup_corpus({.blocks = 192,
                                                        .dup_fraction = 0.15,
                                                        .flip_fraction = 0.55,
                                                        .zero_fraction = 0.0,
                                                        .seed = 12})});
  out.push_back({"zero-pages", test::dedup_corpus({.blocks = 128,
                                                   .dup_fraction = 0.1,
                                                   .flip_fraction = 0.1,
                                                   .zero_fraction = 0.6,
                                                   .seed = 13})});
  out.push_back({"all-fresh", test::dedup_corpus({.blocks = 128, .seed = 14})});
  return out;
}

void expect_info_eq(const SlcEncodeInfo& a, const SlcEncodeInfo& b, const std::string& what) {
  EXPECT_EQ(a.lossy, b.lossy) << what;
  EXPECT_EQ(a.stored_uncompressed, b.stored_uncompressed) << what;
  EXPECT_EQ(a.lossless_bits, b.lossless_bits) << what;
  EXPECT_EQ(a.final_bits, b.final_bits) << what;
  EXPECT_EQ(a.bursts, b.bursts) << what;
  EXPECT_EQ(a.truncated_symbols, b.truncated_symbols) << what;
  EXPECT_EQ(a.truncated_bits, b.truncated_bits) << what;
  EXPECT_EQ(a.extra_bits, b.extra_bits) << what;
}

void expect_result_eq(const BlockCodecResult& a, const BlockCodecResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.bursts, b.bursts) << what;
  EXPECT_EQ(a.lossless_bits, b.lossless_bits) << what;
  EXPECT_EQ(a.final_bits, b.final_bits) << what;
  EXPECT_EQ(a.lossy, b.lossy) << what;
  EXPECT_EQ(a.stored_uncompressed, b.stored_uncompressed) << what;
  EXPECT_EQ(a.truncated_symbols, b.truncated_symbols) << what;
  EXPECT_EQ(a.decoded, b.decoded) << what;
  // The cache_* outcome flags are deliberately NOT compared: hit-rate
  // bookkeeping, never part of the determinism contract.
}

/// The memo's probe and store for one key: the batch forms over a span of 1.
FingerprintCache::Lookup lookup_one(FingerprintCache& cache, uint64_t key, uint64_t fp,
                                    std::span<const uint8_t> block, SlcCodec::Decision& out) {
  const BlockView view(block);
  const FingerprintCache::Key k = cache.key(key, fp);
  FingerprintCache::Lookup result;
  cache.lookup_batch(key, std::span<const FingerprintCache::Key>(&k, 1),
                     std::span<const BlockView>(&view, 1), &out, &result);
  return result;
}

bool insert_one(FingerprintCache& cache, uint64_t key, uint64_t fp,
                std::span<const uint8_t> block, const SlcCodec::Decision& d) {
  const BlockView view(block);
  const FingerprintCache::Key k = cache.key(key, fp);
  bool evicted = false;
  cache.insert_batch(key, std::span<const FingerprintCache::Key>(&k, 1),
                     std::span<const BlockView>(&view, 1), &d, &evicted);
  return evicted;
}

/// The keys of `fps` under codec key `key`.
std::vector<FingerprintCache::Key> keys_of(const FingerprintCache& cache, uint64_t key,
                                           const std::vector<uint64_t>& fps) {
  std::vector<FingerprintCache::Key> keys;
  for (const uint64_t fp : fps) keys.push_back(cache.key(key, fp));
  return keys;
}

/// A decision that fits a packed way, distinct for tags below 60000.
SlcCodec::Decision arbitrary_decision(size_t tag) {
  SlcCodec::Decision d;
  d.info.final_bits = 100 + tag % 60000;
  d.info.bursts = 1 + tag % 4;
  d.info.lossy = (tag % 2) != 0;
  d.skip_start = tag % 64;
  d.skip_count = 1 + tag % 16;
  return d;
}

// --- block_fingerprint ------------------------------------------------------

TEST(BlockFingerprint, EqualContentEqualFingerprint) {
  const auto corpus = test::dedup_corpus({.blocks = 8, .seed = 3});
  for (const Block& b : corpus) {
    const Block copy = b;
    EXPECT_EQ(block_fingerprint(b.bytes()), block_fingerprint(copy.bytes()));
  }
}

TEST(BlockFingerprint, EveryByteFlipChangesFingerprint) {
  const Block base = test::dedup_corpus({.blocks = 1, .seed = 5})[0];
  const uint64_t fp = block_fingerprint(base.bytes());
  for (size_t pos = 0; pos < kBlockBytes; ++pos) {
    std::vector<uint8_t> bytes(base.bytes().begin(), base.bytes().end());
    bytes[pos] ^= 0x01;
    const Block mutated(std::move(bytes));
    EXPECT_NE(block_fingerprint(mutated.bytes()), fp) << "byte " << pos;
  }
}

TEST(BlockFingerprint, PrefixLengthsHashDistinctly) {
  // Tail handling (8/4/1-byte remainders) must feed the final mix: every
  // prefix of one block, including the empty one, hashes distinctly.
  const Block base = test::dedup_corpus({.blocks = 1, .seed = 6})[0];
  std::set<uint64_t> seen;
  for (size_t len = 0; len <= kBlockBytes; ++len)
    seen.insert(block_fingerprint(base.bytes().subspan(0, len)));
  EXPECT_EQ(seen.size(), kBlockBytes + 1);
}

// --- FingerprintCache unit behaviour ----------------------------------------

TEST(FingerprintCache, InsertThenLookupRoundTripsTheDecision) {
  FingerprintCache cache;
  const SlcCodec::Decision in = arbitrary_decision(9);
  const Block b = test::dedup_corpus({.blocks = 1, .seed = 8})[0];
  EXPECT_FALSE(insert_one(cache, 1, 42, b.bytes(), in));
  SlcCodec::Decision out;
  EXPECT_EQ(lookup_one(cache, 1, 42, b.bytes(), out), FingerprintCache::Lookup::kHit);
  expect_info_eq(out.info, in.info, "roundtrip");
  EXPECT_EQ(out.skip_start, in.skip_start);
  EXPECT_EQ(out.skip_count, in.skip_count);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.counters().hits, 1u);
}

TEST(FingerprintCache, LruEvictsTheColdestEntry) {
  FingerprintCache cache({.capacity = 4, .verify_on_hit = false});  // one 4-way set
  ASSERT_EQ(cache.capacity(), 4u);
  ASSERT_EQ(cache.num_sets(), 1u);
  const Block b;
  for (uint64_t fp = 0; fp < 4; ++fp)
    EXPECT_FALSE(insert_one(cache, 1, fp, b.bytes(), arbitrary_decision(fp)));
  // Touch fp=0 so fp=1 becomes the LRU victim.
  SlcCodec::Decision d;
  EXPECT_EQ(lookup_one(cache, 1, 0, b.bytes(), d), FingerprintCache::Lookup::kHit);
  EXPECT_TRUE(insert_one(cache, 1, 99, b.bytes(), arbitrary_decision(99)));
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(lookup_one(cache, 1, 1, b.bytes(), d), FingerprintCache::Lookup::kMiss);
  EXPECT_EQ(lookup_one(cache, 1, 0, b.bytes(), d), FingerprintCache::Lookup::kHit);
  EXPECT_EQ(cache.counters().evictions, 1u);
}

TEST(FingerprintCache, FullSetEvictsItsLeastRecentWay) {
  // Many sets; every key below is forced into set 0 through set_index, so
  // the set overflows while the rest of the table stays almost empty.
  FingerprintCache cache({.capacity = 64, .verify_on_hit = false});
  ASSERT_EQ(cache.num_sets(), 16u);
  constexpr uint64_t kKey = 3;
  std::vector<uint64_t> fps;
  for (uint64_t fp = 0; fps.size() < FingerprintCache::kWays + 2; ++fp)
    if (cache.set_index(kKey, fp) == 0) fps.push_back(fp);
  uint64_t elsewhere = 0;
  while (cache.set_index(kKey, elsewhere) == 0) ++elsewhere;

  const Block b;
  EXPECT_FALSE(insert_one(cache, kKey, elsewhere, b.bytes(), arbitrary_decision(50)));
  for (size_t i = 0; i < FingerprintCache::kWays; ++i)
    EXPECT_FALSE(insert_one(cache, kKey, fps[i], b.bytes(), arbitrary_decision(i))) << i;
  // Recency, most recent first: 3 2 1 0. Touch 0, 2, 3: now 3 2 0 1.
  SlcCodec::Decision d;
  for (const size_t i : {0u, 2u, 3u})
    EXPECT_EQ(lookup_one(cache, kKey, fps[i], b.bytes(), d), FingerprintCache::Lookup::kHit) << i;
  EXPECT_TRUE(insert_one(cache, kKey, fps[4], b.bytes(), arbitrary_decision(4)));  // evicts 1
  EXPECT_EQ(lookup_one(cache, kKey, fps[1], b.bytes(), d), FingerprintCache::Lookup::kMiss);
  // A miss does not reorder the set: 4 3 2 0, so the next victim is 0.
  EXPECT_TRUE(insert_one(cache, kKey, fps[5], b.bytes(), arbitrary_decision(5)));
  EXPECT_EQ(lookup_one(cache, kKey, fps[0], b.bytes(), d), FingerprintCache::Lookup::kMiss);
  for (const size_t i : {2u, 3u, 4u, 5u}) {
    ASSERT_EQ(lookup_one(cache, kKey, fps[i], b.bytes(), d), FingerprintCache::Lookup::kHit) << i;
    EXPECT_EQ(d.skip_start, arbitrary_decision(i).skip_start) << i;
  }
  EXPECT_EQ(lookup_one(cache, kKey, elsewhere, b.bytes(), d), FingerprintCache::Lookup::kHit);
  EXPECT_EQ(cache.size(), FingerprintCache::kWays + 1);
  EXPECT_EQ(cache.counters().evictions, 2u);
}

TEST(FingerprintCache, DecisionTooWideForAWayIsNotStored) {
  FingerprintCache cache({.capacity = 64, .verify_on_hit = false});
  const Block b;
  SlcCodec::Decision d;
  // The widest decision a way holds round-trips exactly...
  SlcCodec::Decision widest;
  widest.info = {.lossy = true, .stored_uncompressed = true, .lossless_bits = 65535,
                 .final_bits = 65535, .bursts = 255, .truncated_symbols = 255,
                 .truncated_bits = 65535, .extra_bits = 65535};
  widest.skip_start = 255;
  widest.skip_count = 255;
  EXPECT_FALSE(insert_one(cache, 1, 1, b.bytes(), widest));
  ASSERT_EQ(lookup_one(cache, 1, 1, b.bytes(), d), FingerprintCache::Lookup::kHit);
  expect_info_eq(d.info, widest.info, "widest");
  EXPECT_EQ(d.skip_start, 255u);
  EXPECT_EQ(d.skip_count, 255u);
  // ...and one past it in any field is not stored at all.
  std::vector<SlcCodec::Decision> too_wide(8, widest);
  too_wide[0].info.lossless_bits = 65536;
  too_wide[1].info.final_bits = 65536;
  too_wide[2].info.truncated_bits = 65536;
  too_wide[3].info.extra_bits = 65536;
  too_wide[4].info.bursts = 256;
  too_wide[5].info.truncated_symbols = 256;
  too_wide[6].skip_start = 256;
  too_wide[7].skip_count = 256;
  for (size_t i = 0; i < too_wide.size(); ++i) {
    EXPECT_FALSE(insert_one(cache, 1, 100 + i, b.bytes(), too_wide[i])) << i;
    EXPECT_EQ(lookup_one(cache, 1, 100 + i, b.bytes(), d), FingerprintCache::Lookup::kMiss) << i;
  }
  EXPECT_EQ(cache.size(), 1u);

  // Verify-on-hit keeps content in kSlotBytes slots: a longer block is not
  // stored, a shorter one is, and only a probe of its own length verifies.
  FingerprintCache paranoid({.capacity = 64, .verify_on_hit = true});
  const Block big(2 * FingerprintCache::kSlotBytes);
  EXPECT_FALSE(insert_one(paranoid, 1, 1, big.bytes(), arbitrary_decision(1)));
  EXPECT_EQ(lookup_one(paranoid, 1, 1, big.bytes(), d), FingerprintCache::Lookup::kMiss);
  const Block full = test::dedup_corpus({.blocks = 1, .seed = 22})[0];
  const Block half(full.bytes().first(FingerprintCache::kSlotBytes / 2));
  EXPECT_FALSE(insert_one(paranoid, 1, 2, full.bytes(), arbitrary_decision(2)));
  // The refresh leaves the slot's tail holding the rest of `full`, so only
  // the length check tells the two apart.
  EXPECT_FALSE(insert_one(paranoid, 1, 2, half.bytes(), arbitrary_decision(3)));
  EXPECT_EQ(lookup_one(paranoid, 1, 2, half.bytes(), d), FingerprintCache::Lookup::kHit);
  EXPECT_EQ(lookup_one(paranoid, 1, 2, full.bytes(), d), FingerprintCache::Lookup::kCollision);
  EXPECT_EQ(paranoid.size(), 1u);
}

TEST(FingerprintCache, BatchProbeMatchesOneByOne) {
  // lookup_batch/insert_batch take each stripe once but must leave the
  // table, the counters and every result exactly as the same calls one by
  // one: keys forced into one set (so LRU order within the set matters),
  // repeats inside a batch, a too-wide decision, a verify-on-hit collision.
  const FingerprintCache::Config cfg{.capacity = 64, .verify_on_hit = true};
  FingerprintCache single(cfg), batched(cfg);
  constexpr uint64_t kKey = 5;
  std::vector<uint64_t> fps;
  for (uint64_t fp = 0; fps.size() < 8; ++fp)
    if (single.set_index(kKey, fp) == 0) fps.push_back(fp);  // overflows set 0
  for (uint64_t fp = 500; fps.size() < 40; fp += 7) fps.push_back(fp);
  fps.push_back(fps[3]);  // a repeat inside the batch
  std::vector<Block> blocks;
  for (const uint64_t fp : fps) {
    std::vector<uint8_t> bytes(kBlockBytes);
    for (size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<uint8_t>(fp * 31 + i);
    blocks.emplace_back(std::move(bytes));
  }
  std::vector<SlcCodec::Decision> ds;
  for (const uint64_t fp : fps) ds.push_back(arbitrary_decision(fp));
  ds[10].skip_start = 300;  // does not fit a way
  const auto views = views_of(blocks);
  ASSERT_LE(fps.size(), FingerprintCache::kMaxBatch);

  std::vector<uint8_t> evicted_single(fps.size());
  bool evicted_batched[FingerprintCache::kMaxBatch] = {};
  for (size_t i = 0; i < fps.size(); ++i)
    evicted_single[i] = insert_one(single, kKey, fps[i], blocks[i].bytes(), ds[i]);
  batched.insert_batch(kKey, keys_of(batched, kKey, fps), views, ds.data(), evicted_batched);
  for (size_t i = 0; i < fps.size(); ++i)
    EXPECT_EQ(evicted_batched[i], evicted_single[i] != 0) << "insert " << i;

  // Probe everything, plus a collision (set-0 key with other content).
  std::vector<uint64_t> probe_fps = fps;
  std::vector<BlockView> probe_views = views;
  probe_fps.push_back(fps[7]);
  probe_views.push_back(blocks[0].view());
  std::vector<SlcCodec::Decision> got_single(probe_fps.size()), got_batched(probe_fps.size());
  FingerprintCache::Lookup res_batched[FingerprintCache::kMaxBatch];
  batched.lookup_batch(kKey, keys_of(batched, kKey, probe_fps), probe_views, got_batched.data(),
                       res_batched);
  size_t hits = 0;
  for (size_t i = 0; i < probe_fps.size(); ++i) {
    const auto r = lookup_one(single, kKey, probe_fps[i], probe_views[i].bytes(), got_single[i]);
    ASSERT_EQ(res_batched[i], r) << "lookup " << i;
    if (r != FingerprintCache::Lookup::kHit) continue;
    ++hits;
    expect_info_eq(got_batched[i].info, got_single[i].info, "lookup " + std::to_string(i));
    EXPECT_EQ(got_batched[i].skip_start, got_single[i].skip_start) << i;
  }
  EXPECT_GT(hits, 0u);
  EXPECT_EQ(res_batched[probe_fps.size() - 1], FingerprintCache::Lookup::kCollision);
  EXPECT_EQ(batched.counters(), single.counters());
  EXPECT_EQ(batched.size(), single.size());
  // Same LRU state: one more key into set 0 evicts the same victim.
  uint64_t next = fps[7] + 1;
  while (single.set_index(kKey, next) != 0) ++next;
  const Block extra;
  EXPECT_EQ(insert_one(single, kKey, next, extra.bytes(), arbitrary_decision(1)),
            insert_one(batched, kKey, next, extra.bytes(), arbitrary_decision(1)));
  for (size_t i = 0; i < fps.size(); ++i) {
    SlcCodec::Decision a, b;
    EXPECT_EQ(lookup_one(single, kKey, fps[i], blocks[i].bytes(), a),
              lookup_one(batched, kKey, fps[i], blocks[i].bytes(), b))
        << "after eviction " << i;
  }
}

TEST(FingerprintCache, ReinsertRefreshesWithoutEvicting) {
  FingerprintCache cache({.capacity = 2, .verify_on_hit = false});
  const Block b;
  EXPECT_FALSE(insert_one(cache, 1, 7, b.bytes(), arbitrary_decision(1)));
  EXPECT_FALSE(insert_one(cache, 1, 7, b.bytes(), arbitrary_decision(2)));  // refresh, no growth
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.counters().evictions, 0u);
  SlcCodec::Decision d;
  EXPECT_EQ(lookup_one(cache, 1, 7, b.bytes(), d), FingerprintCache::Lookup::kHit);
  EXPECT_EQ(d.info.final_bits, arbitrary_decision(2).info.final_bits);  // last writer wins
}

TEST(FingerprintCache, VerifyOnHitCatchesCollision) {
  FingerprintCache cache({.capacity = 8, .verify_on_hit = true});
  ASSERT_TRUE(cache.verify_on_hit());
  const auto corpus = test::dedup_corpus({.blocks = 2, .seed = 21});
  insert_one(cache, 1, 5, corpus[0].bytes(), arbitrary_decision(0));
  SlcCodec::Decision d;
  // Same (key, fp), different content: a forced 64-bit collision. Must be
  // reported, never served.
  EXPECT_EQ(lookup_one(cache, 1, 5, corpus[1].bytes(), d), FingerprintCache::Lookup::kCollision);
  EXPECT_EQ(cache.counters().collisions, 1u);
  EXPECT_EQ(lookup_one(cache, 1, 5, corpus[0].bytes(), d), FingerprintCache::Lookup::kHit);
}

TEST(FingerprintCache, SetIndexStaysInRangeAndSingleSetPinsToZero) {
  FingerprintCache many({.capacity = 64, .verify_on_hit = false});
  EXPECT_EQ(many.num_sets(), 16u);
  FingerprintCache single({.capacity = FingerprintCache::kWays, .verify_on_hit = false});
  EXPECT_EQ(single.num_sets(), 1u);
  Rng rng(31);
  std::set<size_t> seen;
  for (int i = 0; i < 256; ++i) {
    const uint64_t key = rng.next(), fp = rng.next();
    EXPECT_LT(many.set_index(key, fp), many.num_sets());
    EXPECT_EQ(single.set_index(key, fp), 0u);
    seen.insert(many.set_index(key, fp));
  }
  EXPECT_EQ(seen.size(), many.num_sets());  // 256 random keys reach all 16 sets
}

TEST(FingerprintCache, CapacityRoundsUpToPowerOfTwoSets) {
  constexpr size_t kWays = FingerprintCache::kWays;
  const struct {
    size_t requested, sets;
  } cases[] = {{0, 1}, {1, 1}, {kWays, 1}, {kWays + 1, 2}, {60, 16}, {64, 16}, {65, 32},
               {size_t{1} << 15, size_t{1} << 13}};
  for (const auto& [requested, sets] : cases) {
    FingerprintCache cache({.capacity = requested, .verify_on_hit = false});
    EXPECT_EQ(cache.num_sets(), sets) << requested;
    EXPECT_EQ(cache.capacity(), sets * kWays) << requested;
    EXPECT_EQ(cache.size(), 0u) << requested;
  }
  EXPECT_EQ(FingerprintCache().capacity(), size_t{1} << 15);  // the default
}

TEST(FingerprintCache, ClearDropsEntriesKeepsCounters) {
  FingerprintCache cache;
  const Block b;
  insert_one(cache, 1, 3, b.bytes(), arbitrary_decision(3));
  SlcCodec::Decision d;
  lookup_one(cache, 1, 3, b.bytes(), d);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(lookup_one(cache, 1, 3, b.bytes(), d), FingerprintCache::Lookup::kMiss);
  EXPECT_EQ(cache.counters().hits, 1u);  // totals survive clear()
}

// Set selection and eviction under concurrent mixed hit/miss traffic with
// verify-on-hit enabled, then the same traffic racing clear() (the ASan and
// TSan CI tiers both run this). Set pinning via set_index makes the first
// phase's assertions deterministic even under racing LRU churn: the hot
// keys fill set 0 alone (no other key maps there, so none is ever evicted
// and every post-populate probe must hit), while per-thread disjoint cold
// sets oversubscribe the other sets to force insert/evict churn. In the
// second phase a clearing thread empties the table while the workers probe
// and re-insert: hot keys may then miss, but no probe may ever return a
// decision other than the one stored for its content.
TEST(FingerprintCache, ConcurrentMixedHitMissTrafficWithVerifyOnHit) {
  FingerprintCache cache({.capacity = 64, .verify_on_hit = true});
  ASSERT_EQ(cache.num_sets(), 16u);

  // Deterministic content and decision per fingerprint, so a verified hit
  // can be checked against exactly what the inserter stored, and honest
  // content can never trip the verify-on-hit collision path.
  const auto block_for = [](uint64_t fp) {
    std::vector<uint8_t> bytes(kBlockBytes);
    for (size_t i = 0; i < bytes.size(); ++i)
      bytes[i] = static_cast<uint8_t>((fp * 0x9E3779B97F4A7C15ull + i * 0x85EBCA77ull) >> 32);
    return Block(std::move(bytes));
  };

  constexpr uint64_t kKey = 7;
  std::vector<uint64_t> hot;
  for (uint64_t fp = 0; hot.size() < FingerprintCache::kWays; ++fp)
    if (cache.set_index(kKey, fp) == 0) hot.push_back(fp);
  constexpr unsigned kThreads = 4;
  std::vector<std::vector<uint64_t>> cold(kThreads);
  uint64_t next_fp = 1'000'000;
  for (unsigned t = 0; t < kThreads; ++t)
    while (cold[t].size() < 4 * cache.capacity())
      if (cache.set_index(kKey, ++next_fp) != 0) cold[t].push_back(next_fp);

  for (const uint64_t fp : hot)
    EXPECT_FALSE(insert_one(cache, kKey, fp, block_for(fp).bytes(), arbitrary_decision(fp)));

  std::atomic<size_t> bad_decisions{0}, missed_hot{0};
  const auto probe = [&](uint64_t fp, bool reinsert_hot) {
    SlcCodec::Decision d;
    const auto r = lookup_one(cache, kKey, fp, block_for(fp).bytes(), d);
    if (r == FingerprintCache::Lookup::kHit) {
      if (d.skip_start != arbitrary_decision(fp).skip_start ||
          d.info.final_bits != arbitrary_decision(fp).info.final_bits)
        bad_decisions.fetch_add(1);
      return true;
    }
    if (reinsert_hot) insert_one(cache, kKey, fp, block_for(fp).bytes(), arbitrary_decision(fp));
    return false;
  };
  const auto traffic = [&](unsigned t, bool clearing) {
    for (int iter = 0; iter < 40; ++iter) {
      for (const uint64_t fp : cold[t])
        if (!probe(fp, false))
          insert_one(cache, kKey, fp, block_for(fp).bytes(), arbitrary_decision(fp));
      for (const uint64_t fp : hot)
        if (!probe(fp, clearing) && !clearing) missed_hot.fetch_add(1);
    }
  };

  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) workers.emplace_back(traffic, t, false);
    for (auto& w : workers) w.join();
  }
  EXPECT_EQ(bad_decisions.load(), 0u);
  EXPECT_EQ(missed_hot.load(), 0u);
  EXPECT_LE(cache.size(), cache.capacity());
  CacheCounters c = cache.counters();
  EXPECT_EQ(c.collisions, 0u);  // content always matches its fingerprint here
  EXPECT_GT(c.evictions, 0u);   // the cold sets oversubscribe their ways
  EXPECT_EQ(c.probes(), c.hits + c.misses);

  // Phase 2: the same traffic with clear() racing it.
  std::atomic<bool> done{false};
  std::atomic<size_t> clears{0};
  {
    std::thread clearer([&] {
      do {
        cache.clear();
        clears.fetch_add(1);
        std::this_thread::yield();
      } while (!done.load());
    });
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) workers.emplace_back(traffic, t, true);
    for (auto& w : workers) w.join();
    done = true;
    clearer.join();
  }
  EXPECT_GT(clears.load(), 0u);
  EXPECT_EQ(bad_decisions.load(), 0u);
  EXPECT_LE(cache.size(), cache.capacity());
  c = cache.counters();
  EXPECT_EQ(c.collisions, 0u);
  EXPECT_EQ(c.probes(), c.hits + c.misses);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  for (const uint64_t fp : hot) EXPECT_FALSE(probe(fp, false));
}

TEST(FingerprintCache, RuntimeEnabledMatchesEnvironment) {
  // The CI job that sets SLC_FINGERPRINT_CACHE=0 relies on this mapping to
  // force the uncached oracle path through the whole suite.
  const char* v = std::getenv("SLC_FINGERPRINT_CACHE");
  const std::string s = v ? v : "";
  const bool disabled = (s == "0" || s == "off" || s == "OFF");
  EXPECT_EQ(FingerprintCache::runtime_enabled(), !disabled);
}

// --- SlcCodec-level differential --------------------------------------------

TEST(CachedDecision, CodecKeysIsolateConfigurationsAndModels) {
  if (!FingerprintCache::runtime_enabled()) GTEST_SKIP() << "cache force-disabled";
  auto cache = std::make_shared<FingerprintCache>();
  const SlcCodec a = make_slc(cache, /*threshold=*/16);
  const SlcCodec b = make_slc(cache, /*threshold=*/4);
  ASSERT_NE(a.cache_key(16), b.cache_key(4));
  // A second model trained on the same sample is still a distinct key —
  // identity is the model instance, not its contents.
  SlcConfig cfg;
  cfg.mag_bytes = 32;
  cfg.cache = cache;
  const SlcCodec c(E2mcCompressor::train(shared_training(), E2mcConfig{}), cfg);
  ASSERT_NE(c.cache_key(16), a.cache_key(16));

  const Block block = test::dedup_corpus({.blocks = 1, .seed = 40})[0];
  SlcCodec::CacheOutcome oc;
  test::decide_one(a, block.view(), &oc);
  EXPECT_TRUE(oc.probed);
  EXPECT_FALSE(oc.hit);
  test::decide_one(a, block.view(), &oc);
  EXPECT_TRUE(oc.hit);  // repeat through the same codec hits
  test::decide_one(b, block.view(), &oc);
  EXPECT_FALSE(oc.hit);  // different threshold: separate entry
  test::decide_one(c, block.view(), &oc);
  EXPECT_FALSE(oc.hit);  // different trained model: separate entry
}

TEST(CachedDecision, AnalyzeMatchesUncachedForEveryVariantAndStream) {
  // Every fuzz corpus, variant and threshold, with and without
  // verify-on-hit. Every block must decide exactly as uncached, and every
  // decision fits the memo, so the second pass is all hits.
  const auto model = shared_model();
  for (const auto& [cname, corpus] : fuzz_corpora()) {
    const auto views = views_of(corpus);
    for (const SlcVariant variant : {SlcVariant::kSimp, SlcVariant::kPred, SlcVariant::kOpt}) {
      for (const size_t threshold : {size_t{16}, size_t{4}}) {
        SlcConfig cfg;
        cfg.mag_bytes = 32;
        cfg.threshold_bytes = threshold;
        cfg.variant = variant;
        const SlcCodec uncached(model, cfg);
        const auto expected = test::decide_all(uncached, views);
        for (const bool verify : {false, true}) {
          cfg.cache = std::make_shared<FingerprintCache>(
              FingerprintCache::Config{.verify_on_hit = verify});
          const SlcCodec cached(model, cfg);
          const std::string what = std::string(cname) + " variant " + to_string(variant) +
                                   " thr " + std::to_string(threshold) +
                                   (verify ? " verify" : "");
          // Two passes: pass 0 populates (misses + in-chunk twins), pass 1
          // is served from the memo; both must reproduce the oracle.
          uint64_t hits_before_pass1 = 0;
          for (int pass = 0; pass < 2; ++pass) {
            if (pass == 1) hits_before_pass1 = cfg.cache->counters().hits;
            const auto got = test::decide_all(cached, views);
            for (size_t i = 0; i < views.size(); ++i)
              expect_info_eq(got[i].info, expected[i].info,
                             what + " pass " + std::to_string(pass) + " block " +
                                 std::to_string(i));
          }
          if (!FingerprintCache::runtime_enabled()) continue;
          const uint64_t pass1_hits = cfg.cache->counters().hits - hits_before_pass1;
          EXPECT_EQ(pass1_hits, views.size()) << what << ": second pass should be all hits";
        }
      }
    }
  }
}

TEST(CachedDecision, OversizeDecisionIsReturnedButNotStored) {
  // An 8 KiB block, whose raw decision (65536 final bits, 256 bursts at MAG
  // 32) no packed way holds, is no block the codec takes: decide_batch
  // rejects it before the memo fingerprints it, so the memo keeps nothing.
  std::vector<uint8_t> bytes(8192);
  Rng rng(90);
  for (uint8_t& byte : bytes) byte = static_cast<uint8_t>(rng.next());
  const Block block(std::move(bytes));
  auto cache = std::make_shared<FingerprintCache>();
  const SlcCodec cached = make_slc(cache);
  for (int pass = 0; pass < 2; ++pass) {
    SlcCodec::CacheOutcome oc;
    EXPECT_THROW(test::decide_one(cached, block.view(), &oc), std::invalid_argument)
        << "pass " << pass;
  }
  EXPECT_EQ(cache->size(), 0u);
}

TEST(CachedDecision, SpanOfOneMatchesBatchOracleIncludingSkipWindow) {
  // One block at a time through the memo (the per-block commit and analyze
  // shape) against one uncached span over the whole stream.
  const auto blocks = test::dedup_corpus(
      {.blocks = 160, .dup_fraction = 0.4, .flip_fraction = 0.3, .zero_fraction = 0.1, .seed = 51});
  const auto views = views_of(blocks);
  const SlcCodec uncached = make_slc(nullptr, /*threshold=*/16);
  const SlcCodec cached = make_slc(std::make_shared<FingerprintCache>(), /*threshold=*/16);
  const auto expected = test::decide_all(uncached, views);
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < views.size(); ++i) {
      SlcCodec::CacheOutcome oc;
      const SlcCodec::Decision got = test::decide_one(cached, views[i], &oc);
      const std::string what = "pass " + std::to_string(pass) + " block " + std::to_string(i);
      expect_info_eq(got.info, expected[i].info, what);
      EXPECT_EQ(got.skip_start, expected[i].skip_start) << what;
      EXPECT_EQ(got.skip_count, expected[i].skip_count) << what;
    }
  }
}

TEST(CachedDecision, EvictionChurnNeverChangesDecisions) {
  // A cache far smaller than the stream: every block cycles through insert/
  // evict, and duplicates straddle eviction boundaries. Decisions must not
  // care.
  const auto blocks = test::dedup_corpus(
      {.blocks = 384, .dup_fraction = 0.5, .flip_fraction = 0.2, .zero_fraction = 0.1, .seed = 52});
  const auto views = views_of(blocks);
  const SlcCodec uncached = make_slc(nullptr);
  auto tiny = std::make_shared<FingerprintCache>(
      FingerprintCache::Config{.capacity = 8, .verify_on_hit = false});
  const SlcCodec cached = make_slc(tiny);
  const auto expected = test::decide_all(uncached, views);
  const auto got = test::decide_all(cached, views);
  for (size_t i = 0; i < views.size(); ++i)
    expect_info_eq(got[i].info, expected[i].info, "block " + std::to_string(i));
  if (FingerprintCache::runtime_enabled()) {
    EXPECT_GT(tiny->counters().evictions, 0u) << "stream was sized to churn the cache";
  }
}

TEST(CachedDecision, VerifyOnHitModeStaysIdenticalOnNearDuplicates) {
  const auto blocks = test::dedup_corpus(
      {.blocks = 256, .dup_fraction = 0.3, .flip_fraction = 0.5, .zero_fraction = 0.05, .seed = 53});
  const auto views = views_of(blocks);
  const SlcCodec uncached = make_slc(nullptr);
  auto paranoid = std::make_shared<FingerprintCache>(
      FingerprintCache::Config{.capacity = 1024, .verify_on_hit = true});
  const SlcCodec cached = make_slc(paranoid);
  std::vector<SlcCodec::CacheOutcome> ocs;
  const auto expected = test::decide_all(uncached, views);
  const auto got = test::decide_all(cached, views, &ocs);
  for (size_t i = 0; i < views.size(); ++i)
    expect_info_eq(got[i].info, expected[i].info, "block " + std::to_string(i));
  // One-byte neighbours must never verify as each other's content.
  EXPECT_EQ(paranoid->counters().collisions, 0u);
  if (FingerprintCache::runtime_enabled()) {
    // Every verbatim repeat is served without a decision: a memo hit when
    // its first copy sat in an earlier chunk, an in-chunk twin otherwise.
    for (size_t i = 0; i < blocks.size(); ++i) {
      const bool repeat = std::find(blocks.begin(), blocks.begin() + static_cast<ptrdiff_t>(i),
                                    blocks[i]) != blocks.begin() + static_cast<ptrdiff_t>(i);
      EXPECT_EQ(ocs[i].hit, repeat) << "block " << i;
    }
  }
}

// --- BlockCodec-level differential (satellite: registry-wide sweep) ---------

TEST(BlockCodecDifferential, TslcProcessAndBatchMatchUncached) {
  struct Annotation {
    bool safe;
    size_t threshold;
  };
  const Annotation annotations[] = {{false, 16}, {true, 16}, {true, 4}, {true, 64}, {true, 0}};
  for (const auto& [cname, blocks] : fuzz_corpora()) {
    const auto views = views_of(blocks);
    const auto uncached =
        CodecRegistry::instance().create_block_codec("TSLC-OPT", cached_options(nullptr));
    const auto cached = CodecRegistry::instance().create_block_codec(
        "TSLC-OPT", cached_options(std::make_shared<FingerprintCache>()));
    for (const auto& [safe, threshold] : annotations) {
      std::vector<BlockCodecResult> expected(views.size()), got(views.size());
      uncached->process_batch(views, safe, threshold, expected.data());
      cached->process_batch(views, safe, threshold, got.data());
      for (size_t i = 0; i < views.size(); ++i) {
        const std::string what = std::string(cname) + " safe=" + std::to_string(safe) +
                                 " thr=" + std::to_string(threshold) + " block " +
                                 std::to_string(i);
        expect_result_eq(got[i], expected[i], what);
        // The scalar entry point must agree with both batch kernels.
        expect_result_eq(cached->process(views[i], safe, threshold), expected[i],
                         what + " (scalar)");
      }
    }
  }
}

TEST(BlockCodecDifferential, RegistrySweepEverySchemeCachedVsUncached) {
  // Satellite property sweep: for every registered scheme and every
  // (safe, threshold) annotation, attaching a fingerprint cache must be
  // invisible in the output. Lossless schemes ignore the cache entirely;
  // the TSLC variants route their decision through it.
  struct Annotation {
    bool safe;
    size_t threshold;
  };
  const Annotation annotations[] = {{false, 16}, {true, 16}, {true, 4}, {true, 0}};
  const auto corpora = fuzz_corpora();
  for (const std::string& name : CodecRegistry::instance().names()) {
    const auto uncached =
        CodecRegistry::instance().create_block_codec(name, cached_options(nullptr));
    const auto cached = CodecRegistry::instance().create_block_codec(
        name, cached_options(std::make_shared<FingerprintCache>()));
    for (const auto& [cname, blocks] : corpora) {
      const auto views = views_of(blocks);
      for (const auto& [safe, threshold] : annotations) {
        std::vector<BlockCodecResult> expected(views.size()), got(views.size());
        uncached->process_batch(views, safe, threshold, expected.data());
        cached->process_batch(views, safe, threshold, got.data());
        for (size_t i = 0; i < views.size(); ++i)
          expect_result_eq(got[i], expected[i],
                           name + " " + cname + " safe=" + std::to_string(safe) +
                               " thr=" + std::to_string(threshold) + " block " +
                               std::to_string(i));
      }
    }
  }
}

// --- engine / commit-level differential -------------------------------------

struct CommitOutcome {
  std::vector<uint8_t> image;
  CommitStats stats;
};

CommitOutcome run_commit(const std::vector<uint8_t>& bytes,
                         std::shared_ptr<const BlockCodec> codec,
                         std::shared_ptr<CodecEngine> engine) {
  ApproxMemory mem;
  mem.set_engine(std::move(engine));
  mem.set_codec(std::move(codec));
  const RegionId r = mem.alloc("fuzz", bytes.size(), /*safe=*/true, 16);
  auto dst = mem.span<uint8_t>(r);
  std::copy(bytes.begin(), bytes.end(), dst.begin());
  mem.commit(r);
  CommitOutcome out;
  const auto img = mem.span<const uint8_t>(r);
  out.image.assign(img.begin(), img.end());
  out.stats = mem.stats();
  return out;
}

TEST(EngineCache, CommitsMatchUncachedAtEveryThreadCount) {
  for (const auto& [cname, blocks] : fuzz_corpora()) {
    const auto bytes = test::corpus_bytes(blocks);
    const CommitOutcome reference =
        run_commit(bytes, CodecRegistry::instance().create_block_codec(
                              "TSLC-OPT", cached_options(nullptr)),
                   nullptr);  // inline, single-threaded, uncached: the oracle
    for (const unsigned threads : {1u, 4u}) {
      auto cache = std::make_shared<FingerprintCache>();
      const CommitOutcome cached = run_commit(
          bytes, CodecRegistry::instance().create_block_codec("TSLC-OPT", cached_options(cache)),
          std::make_shared<CodecEngine>(threads));
      EXPECT_EQ(cached.image, reference.image) << cname << " threads=" << threads;
      EXPECT_TRUE(cached.stats.same_decisions(reference.stats))
          << cname << " threads=" << threads;
      if (FingerprintCache::runtime_enabled()) {
        EXPECT_EQ(cached.stats.cache.probes(), cached.stats.blocks)
            << cname << " every committed block must be probed";
      }
    }
  }
}

TEST(EngineCache, RepeatTrafficHitsTheMemo) {
  if (!FingerprintCache::runtime_enabled()) GTEST_SKIP() << "cache force-disabled";
  const auto bytes =
      test::corpus_bytes(test::dedup_corpus({.blocks = 128, .seed = 61}));
  auto cache = std::make_shared<FingerprintCache>();
  ApproxMemory mem;
  mem.set_engine(nullptr);
  mem.set_codec(CodecRegistry::instance().create_block_codec("TSLC-OPT", cached_options(cache)));
  const RegionId a = mem.alloc("a", bytes.size(), true, 16);
  const RegionId b = mem.alloc("b", bytes.size(), true, 16);
  for (const RegionId r : {a, b}) {
    auto dst = mem.span<uint8_t>(r);
    std::copy(bytes.begin(), bytes.end(), dst.begin());
  }
  mem.commit(a);
  mem.commit(b);  // identical initial contents: every block was just decided
  const CommitStats sb = mem.region_stats(b);
  EXPECT_EQ(sb.cache.hits, sb.blocks);
  EXPECT_EQ(sb.cache.hit_rate(), 1.0);
}

TEST(EngineCache, AnalyzeStreamFoldsCacheCounters) {
  const auto blocks = test::dedup_corpus(
      {.blocks = 200, .dup_fraction = 0.4, .flip_fraction = 0.1, .zero_fraction = 0.1, .seed = 62});
  auto cache = std::make_shared<FingerprintCache>();
  const auto cached = CodecRegistry::instance().create("TSLC-OPT", cached_options(cache));
  const auto uncached = CodecRegistry::instance().create("TSLC-OPT", cached_options(nullptr));
  CodecEngine engine(2);
  const auto expected = test::engine_analyze(engine, *uncached, blocks);
  const auto first = test::engine_analyze(engine, *cached, blocks);
  const auto second = test::engine_analyze(engine, *cached, blocks);
  ASSERT_EQ(first.blocks.size(), expected.blocks.size());
  for (size_t i = 0; i < expected.blocks.size(); ++i) {
    for (const auto* a : {&first, &second}) {
      EXPECT_EQ(a->blocks[i].bit_size, expected.blocks[i].bit_size) << i;
      EXPECT_EQ(a->blocks[i].lossy, expected.blocks[i].lossy) << i;
      EXPECT_EQ(a->blocks[i].truncated_symbols, expected.blocks[i].truncated_symbols) << i;
    }
  }
  EXPECT_EQ(expected.cache.probes(), 0u);  // uncached codec never probes
  if (FingerprintCache::runtime_enabled()) {
    EXPECT_EQ(first.cache.probes(), blocks.size());
    EXPECT_EQ(second.cache.hits, blocks.size());  // the whole stream repeats
  }
}

TEST(EngineCache, SharedCacheConcurrentCommitsStayDeterministic) {
  // The concurrency regression: N harness threads, each with its own
  // ApproxMemory, committing interleaved duplicate (shared corpus) and
  // unique (per-thread corpus) regions through ONE engine and ONE shared
  // fingerprint cache. Every thread must reproduce the single-threaded
  // uncached reference bit for bit, and no probe may be lost.
  constexpr unsigned kThreads = 4;
  const auto shared_blocks = test::dedup_corpus(
      {.blocks = 256, .dup_fraction = 0.5, .flip_fraction = 0.1, .zero_fraction = 0.1, .seed = 71});
  const auto shared_bytes = test::corpus_bytes(shared_blocks);
  const auto uncached_codec =
      CodecRegistry::instance().create_block_codec("TSLC-OPT", cached_options(nullptr));
  const CommitOutcome shared_ref = run_commit(shared_bytes, uncached_codec, nullptr);

  std::vector<std::vector<uint8_t>> unique_bytes(kThreads);
  std::vector<CommitOutcome> unique_ref(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    unique_bytes[t] =
        test::corpus_bytes(test::dedup_corpus({.blocks = 128, .seed = 100 + t}));
    unique_ref[t] = run_commit(unique_bytes[t], uncached_codec, nullptr);
  }

  auto engine = std::make_shared<CodecEngine>(kThreads);
  auto cache = std::make_shared<FingerprintCache>();
  const auto cached_codec =
      CodecRegistry::instance().create_block_codec("TSLC-OPT", cached_options(cache));

  std::vector<CommitOutcome> shared_got(kThreads), unique_got(kThreads);
  {
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        ApproxMemory mem;
        mem.set_engine(engine);
        mem.set_codec(cached_codec);
        const RegionId dup = mem.alloc("dup", shared_bytes.size(), true, 16);
        const RegionId uniq = mem.alloc("uniq", unique_bytes[t].size(), true, 16);
        {
          auto d = mem.span<uint8_t>(dup);
          std::copy(shared_bytes.begin(), shared_bytes.end(), d.begin());
          auto u = mem.span<uint8_t>(uniq);
          std::copy(unique_bytes[t].begin(), unique_bytes[t].end(), u.begin());
        }
        mem.commit_async(dup);  // both regions in flight at once
        mem.commit_async(uniq);
        mem.flush();
        const auto di = mem.span<const uint8_t>(dup);
        shared_got[t].image.assign(di.begin(), di.end());
        shared_got[t].stats = mem.region_stats(dup);
        const auto ui = mem.span<const uint8_t>(uniq);
        unique_got[t].image.assign(ui.begin(), ui.end());
        unique_got[t].stats = mem.region_stats(uniq);
      });
    }
    for (auto& w : workers) w.join();
  }

  uint64_t total_blocks = 0, total_probes = 0;
  for (unsigned t = 0; t < kThreads; ++t) {
    EXPECT_EQ(shared_got[t].image, shared_ref.image) << "thread " << t;
    EXPECT_TRUE(shared_got[t].stats.same_decisions(shared_ref.stats)) << "thread " << t;
    EXPECT_EQ(unique_got[t].image, unique_ref[t].image) << "thread " << t;
    EXPECT_TRUE(unique_got[t].stats.same_decisions(unique_ref[t].stats)) << "thread " << t;
    total_blocks += shared_got[t].stats.blocks + unique_got[t].stats.blocks;
    total_probes += shared_got[t].stats.cache.probes() + unique_got[t].stats.cache.probes();
  }
  if (FingerprintCache::runtime_enabled()) {
    // No lost updates: every committed block probed exactly once, whichever
    // worker carried it, and the cache's own tally agrees with the sum of
    // the per-commit tallies (in-span dedup twins aside, which only the
    // CommitStats side counts — hence <=).
    EXPECT_EQ(total_probes, total_blocks);
    EXPECT_LE(cache->counters().probes(), total_probes);
    EXPECT_GT(cache->counters().hits, 0u);
  }
}

// --- memo governor ----------------------------------------------------------
//
// Each SlcCodec steps its memo aside while it does not pay. The rule these
// tests pin: windows of kWindow probed blocks; a window below a hit rate of
// 1/2 switches the memo off; while off, 1 chunk in kSampleEvery still runs
// the memo stage, and the last kSamples of those at a hit rate of 1/2
// switch it back on; FingerprintCache::clear() restarts the governor.

constexpr size_t kWindow = 4096;
constexpr size_t kSampleEvery = 64;
constexpr size_t kChunk = SlcCodec::kProbeChunk;
/// Blocks within which a stream that turns 90% duplicate over an unseen
/// 4096-block working set switches the memo back on. While the memo is off
/// only sampled chunks insert, about 57 working-set blocks each, so the
/// sampled hit rate reaches 1/2 after about 60 samples of 64 chunks each
/// (~250k blocks); the bound leaves a margin over that.
constexpr size_t kBackOnBound = 320 * 1024;

/// Seeded governor traffic, taken a slice at a time so a long stream is
/// never held whole: fresh random blocks, or with probability `dup` a
/// uniformly drawn block of `working_set`.
class Traffic {
 public:
  explicit Traffic(uint64_t seed) : rng_(seed) {}

  /// The next `blocks` blocks, back to back.
  std::vector<uint8_t> take(size_t blocks, double dup = 0.0,
                            std::span<const Block> working_set = {}) {
    std::vector<uint8_t> out(blocks * kBlockBytes);
    for (size_t b = 0; b < blocks; ++b) {
      uint8_t* dst = out.data() + b * kBlockBytes;
      if (!working_set.empty() && rng_.chance(dup)) {
        const auto src = working_set[rng_.next_below(working_set.size())].bytes();
        std::copy(src.begin(), src.end(), dst);
        continue;
      }
      for (size_t w = 0; w < kBlockBytes; w += 8) {
        const uint64_t v = rng_.next();
        std::memcpy(dst + w, &v, 8);
      }
    }
    return out;
  }

 private:
  Rng rng_;
};

std::vector<BlockView> views_of(std::span<const uint8_t> bytes) {
  std::vector<BlockView> v;
  for (size_t off = 0; off < bytes.size(); off += kBlockBytes)
    v.emplace_back(bytes.subspan(off, kBlockBytes));
  return v;
}

/// The three governor streams, one kWindow-block slice at a time: `slice(i)`
/// is slice i, empty past the end.
struct GovernorStream {
  const char* name;
  std::function<std::vector<uint8_t>(size_t)> slice;
};

/// Eight fresh windows.
GovernorStream fresh_stream() {
  auto traffic = std::make_shared<Traffic>(201);
  return {"fresh", [traffic](size_t i) {
            return i < 8 ? traffic->take(kWindow) : std::vector<uint8_t>{};
          }};
}

/// Two fresh windows (the memo goes off after the first), then 90%
/// duplicates of an unseen 4096-block working set, up to kBackOnBound blocks.
GovernorStream turns_duplicate_stream() {
  auto traffic = std::make_shared<Traffic>(301);
  auto working_set =
      std::make_shared<const std::vector<Block>>(test::dedup_corpus({.blocks = 4096, .seed = 302}));
  return {"turns-duplicate", [traffic, working_set](size_t i) {
            if (i < 2) return traffic->take(kWindow);
            if (i < 2 + kBackOnBound / kWindow) return traffic->take(kWindow, 0.9, *working_set);
            return std::vector<uint8_t>{};
          }};
}

/// Eight windows in which 95% of the blocks repeat an earlier block.
GovernorStream duplicate_stream() {
  auto bytes = std::make_shared<const std::vector<uint8_t>>(test::corpus_bytes(
      test::dedup_corpus({.blocks = 8 * kWindow, .dup_fraction = 0.95, .seed = 401})));
  return {"95%-duplicate", [bytes](size_t i) {
            if (i >= 8) return std::vector<uint8_t>{};
            const auto first = bytes->begin() + static_cast<ptrdiff_t>(i * kWindow * kBlockBytes);
            return std::vector<uint8_t>(first, first + static_cast<ptrdiff_t>(kWindow * kBlockBytes));
          }};
}

bool same_decision(const SlcCodec::Decision& a, const SlcCodec::Decision& b) {
  const SlcEncodeInfo &x = a.info, &y = b.info;
  return x.lossy == y.lossy && x.stored_uncompressed == y.stored_uncompressed &&
         x.lossless_bits == y.lossless_bits && x.final_bits == y.final_bits &&
         x.bursts == y.bursts && x.truncated_symbols == y.truncated_symbols &&
         x.truncated_bits == y.truncated_bits && x.extra_bits == y.extra_bits &&
         a.skip_start == b.skip_start && a.skip_count == b.skip_count;
}

/// What one cached codec's governor did over a stream, fed to decide_batch
/// one slice at a time on this thread.
struct Governed {
  std::vector<bool> probed;  ///< per kProbeChunk chunk: ran the memo stage, else bypassed
  CacheCounters counters;
  size_t blocks = 0;
  size_t diverged = 0;  ///< blocks whose decision differs from the uncached codec's
};

void govern(const SlcCodec& cached, std::span<const BlockView> slice, Governed& g) {
  std::vector<SlcCodec::CacheOutcome> ocs;
  const auto got = test::decide_all(cached, slice, &ocs);
  const auto want = test::decide_all(make_slc(nullptr), slice);
  // With the memo on, a block is probed or bypassed, never both, and a
  // chunk is never a mix; with it force-disabled, a block is neither.
  const bool memo = FingerprintCache::runtime_enabled();
  for (size_t base = 0; base < slice.size(); base += kChunk) {
    const size_t end = std::min(slice.size(), base + kChunk);
    size_t probed = 0;
    for (size_t i = base; i < end; ++i) {
      EXPECT_EQ(ocs[i].probed || ocs[i].bypassed, memo) << "block " << g.blocks + i;
      EXPECT_FALSE(ocs[i].probed && ocs[i].bypassed) << "block " << g.blocks + i;
      probed += ocs[i].probed ? 1 : 0;
      g.counters.record(ocs[i]);
      g.diverged += same_decision(want[i], got[i]) ? 0 : 1;
    }
    EXPECT_TRUE(probed == 0 || probed == end - base) << "chunk at " << g.blocks + base;
    g.probed.push_back(probed != 0);
  }
  g.blocks += slice.size();
}

Governed govern(const SlcCodec& cached, const GovernorStream& stream) {
  Governed g;
  for (size_t i = 0;; ++i) {
    const std::vector<uint8_t> bytes = stream.slice(i);
    if (bytes.empty()) return g;
    govern(cached, views_of(bytes), g);
  }
}

TEST(MemoGovernor, FreshWindowsSwitchTheMemoOff) {
  auto cache = std::make_shared<FingerprintCache>();
  const Governed g = govern(make_slc(cache), fresh_stream());
  EXPECT_EQ(g.diverged, 0u);
  if (!FingerprintCache::runtime_enabled()) GTEST_SKIP() << "cache force-disabled";

  // The first window runs the memo and misses throughout; the memo is off
  // from the next chunk on, except 1 chunk in kSampleEvery.
  const size_t window_chunks = kWindow / kChunk;
  size_t samples = 0;
  for (size_t c = 0; c < g.probed.size(); ++c) {
    const bool sampled =
        c >= window_chunks && (c - window_chunks) % kSampleEvery == kSampleEvery - 1;
    EXPECT_EQ(g.probed[c], c < window_chunks || sampled) << "chunk " << c;
    samples += sampled ? 1 : 0;
  }
  EXPECT_EQ(samples, 7u);
  EXPECT_EQ(g.counters.hits, 0u);
  EXPECT_EQ(g.counters.probes(), kWindow + samples * kChunk);
  EXPECT_EQ(g.counters.bypassed, g.blocks - g.counters.probes());
  // A bypassed block never reaches the memo.
  EXPECT_EQ(cache->counters().probes(), g.counters.probes());
  EXPECT_EQ(cache->counters().bypassed, 0u);
}

TEST(MemoGovernor, DuplicateTrafficSwitchesTheMemoBackOn) {
  const Governed g = govern(make_slc(std::make_shared<FingerprintCache>()), turns_duplicate_stream());
  EXPECT_EQ(g.diverged, 0u);
  if (!FingerprintCache::runtime_enabled()) GTEST_SKIP() << "cache force-disabled";

  // Off after the first fresh window; back on at the first chunk that runs
  // the memo right after a chunk that ran it, and on from there to the end.
  const size_t window_chunks = kWindow / kChunk;
  ASSERT_FALSE(g.probed[window_chunks]);
  size_t on = g.probed.size();
  for (size_t c = window_chunks + 1; c < g.probed.size() && on == g.probed.size(); ++c)
    if (g.probed[c] && g.probed[c - 1]) on = c;
  ASSERT_LT(on, g.probed.size()) << "memo still off after " << kBackOnBound << " blocks";
  const size_t turned = 2 * kWindow;  // where the duplicate traffic starts
  EXPECT_LE(on * kChunk - turned, kBackOnBound);
  for (size_t c = on; c < g.probed.size(); ++c) EXPECT_TRUE(g.probed[c]) << "chunk " << c;
}

TEST(MemoGovernor, NinetyFivePercentDuplicatesNeverSwitchItOff) {
  const Governed g = govern(make_slc(std::make_shared<FingerprintCache>()), duplicate_stream());
  EXPECT_EQ(g.diverged, 0u);
  if (!FingerprintCache::runtime_enabled()) GTEST_SKIP() << "cache force-disabled";
  EXPECT_EQ(g.counters.bypassed, 0u);
  EXPECT_EQ(g.counters.probes(), g.blocks);
  EXPECT_GT(g.counters.hit_rate(), 0.9);
}

TEST(MemoGovernor, ClearRestartsTheGovernor) {
  if (!FingerprintCache::runtime_enabled()) GTEST_SKIP() << "cache force-disabled";
  Traffic traffic(501);
  auto cache = std::make_shared<FingerprintCache>();
  const SlcCodec cached = make_slc(cache);
  Governed before;
  for (int i = 0; i < 2; ++i) govern(cached, views_of(traffic.take(kWindow)), before);
  ASSERT_FALSE(before.probed[kWindow / kChunk]) << "a fresh window switches the memo off";

  // After clear(): memo on, with an empty window — a whole window probed,
  // then off again.
  cache->clear();
  Governed after;
  govern(cached, views_of(traffic.take(kWindow + kChunk)), after);
  EXPECT_EQ(after.counters.probes(), kWindow);
  EXPECT_EQ(after.counters.bypassed, kChunk);
}

// Seeded single-thread replays of the serving benchmark's traffic shape
// (bench/e2e/serve.cpp): requests of 32 blocks, two to a kProbeChunk chunk.
// A quarter of the requests are runs of zero blocks, as a quarter of the
// workload images the benchmark draws from are (24.7%), so a chunk the
// governor samples while the memo is off often holds one: its zero blocks
// then hit the one zero content the memo table holds.

constexpr size_t kRequestBlocks = 32;

/// Writes `blocks` fresh random blocks to `dst`.
void fresh_blocks(Rng& rng, std::span<uint8_t> dst) {
  for (size_t w = 0; w < dst.size(); w += 8) {
    const uint64_t v = rng.next();
    std::memcpy(dst.data() + w, &v, 8);
  }
}

/// One fresh request: with probability 1/4 a run of zero blocks, else
/// blocks never seen before.
void fresh_request(Rng& rng, std::span<uint8_t> dst) {
  if (rng.chance(0.25)) {
    std::fill(dst.begin(), dst.end(), uint8_t{0});
  } else {
    fresh_blocks(rng, dst);
  }
}

/// Feeds `chunks` chunks of two requests to `codec`'s decide_batch on this
/// thread and folds the memo outcomes; `request(rng, dst)` writes one
/// request's kRequestBlocks blocks.
template <class Request>
CacheCounters replay(const SlcCodec& codec, Rng& rng, size_t chunks, const Request& request) {
  std::vector<uint8_t> bytes(kChunk * kBlockBytes);
  const std::vector<BlockView> views = views_of(bytes);
  std::array<SlcCodec::Decision, kChunk> ds;
  std::array<SlcCodec::CacheOutcome, kChunk> ocs;
  CacheCounters c;
  for (size_t k = 0; k < chunks; ++k) {
    for (size_t r = 0; r < kChunk / kRequestBlocks; ++r)
      request(rng, std::span(bytes).subspan(r * kRequestBlocks * kBlockBytes,
                                            kRequestBlocks * kBlockBytes));
    codec.decide_batch(views, codec.config().threshold_bytes, ds.data(), ocs.data());
    for (const SlcCodec::CacheOutcome& o : ocs) c.record(o);
  }
  return c;
}

// Fresh traffic: the memo goes off after its first window and stays off. A
// sampled chunk counts each content the table held once, so one holding a
// zero run reads as one hit among its contents, not as 32 or 64 hits, and
// cannot vote the memo back on: the replay probes at most twice the
// sampling floor of 1 chunk in kSampleEvery. (Counting every block served
// without a decision, a governor probed 6.6% of the benchmark's own fresh
// traffic, and 7.3% of this replay.)
TEST(MemoGovernor, FreshTrafficWithZeroRunsStaysNearTheSamplingFloor) {
  if (!FingerprintCache::runtime_enabled()) GTEST_SKIP() << "cache force-disabled";
  const SlcCodec cached = make_slc(std::make_shared<FingerprintCache>());
  Rng rng(602);
  constexpr size_t kChunks = 16384;  // 1 Mi blocks
  const CacheCounters c = replay(cached, rng, kChunks, fresh_request);
  const double probed = static_cast<double>(c.probes()) / static_cast<double>(kChunks * kChunk);
  RecordProperty("probed_share", std::to_string(probed));
  EXPECT_LE(probed, 2.0 / kSampleEvery);
}

// Duplicate traffic: each block with probability 0.9 one of a 4096-block
// working set, else a block of a fresh request, as in the benchmark's
// duplicate workload. After a warm-up the memo stays on throughout — no
// chunk bypasses it — and serves at least 90% of the blocks.
TEST(MemoGovernor, DuplicateTrafficKeepsTheMemoOn) {
  if (!FingerprintCache::runtime_enabled()) GTEST_SKIP() << "cache force-disabled";
  const SlcCodec cached = make_slc(std::make_shared<FingerprintCache>());
  Rng rng(603);
  std::vector<uint8_t> working_set(4096 * kBlockBytes);
  fresh_blocks(rng, working_set);
  std::vector<uint8_t> other(kRequestBlocks * kBlockBytes);
  const auto request = [&](Rng& g, std::span<uint8_t> dst) {
    fresh_request(g, other);
    for (size_t j = 0; j < kRequestBlocks; ++j) {
      const size_t from = g.chance(0.9) ? g.next_below(4096) : SIZE_MAX;
      const auto src = from != SIZE_MAX
                           ? std::span<const uint8_t>(working_set).subspan(from * kBlockBytes,
                                                                           kBlockBytes)
                           : std::span<const uint8_t>(other).subspan(j * kBlockBytes, kBlockBytes);
      std::copy(src.begin(), src.end(), dst.begin() + static_cast<ptrdiff_t>(j * kBlockBytes));
    }
  };
  replay(cached, rng, 4096, request);  // warm-up: 256 Ki blocks
  const CacheCounters c = replay(cached, rng, 8192, request);
  RecordProperty("hit_rate", std::to_string(c.hit_rate()));
  EXPECT_EQ(c.bypassed, 0u);
  EXPECT_GE(c.hit_rate(), 0.9);
}

TEST(MemoGovernor, DecisionsMatchUncachedAtOneAndFourThreads) {
  // The three governor streams through one cached codec per run, each slice
  // sharded by an engine job: workers race on the governor, which may move
  // which chunks bypass, never a decision.
  const auto uncached = CodecRegistry::instance().create("TSLC-OPT", cached_options(nullptr));
  for (const unsigned threads : {1u, 4u}) {
    CodecEngine engine(threads);
    for (const GovernorStream& stream :
         {fresh_stream(), turns_duplicate_stream(), duplicate_stream()}) {
      const auto cached = CodecRegistry::instance().create(
          "TSLC-OPT", cached_options(std::make_shared<FingerprintCache>()));
      size_t blocks = 0, diverged = 0;
      CacheCounters c;
      for (size_t i = 0;; ++i) {
        const std::vector<uint8_t> bytes = stream.slice(i);
        if (bytes.empty()) break;
        const auto views = views_of(bytes);
        std::vector<BlockAnalysis> want(views.size()), got(views.size());
        uncached->analyze_batch(views, want.data());
        engine
            .submit(views.size(),
                    [&](size_t begin, size_t end, unsigned) {
                      cached->analyze_batch(
                          std::span<const BlockView>(views).subspan(begin, end - begin),
                          got.data() + begin);
                    })
            .wait();
        for (size_t j = 0; j < views.size(); ++j) {
          const BlockAnalysis &w = want[j], &g = got[j];
          diverged += (w.bit_size != g.bit_size || w.is_compressed != g.is_compressed ||
                       w.lossy != g.lossy || w.lossless_bits != g.lossless_bits ||
                       w.truncated_symbols != g.truncated_symbols)
                          ? 1
                          : 0;
          c.record(g.cache);
        }
        blocks += views.size();
      }
      EXPECT_EQ(diverged, 0u) << stream.name << " threads=" << threads;
      if (FingerprintCache::runtime_enabled()) {
        EXPECT_EQ(c.probes() + c.bypassed, blocks) << stream.name << " threads=" << threads;
      }
    }
  }
}

// --- server-level knobs -----------------------------------------------------

StreamConfig tslc_stream(const char* name, CacheMode mode = CacheMode::kShared) {
  StreamConfig cfg;
  cfg.name = name;
  cfg.codec = "TSLC-OPT";
  cfg.options = cached_options(nullptr);
  cfg.cache_mode = mode;
  return cfg;
}

TEST(ServerCache, CachedStreamMatchesUncachedStream) {
  const auto bytes = test::corpus_bytes(test::dedup_corpus(
      {.blocks = 300, .dup_fraction = 0.5, .flip_fraction = 0.2, .zero_fraction = 0.1, .seed = 81}));
  CodecServer::Config scfg;
  scfg.engine = std::make_shared<CodecEngine>(2);
  CodecServer server(scfg);
  const StreamId u = server.open_stream(tslc_stream("uncached", CacheMode::kOff));
  const StreamId c = server.open_stream(tslc_stream("cached"));
  auto tu = server.submit(u, Request{.bytes = bytes});
  auto tc = server.submit(c, Request{.bytes = bytes});
  const Response ru = tu.wait();
  const Response rc = tc.wait();
  ASSERT_EQ(ru.analysis.blocks.size(), rc.analysis.blocks.size());
  for (size_t i = 0; i < ru.analysis.blocks.size(); ++i) {
    EXPECT_EQ(rc.analysis.blocks[i].bit_size, ru.analysis.blocks[i].bit_size) << i;
    EXPECT_EQ(rc.analysis.blocks[i].lossy, ru.analysis.blocks[i].lossy) << i;
  }
  server.drain();
  EXPECT_TRUE(server.stream_stats(c).commit.same_decisions(server.stream_stats(u).commit));
}

TEST(ServerCache, SharedCacheDedupsAcrossStreams) {
  if (!FingerprintCache::runtime_enabled()) GTEST_SKIP() << "cache force-disabled";
  const auto bytes =
      test::corpus_bytes(test::dedup_corpus({.blocks = 256, .seed = 82}));
  CodecServer::Config scfg;
  scfg.engine = std::make_shared<CodecEngine>(2);
  CodecServer server(scfg);
  // CacheMode::kShared wires both streams to the engine's cache.
  const StreamId a = server.open_stream(tslc_stream("tenant-a"));
  const StreamId b = server.open_stream(tslc_stream("tenant-b"));
  server.submit(a, Request{.bytes = bytes}).wait();
  server.submit(b, Request{.bytes = bytes}).wait();
  server.drain();
  const CommitStats sa = server.stream_stats(a).commit;
  const CommitStats sb = server.stream_stats(b).commit;
  EXPECT_EQ(sa.cache.probes(), sa.blocks);
  // Stream b replays stream a's traffic; with the engine-shared cache (and
  // identical codec identity: same trained model, MAG, threshold) it pays
  // zero decision probes' worth of misses.
  EXPECT_EQ(sb.cache.hits, sb.blocks);
  EXPECT_TRUE(sa.same_decisions(sb));
}

TEST(ServerCache, BypassedBlocksFoldIntoStreamStats) {
  if (!FingerprintCache::runtime_enabled()) GTEST_SKIP() << "cache force-disabled";
  // Fresh traffic switches the stream's memo off after one window; the
  // bypassed blocks reach the response and the stream's counters.
  const auto bytes = Traffic(601).take(4 * kWindow);
  CodecServer::Config scfg;
  scfg.engine = std::make_shared<CodecEngine>(2);
  CodecServer server(scfg);
  const StreamId s = server.open_stream(tslc_stream("fresh"));
  const Response r = server.submit(s, Request{.kind = RequestKind::kDecide, .bytes = bytes}).wait();
  server.drain();
  const CacheCounters& got = r.analysis.cache;
  EXPECT_GT(got.bypassed, 0u);
  EXPECT_EQ(got.probes() + got.bypassed, 4 * kWindow);
  const CommitStats commit = server.stream_stats(s).commit;
  EXPECT_EQ(commit.cache, got);
  EXPECT_EQ(server.aggregate_stats().commit.cache.bypassed, got.bypassed);
}

}  // namespace
}  // namespace slc
