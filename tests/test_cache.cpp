// Set-associative cache model used by L1 / L2 / MDC.
#include <gtest/gtest.h>

#include <stdexcept>

#include "common/rng.h"
#include "sim/cache.h"
#include "sim_reference.h"

namespace slc {
namespace {

TEST(Cache, MissThenHit) {
  Cache c(1024, 2, 128);
  EXPECT_FALSE(c.lookup(0));
  c.fill(0, false, 4);
  EXPECT_TRUE(c.lookup(0));
}

TEST(Cache, Geometry) {
  EXPECT_EQ(Cache::sets_for(16 * 1024, 4, 128), 32u);
  // Lines 32 sets apart share a set: its four ways hold four of them, and a
  // fifth evicts the least recent.
  Cache c(16 * 1024, 4, 128);
  for (uint64_t w = 0; w < 4; ++w) EXPECT_FALSE(c.fill(w * 32 * 128, true, 1).has_value()) << w;
  const auto ev = c.fill(4 * 32 * 128, true, 1);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->addr, 0u);
}

TEST(Cache, DistinctLines) {
  Cache c(1024, 2, 128);
  c.fill(0, false, 4);
  EXPECT_FALSE(c.lookup(128));
  EXPECT_TRUE(c.lookup(0));
  // Same line, different offset bits: still a hit.
  EXPECT_TRUE(c.lookup(64));
}

TEST(Cache, LruEviction) {
  Cache c(2 * 128, 2, 128);  // 1 set, 2 ways
  c.fill(0, false, 1);
  c.fill(128, false, 1);
  c.lookup(0);               // 0 is now MRU
  c.fill(256, false, 1);     // evicts 128
  EXPECT_TRUE(c.lookup(0));
  EXPECT_FALSE(c.lookup(128));
  EXPECT_TRUE(c.lookup(256));
}

TEST(Cache, DirtyEvictionReturnsAddrAndBursts) {
  Cache c(2 * 128, 2, 128);
  c.fill(0, true, 3);
  c.fill(128, false, 1);
  const auto ev = c.fill(256, false, 1);  // must evict line 0 (LRU, dirty)
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->addr, 0u);
  EXPECT_EQ(ev->bursts, 3u);
}

TEST(Cache, CleanEvictionSilent) {
  Cache c(2 * 128, 2, 128);
  c.fill(0, false, 1);
  c.fill(128, false, 1);
  EXPECT_FALSE(c.fill(256, false, 1).has_value());
}

TEST(Cache, WriteHitMarksDirty) {
  Cache c(1024, 2, 128);
  c.fill(0, false, 4);
  EXPECT_TRUE(c.write_hit(0, 2));
  c.fill(128, false, 1);
  // Force eviction of line 0 within its set.
  const size_t sets = Cache::sets_for(1024, 2, 128);
  const auto ev = c.fill(sets * 128 * 2, false, 1);  // same set as 0
  if (ev) {
    EXPECT_EQ(ev->addr, 0u);
    EXPECT_EQ(ev->bursts, 2u);  // burst count refreshed by the store
  }
}

TEST(Cache, WriteMissReturnsFalse) {
  Cache c(1024, 2, 128);
  EXPECT_FALSE(c.write_hit(0, 1));
}

TEST(Cache, RefillResidentLineMergesDirty) {
  Cache c(1024, 2, 128);
  c.fill(0, true, 2);
  EXPECT_FALSE(c.fill(0, false, 3).has_value());  // no self-eviction
  // Dirtiness preserved: evicting later yields a writeback.
  const size_t sets = Cache::sets_for(1024, 2, 128);
  c.fill(sets * 128, false, 1);
  const auto ev = c.fill(sets * 128 * 2, false, 1);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->addr, 0u);
}

TEST(Cache, ClearInvalidatesAll) {
  Cache c(1024, 2, 128);
  c.fill(0, false, 1);
  c.clear();
  EXPECT_FALSE(c.lookup(0));
}

TEST(Cache, RejectsGeometriesItCannotModel) {
  EXPECT_THROW(Cache(1024, 2, 96), std::invalid_argument);   // line not a power of two
  EXPECT_THROW(Cache(1024, 2, 0), std::invalid_argument);
  EXPECT_THROW(Cache(1024, 2, 1), std::invalid_argument);    // a tag could be the empty sentinel
  EXPECT_THROW(Cache(1024, 0, 128), std::invalid_argument);
  EXPECT_THROW(Cache(1024, 16, 128), std::invalid_argument);  // smaller than one set
  EXPECT_EQ(Cache::sets_for(3 * 2 * 128, 2, 128), 3u);
  EXPECT_NO_THROW(Cache(3 * 2 * 128, 2, 128));
}

// Differential: Cache against the reference model it replaced, over random
// lookup / fill / write_hit sequences with a clear every 5000 operations.
// The line pool is about twice the capacity so sets fill, evict dirty and
// clean lines, and refill; a few addresses are arbitrary 64-bit values,
// including the top of the space.
TEST(CacheDifferential, MatchesReferenceOnRandomOps) {
  struct Geometry {
    size_t total_bytes;
    unsigned ways;
    size_t line_bytes;
  };
  const Geometry geometries[] = {
      {16 * 1024, 4, 128},          // L1
      {128 * 1024, 16, 128},        // L2 slice
      {256 * 64, 4, 64},            // metadata cache
      {48 * 16 * 128 + 100, 16, 128},  // 48 sets, capacity not a whole set multiple
      {3 * 2 * 128, 2, 128},        // 3 sets
      {128, 1, 128},                // one set, one way
      {7 * 5 * 2, 5, 2},            // 2 B lines, 7 sets
  };
  uint64_t seed = 1;
  for (const Geometry& g : geometries) {
    SCOPED_TRACE(::testing::Message() << g.total_bytes << " B, " << g.ways << " ways, "
                                      << g.line_bytes << " B lines");
    Cache cache(g.total_bytes, g.ways, g.line_bytes);
    test::RefCache ref(g.total_bytes, g.ways, g.line_bytes);
    ASSERT_EQ(Cache::sets_for(g.total_bytes, g.ways, g.line_bytes), ref.num_sets());
    Rng rng(seed++);
    const uint64_t pool = 2 * ref.num_sets() * g.ways + 1;
    size_t evictions = 0;
    for (int op = 0; op < 20000; ++op) {
      const uint64_t addr = rng.chance(0.02) ? (rng.chance(0.5) ? UINT64_MAX - rng.next_below(4)
                                                                : rng.next())
                                             : rng.next_below(pool) * g.line_bytes +
                                                   rng.next_below(g.line_bytes);
      if (op % 5000 == 4999) {
        cache.clear();
        ref.clear();
        continue;
      }
      const uint64_t kind = rng.next_below(100);
      if (kind < 40) {
        ASSERT_EQ(cache.lookup(addr), ref.lookup(addr)) << "op " << op;
      } else if (kind < 75) {
        const bool dirty = rng.chance(0.5);
        const auto bursts = static_cast<uint32_t>(rng.next_below(9));
        const auto got = cache.fill(addr, dirty, bursts);
        const auto want = ref.fill(addr, dirty, bursts);
        ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
        if (got) {
          ++evictions;
          ASSERT_EQ(got->addr, want->addr) << "op " << op;
          ASSERT_EQ(got->bursts, want->bursts) << "op " << op;
        }
      } else {
        const auto bursts = static_cast<uint32_t>(rng.next_below(9));
        ASSERT_EQ(cache.write_hit(addr, bursts), ref.write_hit(addr, bursts)) << "op " << op;
      }
    }
    EXPECT_GT(evictions, 0u);
  }
}

}  // namespace
}  // namespace slc
