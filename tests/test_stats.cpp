// Statistics helpers: geometric means drive every paper GM bar.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"

namespace slc {
namespace {

TEST(GeometricMean, KnownValues) {
  const double xs[] = {1.0, 4.0};
  EXPECT_NEAR(geometric_mean(xs), 2.0, 1e-12);
  const double ys[] = {2.0, 2.0, 2.0};
  EXPECT_NEAR(geometric_mean(ys), 2.0, 1e-12);
}

TEST(GeometricMean, EmptyIsZero) { EXPECT_EQ(geometric_mean({}), 0.0); }

TEST(GeometricMean, FlooredAtZero) {
  const double xs[] = {0.0, 1.0};
  // With the default floor the zero does not collapse the GM to 0.
  EXPECT_GT(geometric_mean(xs, 1e-6), 0.0);
  EXPECT_NEAR(geometric_mean(xs, 1e-6), std::sqrt(1e-6), 1e-9);
}

TEST(GeometricMean, LessThanArithmeticMean) {
  const double xs[] = {1.0, 2.0, 3.0, 10.0};
  EXPECT_LT(geometric_mean(xs), 4.0);
}

TEST(Histogram, CountsAndFractions) {
  Histogram h;
  h.add(0, 3);
  h.add(4);
  EXPECT_EQ(h.at(0), 3u);
  EXPECT_EQ(h.at(4), 1u);
  EXPECT_EQ(h.at(99), 0u);
  EXPECT_DOUBLE_EQ(h.fraction(0), 0.75);
  EXPECT_DOUBLE_EQ(h.fraction(99), 0.0);
}

TEST(Histogram, EmptyFractionIsZero) {
  Histogram h;
  EXPECT_EQ(h.fraction(0), 0.0);
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"A", "Bench"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("A       Bench"), std::string::npos);
  EXPECT_NE(s.find("longer  2"), std::string::npos);
}

TEST(TextTable, FmtPrecision) {
  EXPECT_EQ(TextTable::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::fmt(1.0, 0), "1");
}

// Regression: rows wider than the header used to have their extra cells
// silently dropped and their widths ignored; every cell must render, at a
// width measured over the widest row.
TEST(TextTable, RowsWiderThanHeaderRenderEveryCell) {
  TextTable t({"A"});
  t.add_row({"x", "yy"});
  t.add_row({"zzz", "w", "tail"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("yy"), std::string::npos) << s;
  EXPECT_NE(s.find("tail"), std::string::npos) << s;
  // Column 0 is sized by "zzz" (3), not by the 1-char header.
  EXPECT_NE(s.find("x    yy"), std::string::npos) << s;
  EXPECT_NE(s.find("zzz  w"), std::string::npos) << s;
}

TEST(PercentileTracker, NearestRankPercentiles) {
  PercentileTracker t;
  for (int i = 100; i >= 1; --i) t.record(i);  // unsorted insert order
  EXPECT_DOUBLE_EQ(t.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(t.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(t.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(t.percentile(0), 1.0);
}

TEST(PercentileTracker, EmptyIsZero) {
  PercentileTracker empty;
  EXPECT_EQ(empty.percentile(0), 0.0);
  EXPECT_EQ(empty.percentile(50), 0.0);
  EXPECT_EQ(empty.percentile(100), 0.0);
}

// --- LatencyHistogram ---------------------------------------------------------

/// Seeded latencies, log-uniform from 1 us to 100 ms, in whole nanoseconds.
std::vector<std::chrono::nanoseconds> latency_samples(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<std::chrono::nanoseconds> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i)
    out.emplace_back(static_cast<int64_t>(std::exp(rng.uniform(std::log(1e3), std::log(1e8)))));
  return out;
}

LatencyHistogram histogram_of(const std::vector<std::chrono::nanoseconds>& xs) {
  LatencyHistogram h;
  for (const auto x : xs) h.record(x);
  return h;
}

// Against the exact tracker over the same samples: count and max are exact,
// and every percentile is at least the exact nearest-rank sample and
// at most one bucket (a factor 2^(1/32)) above it.
TEST(LatencyHistogram, PercentilesWithinOneBucketOfExact) {
  const double bucket = std::exp2(1.0 / LatencyHistogram::kBucketsPerOctave);
  for (const size_t n : {size_t{1}, size_t{32}, size_t{99}, size_t{100}, size_t{100000}}) {
    const auto xs = latency_samples(7 + n, n);
    const LatencyHistogram h = histogram_of(xs);
    PercentileTracker exact;
    for (const auto x : xs) exact.record(static_cast<double>(x.count()) * 1e-9);
    EXPECT_EQ(h.count(), n);
    EXPECT_EQ(h.max(), static_cast<double>(std::max_element(xs.begin(), xs.end())->count()) * 1e-9)
        << n;
    for (const double p : {0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
      const double want = exact.percentile(p);
      const double got = h.percentile(p);
      EXPECT_GE(got, want) << "n " << n << " p" << p;
      EXPECT_LE(got, want * bucket * (1 + 1e-12)) << "n " << n << " p" << p;
    }
  }
}

// Below 100 samples the nearest-rank p99 is the largest sample, and the
// histogram reports it exactly (the statistic a 32-sample p99 gate reads).
TEST(LatencyHistogram, P99IsExactMaxBelowHundredSamples) {
  for (size_t n = 1; n < 100; n += 7) {
    const LatencyHistogram h = histogram_of(latency_samples(100 + n, n));
    EXPECT_EQ(h.percentile(99), h.max()) << n;
    EXPECT_EQ(h.percentile(100), h.max()) << n;
  }
}

TEST(LatencyHistogram, MergeIsAssociativeWithIdentity) {
  const LatencyHistogram a = histogram_of(latency_samples(1, 500));
  const LatencyHistogram b = histogram_of(latency_samples(2, 70));
  const LatencyHistogram c = histogram_of(latency_samples(3, 1234));
  const LatencyHistogram empty;

  LatencyHistogram ab_c = a;
  ab_c.merge(b);
  ab_c.merge(c);
  LatencyHistogram bc = b;
  bc.merge(c);
  LatencyHistogram a_bc = a;
  a_bc.merge(bc);
  EXPECT_EQ(ab_c, a_bc);

  LatencyHistogram ba = b;
  ba.merge(a);
  LatencyHistogram ab = a;
  ab.merge(b);
  EXPECT_EQ(ab, ba);

  LatencyHistogram a_empty = a;
  a_empty.merge(empty);
  LatencyHistogram empty_a = empty;
  empty_a.merge(a);
  EXPECT_EQ(a_empty, a);
  EXPECT_EQ(empty_a, a);

  // Merging equals recording the union.
  auto all = latency_samples(1, 500);
  for (const auto& more : {latency_samples(2, 70), latency_samples(3, 1234)})
    all.insert(all.end(), more.begin(), more.end());
  EXPECT_EQ(ab_c, histogram_of(all));
}

TEST(LatencyHistogram, EmptyAndOutOfRangeSamples) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(50), 0.0);
  EXPECT_EQ(h.max(), 0.0);

  h.record(std::chrono::nanoseconds(0));
  h.record(std::chrono::nanoseconds(-5));  // clamped to 0
  EXPECT_EQ(h.percentile(100), 0.0);
  const auto huge = std::chrono::hours(100);  // past the last bucket edge
  h.record(huge);
  EXPECT_DOUBLE_EQ(h.percentile(100), std::chrono::duration<double>(huge).count());
  EXPECT_LT(h.percentile(50), 1.1e-9) << "the two zeros share the first bucket";
}

// The footprint is the object itself: no heap behind it, whatever the
// sample count, so a long-running server's statistics stay bounded.
TEST(LatencyHistogram, MemoryDoesNotGrowWithSamples) {
  static_assert(std::is_trivially_copyable_v<LatencyHistogram>);
  static_assert(sizeof(LatencyHistogram) ==
                (LatencyHistogram::kBuckets + 2) * sizeof(uint64_t));
  const LatencyHistogram small = histogram_of(latency_samples(5, 10));
  const LatencyHistogram large = histogram_of(latency_samples(5, 100000));
  EXPECT_EQ(sizeof(small), sizeof(large));
  EXPECT_EQ(large.count(), 100000u);
}

}  // namespace
}  // namespace slc
