// Small statistics helpers used by benches and the simulator: geometric
// means (the paper reports GM everywhere), histogram utilities for the
// Fig. 2 block-size distribution, and latency percentiles.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace slc {

/// Geometric mean of a sequence of positive values. Values <= 0 are clamped
/// to `floor` first (the paper's error plots are log-scale, so zero errors
/// need a floor to be averageable).
double geometric_mean(std::span<const double> xs, double floor = 1e-300);

/// One block's outcome at the block-fingerprint decision memo
/// (core/fingerprint_cache.h), as SlcCodec::decide_batch reports it and
/// BlockAnalysis / BlockCodecResult carry it. All false when the codec has
/// no memo or SLC_FINGERPRINT_CACHE disables it. A block is either probed
/// or bypassed, never both.
struct CacheOutcome {
  bool probed = false;     ///< the memo was consulted
  bool hit = false;        ///< decision served from the memo (or an in-chunk twin)
  bool evicted = false;    ///< the insert replaced the least recent way of a full set
  bool collision = false;  ///< verify-on-hit content mismatch (fingerprint collision)
  bool bypassed = false;   ///< the codec's memo governor decided it without the memo
};

/// Outcome counters for the block-fingerprint decision memo
/// (core/fingerprint_cache.h), embedded in CommitStats and the per-stream
/// server tables. Unlike every other commit counter these are NOT
/// thread-count invariant: whether block i hits depends on whether a
/// concurrent shard already inserted its duplicate, and whether it is
/// bypassed on the hit rate the governor saw. The *decisions* stay
/// invariant either way (a hit returns exactly the decision the miss path
/// would compute), so determinism checks compare
/// CommitStats::same_decisions(), never these counters.
struct CacheCounters {
  uint64_t hits = 0;        ///< decision served from the memo (probe skipped)
  uint64_t misses = 0;      ///< decision computed (and inserted)
  uint64_t evictions = 0;   ///< least recent ways of full sets replaced by inserts
  uint64_t collisions = 0;  ///< verify-on-hit content mismatches (fingerprint collision)
  uint64_t bypassed = 0;    ///< decided without the memo: neither a hit nor a miss

  /// Folds one block's outcome in.
  void record(const CacheOutcome& o) {
    if (o.probed) {
      hits += o.hit ? 1 : 0;
      misses += o.hit ? 0 : 1;
    }
    evictions += o.evicted ? 1 : 0;
    collisions += o.collision ? 1 : 0;
    bypassed += o.bypassed ? 1 : 0;
  }

  void merge(const CacheCounters& o) {
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    collisions += o.collisions;
    bypassed += o.bypassed;
  }

  uint64_t probes() const { return hits + misses; }
  /// Hits over probed blocks; bypassed blocks do not count.
  double hit_rate() const {
    return probes() ? static_cast<double>(hits) / static_cast<double>(probes()) : 0.0;
  }
  /// Bypassed blocks over every block a memo-backed codec decided.
  double bypass_rate() const {
    const uint64_t all = probes() + bypassed;
    return all ? static_cast<double>(bypassed) / static_cast<double>(all) : 0.0;
  }

  bool operator==(const CacheCounters&) const = default;
};

/// Integer histogram keyed by bucket value.
class Histogram {
 public:
  void add(int64_t bucket, uint64_t weight = 1);
  uint64_t at(int64_t bucket) const;
  double fraction(int64_t bucket) const;
  const std::map<int64_t, uint64_t>& buckets() const { return counts_; }

 private:
  std::map<int64_t, uint64_t> counts_;
  uint64_t total_ = 0;
};

/// Collects raw samples and answers percentile queries (nearest-rank) — the
/// exact timings of the bench drivers. Samples are kept verbatim, so memory
/// grows with the sample count. Const queries are genuinely read-only
/// (percentile() selects on a scratch copy), so concurrent readers need no
/// external lock.
class PercentileTracker {
 public:
  void record(double x);
  /// Nearest-rank percentile, `p` in [0, 100]. Returns 0 when empty.
  double percentile(double p) const;

 private:
  std::vector<double> samples_;
};

/// Fixed-bucket log-scale histogram of durations: the CodecServer's
/// per-stream request latencies. Its memory is fixed (no heap), so a
/// long-running server's statistics do not grow with the requests served.
/// Bucket i holds [2^(i/32), 2^((i+1)/32)) ns, 32 per octave from 1 ns to
/// 2^42 ns (about 73 min); shorter samples fall in the first bucket and
/// longer ones in the last.
///
/// count() and max() are exact: samples are whole nanoseconds. percentile()
/// returns min(max(), upper edge of the bucket holding the nearest-rank
/// sample): never below the exact nearest-rank value and at most one bucket
/// (a factor 2^(1/32), 2.2%) above it, so a p99 over fewer than 100 samples
/// is the exact maximum.
/// merge() adds integers, so it is associative and commutative, and an empty
/// histogram is its identity.
class LatencyHistogram {
 public:
  static constexpr size_t kBucketsPerOctave = 32;
  static constexpr size_t kOctaves = 42;
  static constexpr size_t kBuckets = kBucketsPerOctave * kOctaves;

  void record(std::chrono::nanoseconds d);
  void merge(const LatencyHistogram& other);

  uint64_t count() const { return count_; }
  double max() const;  ///< seconds; 0 when empty
  /// Nearest-rank percentile in seconds, `p` in [0, 100]. Returns 0 when
  /// empty.
  double percentile(double p) const;

  bool operator==(const LatencyHistogram&) const = default;

 private:
  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
  uint64_t max_ns_ = 0;
};

/// Fixed-width text table printer for bench output (keeps every bench's
/// stdout aligned and diff-able).
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);
  void add_row(std::vector<std::string> cells);
  std::string to_string() const;

  /// Formats a double with `prec` digits after the decimal point.
  static std::string fmt(double v, int prec = 3);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace slc
