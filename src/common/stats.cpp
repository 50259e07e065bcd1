#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace slc {

double geometric_mean(std::span<const double> xs, double floor) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : xs) log_sum += std::log(std::max(x, floor));
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

void Histogram::add(int64_t bucket, uint64_t weight) {
  counts_[bucket] += weight;
  total_ += weight;
}

uint64_t Histogram::at(int64_t bucket) const {
  auto it = counts_.find(bucket);
  return it == counts_.end() ? 0 : it->second;
}

double Histogram::fraction(int64_t bucket) const {
  return total_ ? static_cast<double>(at(bucket)) / static_cast<double>(total_) : 0.0;
}

void PercentileTracker::record(double x) { samples_.push_back(x); }

double PercentileTracker::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  const double clamped = std::min(std::max(p, 0.0), 100.0);
  // Nearest rank: the smallest sample with at least p% of samples <= it.
  const auto n = static_cast<double>(samples_.size());
  size_t rank = static_cast<size_t>(std::ceil(clamped / 100.0 * n));
  if (rank == 0) rank = 1;
  const size_t idx = std::min(rank, samples_.size()) - 1;
  // Select on a scratch copy: const stays read-only, so concurrent
  // percentile() calls on a shared tracker are safe.
  std::vector<double> scratch(samples_);
  std::nth_element(scratch.begin(), scratch.begin() + static_cast<ptrdiff_t>(idx), scratch.end());
  return scratch[idx];
}

namespace {

/// Bucket edges in nanoseconds: edge i = 2^(i / kBucketsPerOctave). Both
/// record() and percentile() read this one table, so a sample always lies
/// inside the bucket whose upper edge percentile() reports.
const std::array<double, LatencyHistogram::kBuckets + 1>& latency_edges() {
  static const auto edges = [] {
    std::array<double, LatencyHistogram::kBuckets + 1> e{};
    for (size_t i = 0; i < e.size(); ++i)
      e[i] = std::exp2(static_cast<double>(i) /
                       static_cast<double>(LatencyHistogram::kBucketsPerOctave));
    return e;
  }();
  return edges;
}

}  // namespace

void LatencyHistogram::record(std::chrono::nanoseconds d) {
  const uint64_t ns = d.count() > 0 ? static_cast<uint64_t>(d.count()) : 0;
  const auto& edges = latency_edges();
  const auto above = std::upper_bound(edges.begin(), edges.end(), static_cast<double>(ns));
  // Below edge 0 (1 ns) is bucket 0; past the last edge is the last bucket.
  const auto bucket = std::clamp<ptrdiff_t>(above - edges.begin() - 1, 0,
                                            static_cast<ptrdiff_t>(kBuckets) - 1);
  counts_[static_cast<size_t>(bucket)] += 1;
  count_ += 1;
  max_ns_ = std::max(max_ns_, ns);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  max_ns_ = std::max(max_ns_, other.max_ns_);
}

double LatencyHistogram::max() const { return static_cast<double>(max_ns_) * 1e-9; }

double LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double clamped = std::min(std::max(p, 0.0), 100.0);
  // Nearest rank, as PercentileTracker::percentile.
  auto rank = static_cast<uint64_t>(std::ceil(clamped / 100.0 * static_cast<double>(count_)));
  rank = std::clamp<uint64_t>(rank, 1, count_);
  uint64_t seen = 0;
  size_t bucket = 0;
  while (seen + counts_[bucket] < rank) seen += counts_[bucket++];
  // The last bucket is open-ended: only max() bounds it.
  const double upper_ns = bucket + 1 < kBuckets ? latency_edges()[bucket + 1] : INFINITY;
  return std::min(static_cast<double>(max_ns_), upper_ns) * 1e-9;
}

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

std::string TextTable::fmt(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

std::string TextTable::to_string() const {
  // Width array spans the widest row, not just the header: a row with more
  // cells than the header still renders every cell at its measured width.
  size_t n_cols = header_.size();
  for (const auto& row : rows_) n_cols = std::max(n_cols, row.size());
  std::vector<size_t> width(n_cols, 0);
  for (size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (size_t c = 0; c < row.size(); ++c) width[c] = std::max(width[c], row[c].size());

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < width.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      os << (c == 0 ? "" : "  ");
      os << cell << std::string(width[c] - cell.size(), ' ');
    }
    os << '\n';
  };
  emit_row(header_);
  size_t total = 0;
  for (size_t c = 0; c < width.size(); ++c) total += width[c] + (c ? 2 : 0);
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

}  // namespace slc
