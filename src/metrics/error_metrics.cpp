#include "metrics/error_metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace slc {

namespace {

/// Every metric compares element i of both spans, so a size mismatch is a
/// caller bug: reject it before reading anything.
void require_same_size(size_t golden, size_t approx, const char* who) {
  if (golden != approx)
    throw std::invalid_argument(std::string(who) + ": golden has " + std::to_string(golden) +
                                " elements, approx has " + std::to_string(approx));
}

}  // namespace

double mean_relative_error_pct(std::span<const float> golden, std::span<const float> approx,
                               double eps) {
  require_same_size(golden.size(), approx.size(), "mean_relative_error_pct");
  if (golden.empty()) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < golden.size(); ++i) {
    const double g = golden[i];
    const double a = approx[i];
    // AxBench convention: a NaN/Inf output counts as full (100%) error for
    // that element, and per-element error saturates at 100% so single
    // outliers cannot dominate the mean.
    double err;
    if (!std::isfinite(a)) {
      err = 1.0;
    } else {
      const double denom = std::max(std::abs(g), eps);
      err = std::min(std::abs(g - a) / denom, 1.0);
    }
    sum += err;
  }
  return sum / static_cast<double>(golden.size()) * 100.0;
}

double rmse(std::span<const float> golden, std::span<const float> approx) {
  require_same_size(golden.size(), approx.size(), "rmse");
  if (golden.empty()) return 0.0;
  double sq = 0.0;
  for (size_t i = 0; i < golden.size(); ++i) {
    // Non-finite outputs count as if the element were lost entirely (a=0),
    // mirroring the MRE convention.
    const double a = std::isfinite(approx[i]) ? static_cast<double>(approx[i]) : 0.0;
    const double d = static_cast<double>(golden[i]) - a;
    sq += d * d;
  }
  return std::sqrt(sq / static_cast<double>(golden.size()));
}

double nrmse_pct(std::span<const float> golden, std::span<const float> approx) {
  require_same_size(golden.size(), approx.size(), "nrmse_pct");
  if (golden.empty()) return 0.0;
  const auto [mn, mx] = std::minmax_element(golden.begin(), golden.end());
  const double range = static_cast<double>(*mx) - static_cast<double>(*mn);
  if (range <= 0.0) return rmse(golden, approx) == 0.0 ? 0.0 : 100.0;
  // Per-element deviation saturates at the golden range (a NaN/Inf pixel is
  // a 100% miss, not an unbounded one).
  double sq = 0.0;
  for (size_t i = 0; i < golden.size(); ++i) {
    double d;
    if (!std::isfinite(approx[i])) {
      d = range;
    } else {
      d = std::min(std::abs(static_cast<double>(golden[i]) -
                            static_cast<double>(approx[i])),
                   range);
    }
    sq += d * d;
  }
  const double r = std::sqrt(sq / static_cast<double>(golden.size()));
  return r / range * 100.0;
}

double image_diff_pct(std::span<const float> golden, std::span<const float> approx) {
  return nrmse_pct(golden, approx);
}

double miss_rate_pct(std::span<const uint8_t> golden, std::span<const uint8_t> approx) {
  require_same_size(golden.size(), approx.size(), "miss_rate_pct");
  if (golden.empty()) return 0.0;
  size_t miss = 0;
  for (size_t i = 0; i < golden.size(); ++i)
    if ((golden[i] != 0) != (approx[i] != 0)) ++miss;
  return static_cast<double>(miss) / static_cast<double>(golden.size()) * 100.0;
}

const char* to_string(ErrorMetric m) {
  switch (m) {
    case ErrorMetric::kMissRate: return "Miss rate";
    case ErrorMetric::kMre: return "MRE";
    case ErrorMetric::kImageDiff: return "Image diff";
    case ErrorMetric::kNrmse: return "NRMSE";
  }
  return "?";
}

}  // namespace slc
