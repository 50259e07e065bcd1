// Application error metrics used in the paper's evaluation (Table III):
// mean relative error (MRE) for numeric outputs, normalized root-mean-square
// error (NRMSE) for signal-processing outputs, image diff for image outputs,
// and miss rate for boolean decisions (JM). All return percentages to match
// Fig. 7b / Fig. 9b. Every metric throws std::invalid_argument when the
// golden and approx spans differ in size.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace slc {

/// Mean relative error in percent: mean(min(|g-a| / max(|g|, eps), 1)) * 100.
/// `eps` guards divisions by (near-)zero golden values; per-element error
/// saturates at 100% and NaN/Inf outputs count as 100% — the AxBench
/// conventions for approximate-computing error reporting.
double mean_relative_error_pct(std::span<const float> golden, std::span<const float> approx,
                               double eps = 1e-6);

/// NRMSE in percent: RMSE normalized by the golden value range (max-min).
/// Per-element deviations saturate at the range; NaN/Inf outputs count as a
/// full-range miss.
double nrmse_pct(std::span<const float> golden, std::span<const float> approx);

/// Root-mean-square error (unnormalized). NaN/Inf outputs are treated as 0.
double rmse(std::span<const float> golden, std::span<const float> approx);

/// Image diff in percent — NRMSE over pixel intensities, the standard
/// AxBench image metric. Images are float intensity buffers.
double image_diff_pct(std::span<const float> golden, std::span<const float> approx);

/// Miss rate in percent for boolean decisions (JM's triangle intersections):
/// fraction of outputs that flipped.
double miss_rate_pct(std::span<const uint8_t> golden, std::span<const uint8_t> approx);

/// Error metric kinds from Table III.
enum class ErrorMetric : uint8_t { kMissRate, kMre, kImageDiff, kNrmse };

const char* to_string(ErrorMetric m);

}  // namespace slc
