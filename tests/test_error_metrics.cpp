// Error metrics from Table III.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "metrics/error_metrics.h"

namespace slc {
namespace {

TEST(Mre, IdenticalIsZero) {
  const float a[] = {1.0f, 2.0f, 3.0f};
  EXPECT_DOUBLE_EQ(mean_relative_error_pct(a, a), 0.0);
}

TEST(Mre, KnownValue) {
  const float g[] = {10.0f, 20.0f};
  const float x[] = {11.0f, 18.0f};
  // (0.1 + 0.1) / 2 = 10%
  EXPECT_NEAR(mean_relative_error_pct(g, x), 10.0, 1e-9);
}

TEST(Mre, ZeroGoldenGuarded) {
  const float g[] = {0.0f};
  const float x[] = {1e-7f};
  // Division guarded by eps: finite result.
  const double e = mean_relative_error_pct(g, x);
  EXPECT_GT(e, 0.0);
  EXPECT_LT(e, 100.0);
}

TEST(Mre, EmptyIsZero) { EXPECT_EQ(mean_relative_error_pct({}, {}), 0.0); }

TEST(Rmse, KnownValue) {
  const float g[] = {0.0f, 0.0f};
  const float x[] = {3.0f, 4.0f};
  EXPECT_NEAR(rmse(g, x), std::sqrt(12.5), 1e-9);
}

TEST(Nrmse, NormalizedByRange) {
  const float g[] = {0.0f, 10.0f};
  const float x[] = {1.0f, 9.0f};
  // rmse = 1, range = 10 -> 10%
  EXPECT_NEAR(nrmse_pct(g, x), 10.0, 1e-9);
}

TEST(Nrmse, ConstantGoldenEdgeCases) {
  const float g[] = {5.0f, 5.0f};
  const float same[] = {5.0f, 5.0f};
  const float diff[] = {5.0f, 6.0f};
  EXPECT_EQ(nrmse_pct(g, same), 0.0);
  EXPECT_EQ(nrmse_pct(g, diff), 100.0);  // undefined range convention
}

TEST(ImageDiff, MatchesNrmse) {
  const float g[] = {0.0f, 255.0f, 128.0f};
  const float x[] = {2.0f, 250.0f, 127.0f};
  EXPECT_DOUBLE_EQ(image_diff_pct(g, x), nrmse_pct(g, x));
}

TEST(MissRate, CountsFlips) {
  const uint8_t g[] = {1, 0, 1, 1};
  const uint8_t x[] = {1, 1, 1, 0};
  EXPECT_NEAR(miss_rate_pct(g, x), 50.0, 1e-9);
}

TEST(MissRate, NonzeroTreatedAsTrue) {
  const uint8_t g[] = {2, 0};
  const uint8_t x[] = {1, 0};
  EXPECT_EQ(miss_rate_pct(g, x), 0.0);
}

// --- size mismatches -----------------------------------------------------------
// Every metric compares element i of both spans, so a shorter span is a
// caller bug: each rejects it, in either direction, before reading anything.

const std::vector<float> kGolden64(64, 1.0f);
const std::vector<float> kApprox16(16, 1.0f);

TEST(Mre, SizeMismatchThrows) {
  EXPECT_THROW(mean_relative_error_pct(kGolden64, kApprox16), std::invalid_argument);
  EXPECT_THROW(mean_relative_error_pct(kApprox16, kGolden64), std::invalid_argument);
}

TEST(Rmse, SizeMismatchThrows) {
  EXPECT_THROW(rmse(kGolden64, kApprox16), std::invalid_argument);
  EXPECT_THROW(rmse(kApprox16, kGolden64), std::invalid_argument);
}

TEST(Nrmse, SizeMismatchThrows) {
  EXPECT_THROW(nrmse_pct(kGolden64, kApprox16), std::invalid_argument);
  EXPECT_THROW(nrmse_pct(kApprox16, kGolden64), std::invalid_argument);
  EXPECT_THROW(nrmse_pct({}, kApprox16), std::invalid_argument);
}

TEST(ImageDiff, SizeMismatchThrows) {
  EXPECT_THROW(image_diff_pct(kGolden64, kApprox16), std::invalid_argument);
  EXPECT_THROW(image_diff_pct(kApprox16, kGolden64), std::invalid_argument);
}

TEST(MissRate, SizeMismatchThrows) {
  const std::vector<uint8_t> golden(64, 1), approx(16, 1);
  EXPECT_THROW(miss_rate_pct(golden, approx), std::invalid_argument);
  EXPECT_THROW(miss_rate_pct(approx, golden), std::invalid_argument);
}

TEST(MetricNames, ToString) {
  EXPECT_STREQ(to_string(ErrorMetric::kMissRate), "Miss rate");
  EXPECT_STREQ(to_string(ErrorMetric::kMre), "MRE");
  EXPECT_STREQ(to_string(ErrorMetric::kImageDiff), "Image diff");
  EXPECT_STREQ(to_string(ErrorMetric::kNrmse), "NRMSE");
}

}  // namespace
}  // namespace slc
