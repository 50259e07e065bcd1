// SRAD1 / SRAD2 — speckle-reducing anisotropic diffusion (Rodinia srad_v1
// and srad_v2).
//
// Table III: 1024x1024 image, image-diff metric, 8 (SRAD1) and 6 (SRAD2)
// approximated regions. Both variants run the same Yu-Acton SRAD update:
//   kernel 1: directional derivatives dN/dS/dW/dE, instantaneous coefficient
//             of variation q^2, diffusion coefficient c (clamped to [0,1])
//   kernel 2: divergence of c * grad(J); J += lambda/4 * div
// srad_v1 additionally stages the image through log-compress / expand
// kernels and a two-array ROI statistics reduction (its extra safe regions);
// srad_v2 keeps everything in the five main arrays plus the coefficient
// array.
#include <algorithm>
#include <cmath>

#include "workloads/data_gen.h"
#include "workloads/workload_factories.h"

namespace slc {

namespace {

constexpr float kLambda = 0.5f;
// Two diffusion iterations: the standard setting in GPU approximation
// studies (each iteration re-commits all six arrays, so error compounds
// linearly in the iteration count).
constexpr int kIterations = 2;

/// Shared SRAD core. `variant1` adds the extract/compress staging kernels
/// and the reduction arrays that distinguish srad_v1.
class SradWorkload final : public Workload {
 public:
  SradWorkload(WorkloadScale scale, bool variant1) : Workload(scale), v1_(variant1) {}

  std::string name() const override { return v1_ ? "SRAD1" : "SRAD2"; }
  std::string description() const override {
    return v1_ ? "Anisotropic diffusion (srad_v1)" : "Anisotropic diffusion (srad_v2)";
  }
  ErrorMetric metric() const override { return ErrorMetric::kImageDiff; }

  void init(ApproxMemory& mem) override {
    dim_ = scaled(512, 64);
    const size_t bytes = dim_ * dim_ * sizeof(float);

    j_ = mem.alloc("J", bytes, /*safe=*/true);
    dn_ = mem.alloc("dN", bytes, /*safe=*/true);
    ds_ = mem.alloc("dS", bytes, /*safe=*/true);
    dw_ = mem.alloc("dW", bytes, /*safe=*/true);
    de_ = mem.alloc("dE", bytes, /*safe=*/true);
    c_ = mem.alloc("C", bytes, /*safe=*/true);
    if (v1_) {
      // srad_v1's ROI statistics partial-sum arrays (#AR = 8 total).
      sums_ = mem.alloc("sums", bytes, /*safe=*/true);
      sums2_ = mem.alloc("sums2", bytes, /*safe=*/true);
    }

    const auto codes = input_codes(name(), scale_, [this] {
      return make_speckle_codes(dim_, dim_, v1_ ? 0x535231ull : 0x535232ull);
    });
    const auto jj = mem.span<float>(j_).first(codes.size());
    decode_speckle_codes(codes, jj);
    for (float& p : jj) p = std::exp(p / 255.0f);  // Rodinia's input scaling
  }

  void run(ApproxMemory& mem) override {
    auto J = mem.span<float>(j_);
    auto dN = mem.span<float>(dn_);
    auto dS = mem.span<float>(ds_);
    auto dW = mem.span<float>(dw_);
    auto dE = mem.span<float>(de_);
    auto C = mem.span<float>(c_);
    const size_t d = dim_;

    for (int it = 0; it < kIterations; ++it) {
      // The previous iteration's commit_async(j_) may still be in flight;
      // re-acquiring the span settles it before J is read again.
      J = mem.span<float>(j_);
      // ROI statistics (srad_v1 materializes the partial sums in DRAM).
      double sum = 0.0, sum2 = 0.0;
      if (v1_) {
        mem.begin_kernel("srad_reduce", /*compute_per_access=*/0.7, /*accesses_per_cta=*/3);
        const RegionId reads[] = {j_};
        const RegionId writes[] = {sums_, sums2_};
        mem.trace_zip(reads, writes);
        auto s1 = mem.span<float>(sums_);
        auto s2 = mem.span<float>(sums2_);
        for (size_t i = 0; i < d * d; ++i) {
          s1[i] = J[i];
          s2[i] = J[i] * J[i];
        }
        mem.commit_async(sums_);
        mem.commit_async(sums2_);
        // The host reduction reads the *committed* (possibly approximated)
        // partial sums — re-acquire to settle both in-flight commits.
        const auto s1c = mem.span<const float>(sums_);
        const auto s2c = mem.span<const float>(sums2_);
        for (size_t i = 0; i < d * d; ++i) {
          sum += s1c[i];
          sum2 += s2c[i];
        }
      } else {
        for (size_t i = 0; i < d * d; ++i) {
          sum += J[i];
          sum2 += J[i] * J[i];
        }
      }
      const double mean = sum / static_cast<double>(d * d);
      const double var = sum2 / static_cast<double>(d * d) - mean * mean;
      const float q0sqr = static_cast<float>(var / (mean * mean));

      // Kernel 1: gradients + diffusion coefficient.
      mem.begin_kernel(v1_ ? "srad" : "srad_cuda_1", /*compute_per_access=*/0.8,
                       /*accesses_per_cta=*/6);
      {
        const RegionId reads[] = {j_};
        const RegionId writes[] = {dn_, ds_, dw_, de_, c_};
        mem.trace_zip(reads, writes);
      }
      for (size_t y = 0; y < d; ++y) {
        const size_t yn = y == 0 ? 0 : y - 1;
        const size_t ys = y == d - 1 ? d - 1 : y + 1;
        for (size_t x = 0; x < d; ++x) {
          const size_t xw = x == 0 ? 0 : x - 1;
          const size_t xe = x == d - 1 ? d - 1 : x + 1;
          const size_t i = y * d + x;
          const float jc = J[i];
          dN[i] = J[yn * d + x] - jc;
          dS[i] = J[ys * d + x] - jc;
          dW[i] = J[y * d + xw] - jc;
          dE[i] = J[y * d + xe] - jc;
          // The coefficient pipeline runs in double: with approximated J a
          // float intermediate can overflow to inf (1/jc^2 for a denormal
          // jc) and poison the image with NaNs; double keeps it finite and
          // the clamp below recovers, matching the bounded SRAD errors the
          // paper reports.
          const double jcd = jc;
          const double g2 = (static_cast<double>(dN[i]) * dN[i] +
                             static_cast<double>(dS[i]) * dS[i] +
                             static_cast<double>(dW[i]) * dW[i] +
                             static_cast<double>(dE[i]) * dE[i]) /
                            (jcd * jcd);
          const double l =
              (static_cast<double>(dN[i]) + dS[i] + dW[i] + dE[i]) / jcd;
          const double num = 0.5 * g2 - (1.0 / 16.0) * l * l;
          const double den1 = 1.0 + 0.25 * l;
          const double qsqr = num / (den1 * den1);
          const double den2 =
              (qsqr - q0sqr) / (static_cast<double>(q0sqr) * (1.0 + q0sqr));
          const double c = 1.0 / (1.0 + den2);
          C[i] = std::isfinite(c) ? static_cast<float>(std::clamp(c, 0.0, 1.0)) : 0.0f;
        }
      }
      // All five commits queue back-to-back on the engine and overlap the
      // next kernel's trace capture; trace_zip settles each region before
      // recording its bursts, so kernel 2's compute reads committed data.
      mem.commit_async(dn_);
      mem.commit_async(ds_);
      mem.commit_async(dw_);
      mem.commit_async(de_);
      mem.commit_async(c_);

      // Kernel 2: divergence + image update.
      mem.begin_kernel(v1_ ? "srad2" : "srad_cuda_2", /*compute_per_access=*/0.8,
                       /*accesses_per_cta=*/7);
      {
        const RegionId reads[] = {dn_, ds_, dw_, de_, c_};
        const RegionId writes[] = {j_};
        mem.trace_zip(reads, writes);
      }
      for (size_t y = 0; y < d; ++y) {
        const size_t ys = y == d - 1 ? d - 1 : y + 1;
        for (size_t x = 0; x < d; ++x) {
          const size_t xe = x == d - 1 ? d - 1 : x + 1;
          const size_t i = y * d + x;
          const float cn = C[i];
          const float cs = C[ys * d + x];
          const float cw = C[i];
          const float ce = C[y * d + xe];
          const float div = cn * dN[i] + cs * dS[i] + cw * dW[i] + ce * dE[i];
          J[i] += 0.25f * kLambda * div;
        }
      }
      // Settled at the top of the next iteration (or by the harness flush).
      mem.commit_async(j_);
    }
  }

  std::vector<float> output(const ApproxMemory& mem) const override {
    const auto jj = mem.span<const float>(j_);
    return std::vector<float>(jj.begin(), jj.begin() + static_cast<long>(dim_ * dim_));
  }

 private:
  bool v1_;
  size_t dim_ = 0;
  RegionId j_ = 0, dn_ = 0, ds_ = 0, dw_ = 0, de_ = 0, c_ = 0, sums_ = 0, sums2_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_srad1(WorkloadScale scale) {
  return std::make_unique<SradWorkload>(scale, /*variant1=*/true);
}

std::unique_ptr<Workload> make_srad2(WorkloadScale scale) {
  return std::make_unique<SradWorkload>(scale, /*variant1=*/false);
}

}  // namespace slc
