// DCT — 8x8 block discrete cosine transform (CUDA SDK DCT8x8).
//
// Table III: 1024x1024 image, image-diff metric, 2 approximated regions
// (input image and coefficient output).
#include <array>
#include <cmath>
#include <numbers>

#include "workloads/data_gen.h"
#include "workloads/workload_factories.h"

namespace slc {

namespace {

constexpr size_t kTile = 8;

// 8x8 DCT-II basis matrix, computed once.
std::array<float, kTile * kTile> dct_basis() {
  std::array<float, kTile * kTile> a{};
  for (size_t k = 0; k < kTile; ++k) {
    const double scale = k == 0 ? std::sqrt(1.0 / kTile) : std::sqrt(2.0 / kTile);
    for (size_t n = 0; n < kTile; ++n) {
      a[k * kTile + n] = static_cast<float>(
          scale * std::cos(std::numbers::pi * (static_cast<double>(n) + 0.5) *
                           static_cast<double>(k) / kTile));
    }
  }
  return a;
}

class DctWorkload final : public Workload {
 public:
  explicit DctWorkload(WorkloadScale scale) : Workload(scale) {}

  std::string name() const override { return "DCT"; }
  std::string description() const override { return "8x8 block discrete cosine transform"; }
  ErrorMetric metric() const override { return ErrorMetric::kImageDiff; }

  void init(ApproxMemory& mem) override {
    dim_ = scaled(512, 64);
    const size_t bytes = dim_ * dim_ * sizeof(float);
    src_ = mem.alloc("srcImage", bytes, /*safe=*/true);
    dst_ = mem.alloc("dctCoeffs", bytes, /*safe=*/true);
    // 12-bit capture: the SDK's DCT example runs on high-precision sensor
    // images; the extra grey levels spread block entropy the way the
    // paper's Fig. 2 distribution for DCT shows.
    constexpr unsigned kBitDepth = 12;
    const auto codes = input_codes(name(), scale_, [this] {
      return make_smooth_codes(dim_, dim_, /*seed=*/0x4443545F534Cull, kBitDepth);
    });
    decode_smooth_codes(codes, kBitDepth, mem.span<float>(src_));
  }

  void run(ApproxMemory& mem) override {
    mem.begin_kernel("CUDAkernel1DCT", /*compute_per_access=*/0.8, /*accesses_per_cta=*/2);
    const RegionId reads[] = {src_};
    const RegionId writes[] = {dst_};
    mem.trace_zip(reads, writes);

    static const auto kA = dct_basis();
    const auto in = mem.span<const float>(src_);
    auto out = mem.span<float>(dst_);
    std::array<float, kTile * kTile> tile{}, tmp{};
    for (size_t by = 0; by < dim_; by += kTile) {
      for (size_t bx = 0; bx < dim_; bx += kTile) {
        for (size_t y = 0; y < kTile; ++y)
          for (size_t x = 0; x < kTile; ++x) tile[y * kTile + x] = in[(by + y) * dim_ + bx + x];
        // tmp = A * tile
        for (size_t i = 0; i < kTile; ++i)
          for (size_t j = 0; j < kTile; ++j) {
            float acc = 0;
            for (size_t k = 0; k < kTile; ++k) acc += kA[i * kTile + k] * tile[k * kTile + j];
            tmp[i * kTile + j] = acc;
          }
        // out = tmp * A^T
        for (size_t i = 0; i < kTile; ++i)
          for (size_t j = 0; j < kTile; ++j) {
            float acc = 0;
            for (size_t k = 0; k < kTile; ++k) acc += tmp[i * kTile + k] * kA[j * kTile + k];
            out[(by + i) * dim_ + bx + j] = acc;
          }
      }
    }
    mem.commit_async(dst_);
  }

  std::vector<float> output(const ApproxMemory& mem) const override {
    const auto c = mem.span<const float>(dst_);
    return std::vector<float>(c.begin(), c.begin() + static_cast<long>(dim_ * dim_));
  }

 private:
  size_t dim_ = 0;
  RegionId src_ = 0, dst_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_dct(WorkloadScale scale) {
  return std::make_unique<DctWorkload>(scale);
}

}  // namespace slc
