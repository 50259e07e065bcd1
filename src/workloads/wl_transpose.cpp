// TP — matrix transpose (CUDA SDK transpose).
//
// Table III: 1024x1024 matrix, NRMSE metric, 2 approximated regions (input
// and output matrices). Error can only come from the memory approximation
// itself — the kernel just moves data — which is why the paper's TP error is
// tiny (0.05%).
#include <cmath>

#include "workloads/data_gen.h"
#include "workloads/workload_factories.h"

namespace slc {

namespace {

class TransposeWorkload final : public Workload {
 public:
  explicit TransposeWorkload(WorkloadScale scale) : Workload(scale) {}

  std::string name() const override { return "TP"; }
  std::string description() const override { return "Matrix transpose"; }
  ErrorMetric metric() const override { return ErrorMetric::kNrmse; }

  void init(ApproxMemory& mem) override {
    dim_ = scaled(512, 64);
    const size_t bytes = dim_ * dim_ * sizeof(float);
    in_ = mem.alloc("idata", bytes, /*safe=*/true);
    out_ = mem.alloc("odata", bytes, /*safe=*/true);
    // A 12-bit sensor field: transpose inputs in the paper come from numeric
    // pipelines (sensor grids, matrices exported at fixed precision), not
    // white noise. The textured-image generator supplies the moderate, mixed
    // compressibility Sec. V-C describes for TP (most blocks above 64 B).
    constexpr unsigned kBitDepth = 12;
    const auto codes = input_codes(name(), scale_, [this] {
      return make_smooth_codes(dim_, dim_, /*seed=*/0x54505F534C43ull, kBitDepth);
    });
    decode_smooth_codes(codes, kBitDepth, mem.span<float>(in_));
  }

  void run(ApproxMemory& mem) override {
    mem.begin_kernel("transposeCoalesced", /*compute_per_access=*/0.8, /*accesses_per_cta=*/2);
    // Tiled transpose: reads stream row-major; writes land column-major.
    // At block granularity: read block i sequentially, write blocks in
    // transposed-tile order.
    const size_t blocks_per_row = dim_ * sizeof(float) / kBlockBytes;  // 32 floats/block
    const size_t n_blocks = mem.region_blocks(in_);
    for (size_t b = 0; b < n_blocks; ++b) {
      mem.trace_block(in_, b, false);
      // The write block this tile lands in: swap (row, col-block) roles.
      const size_t row = b / blocks_per_row;
      const size_t colb = b % blocks_per_row;
      const size_t wrow = (colb * 32) % dim_;  // first row of the transposed tile
      const size_t wb = (wrow * blocks_per_row + row / (kBlockBytes / sizeof(float))) % n_blocks;
      mem.trace_block(out_, wb, true);
    }

    const auto in = mem.span<const float>(in_);
    auto out = mem.span<float>(out_);
    for (size_t y = 0; y < dim_; ++y)
      for (size_t x = 0; x < dim_; ++x) out[x * dim_ + y] = in[y * dim_ + x];
    mem.commit_async(out_);
  }

  std::vector<float> output(const ApproxMemory& mem) const override {
    const auto c = mem.span<const float>(out_);
    return std::vector<float>(c.begin(), c.begin() + static_cast<long>(dim_ * dim_));
  }

 private:
  size_t dim_ = 0;
  RegionId in_ = 0, out_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_transpose(WorkloadScale scale) {
  return std::make_unique<TransposeWorkload>(scale);
}

}  // namespace slc
