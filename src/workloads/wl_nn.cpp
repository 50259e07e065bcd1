// NN — nearest neighbors (Rodinia nn): distance of every GIS record to a
// target coordinate.
//
// Table III: 20 M records, MRE metric, 2 approximated regions (the location
// array and the distance output array). The host-side top-k scan is not part
// of the measured kernel.
#include <cmath>

#include "workloads/data_gen.h"
#include "workloads/workload_factories.h"

namespace slc {

namespace {

class NnWorkload final : public Workload {
 public:
  explicit NnWorkload(WorkloadScale scale) : Workload(scale) {}

  std::string name() const override { return "NN"; }
  std::string description() const override { return "Nearest neighbors (GIS records)"; }
  ErrorMetric metric() const override { return ErrorMetric::kMre; }

  void init(ApproxMemory& mem) override {
    n_ = scaled(1u << 20, 1u << 14);
    // Rodinia packs (lat, lng) as float2; one interleaved safe region, laid
    // out as the codes are.
    loc_ = mem.alloc("locations", n_ * 2 * sizeof(float), /*safe=*/true);
    dist_ = mem.alloc("distances", n_ * sizeof(float), /*safe=*/true);
    const auto codes = input_codes(name(), scale_, [this] {
      return make_gis_codes(n_, /*seed=*/0x4E4E5F534C43ull);
    });
    decode_gis_codes(codes, mem.span<float>(loc_));
  }

  void run(ApproxMemory& mem) override {
    constexpr float kTargetLat = 30.0f;
    constexpr float kTargetLon = 90.0f;
    mem.begin_kernel("euclid", /*compute_per_access=*/0.7, /*accesses_per_cta=*/3);
    const RegionId reads[] = {loc_};
    const RegionId writes[] = {dist_};
    mem.trace_zip(reads, writes);

    const auto l = mem.span<const float>(loc_);
    auto d = mem.span<float>(dist_);
    for (size_t i = 0; i < n_; ++i) {
      const float dlat = l[2 * i] - kTargetLat;
      const float dlon = l[2 * i + 1] - kTargetLon;
      d[i] = std::sqrt(dlat * dlat + dlon * dlon);
    }
    mem.commit_async(dist_);
  }

  std::vector<float> output(const ApproxMemory& mem) const override {
    const auto d = mem.span<const float>(dist_);
    return std::vector<float>(d.begin(), d.begin() + static_cast<long>(n_));
  }

 private:
  size_t n_ = 0;
  RegionId loc_ = 0, dist_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_nn(WorkloadScale scale) {
  return std::make_unique<NnWorkload>(scale);
}

}  // namespace slc
