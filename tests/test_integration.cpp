// End-to-end integration: the paper's qualitative results at tiny scale.
// These are the invariants the figures rest on — if any fails, the benches
// cannot reproduce the paper.
#include <gtest/gtest.h>

#include "compress/bdi.h"
#include "compress/cpack.h"
#include "compress/fpc.h"
#include "core/slc_block_codec.h"
#include "sim/energy.h"
#include "sim/gpu_sim.h"
#include "workloads/workload.h"

namespace slc {
namespace {

std::shared_ptr<const E2mcCompressor> train_for(const std::string& name) {
  static std::map<std::string, std::shared_ptr<const E2mcCompressor>> cache;
  auto it = cache.find(name);
  if (it != cache.end()) return it->second;
  const auto image = workload_memory_image(name, WorkloadScale::kTiny);
  auto c = E2mcCompressor::train(image, E2mcConfig{});
  cache[name] = c;
  return c;
}

std::shared_ptr<const BlockCodec> slc_policy(std::shared_ptr<const E2mcCompressor> e2mc,
                                             const SlcConfig& cfg) {
  return std::make_shared<SlcBlockCodec>(std::make_shared<SlcCodec>(std::move(e2mc), cfg));
}

TEST(Integration, EffectiveRatioBelowRawForAllSchemes) {
  // Fig. 1's core claim, checked on one float-heavy benchmark.
  const auto image = workload_memory_image("SRAD2", WorkloadScale::kTiny);
  const auto blocks = to_blocks(image);
  const BdiCompressor bdi;
  const FpcCompressor fpc;
  const CpackCompressor cpack;
  const auto e2mc = train_for("SRAD2");
  const Compressor* schemes[] = {&bdi, &fpc, &cpack, e2mc.get()};
  for (const Compressor* c : schemes) {
    RatioAccumulator acc(32);
    for (const Block& b : blocks) acc.add(b.size() * 8, c->analyze(b.view()).bit_size);
    EXPECT_LE(acc.effective_ratio(), acc.raw_ratio() + 1e-12) << c->name();
  }
}

TEST(Integration, E2mcBeatsPatternSchemesOnFloats) {
  // The paper picks E2MC as baseline because it compresses best (Sec. I).
  const auto image = workload_memory_image("BS", WorkloadScale::kTiny);
  const auto blocks = to_blocks(image);
  const auto e2mc = train_for("BS");
  const FpcCompressor fpc;
  RatioAccumulator acc_e(32), acc_f(32);
  for (const Block& b : blocks) {
    acc_e.add(b.size() * 8, e2mc->analyze(b.view()).bit_size);
    acc_f.add(b.size() * 8, fpc.analyze(b.view()).bit_size);
  }
  EXPECT_GT(acc_e.raw_ratio(), acc_f.raw_ratio());
}

TEST(Integration, SlcReducesTrafficVsE2mc) {
  // The heart of the paper: TSLC must save bursts over lossless E2MC.
  for (const std::string name : {"BS", "NN", "SRAD2"}) {
    auto e2mc = train_for(name);
    auto base = std::make_shared<LosslessBlockCodec>(e2mc, 32);
    SlcConfig cfg;
    cfg.threshold_bytes = 16;
    cfg.variant = SlcVariant::kOpt;
    auto slc = slc_policy(e2mc, cfg);
    const auto rb = run_workload(name, base, WorkloadScale::kTiny);
    const auto rs = run_workload(name, slc, WorkloadScale::kTiny);
    EXPECT_LE(rs.stats.bursts, rb.stats.bursts) << name;
    EXPECT_GT(rs.stats.lossy_blocks, 0u) << name << " must exercise the lossy path";
  }
}

TEST(Integration, LosslessBaselineHasZeroError) {
  for (const std::string name : {"BS", "TP", "SRAD2"}) {
    auto base = std::make_shared<LosslessBlockCodec>(train_for(name), 32);
    const auto r = run_workload(name, base, WorkloadScale::kTiny);
    EXPECT_EQ(r.error_pct, 0.0) << name;
  }
}

TEST(Integration, PredictionReducesErrorVsTruncation) {
  // Fig. 7b's ordering: SIMP >= PRED on every float workload.
  for (const std::string name : {"BS", "NN", "SRAD2", "TP"}) {
    auto e2mc = train_for(name);
    SlcConfig cfg;
    cfg.threshold_bytes = 16;
    cfg.variant = SlcVariant::kSimp;
    const auto simp = run_workload(name, slc_policy(e2mc, cfg), WorkloadScale::kTiny);
    cfg.variant = SlcVariant::kPred;
    const auto pred = run_workload(name, slc_policy(e2mc, cfg), WorkloadScale::kTiny);
    if (simp.stats.lossy_blocks == 0) continue;  // nothing approximated
    EXPECT_LE(pred.error_pct, simp.error_pct * 1.5 + 1e-9) << name;
  }
}

TEST(Integration, ErrorBoundedAtDefaultThreshold) {
  // Fig. 7b: errors are small single-digit percentages at threshold 16 B.
  for (const std::string& name : workload_names()) {
    auto e2mc = train_for(name);
    SlcConfig cfg;
    cfg.threshold_bytes = 16;
    cfg.variant = SlcVariant::kOpt;
    const auto r = run_workload(name, slc_policy(e2mc, cfg), WorkloadScale::kTiny);
    EXPECT_LT(r.error_pct, 25.0) << name << " error out of the paper's regime";
  }
}

TEST(Integration, FullPipelineSpeedupOnMemoryBoundWorkload) {
  const std::string name = "NN";
  auto e2mc = train_for(name);
  auto base_codec = std::make_shared<LosslessBlockCodec>(e2mc, 32);
  SlcConfig cfg;
  cfg.threshold_bytes = 16;
  cfg.variant = SlcVariant::kOpt;
  auto slc_codec = slc_policy(e2mc, cfg);

  const auto rb = run_workload(name, base_codec, WorkloadScale::kTiny);
  const auto rs = run_workload(name, slc_codec, WorkloadScale::kTiny);

  GpuSimConfig scfg;
  scfg.compress_latency = E2mcCompressor::kCompressLatency;
  scfg.decompress_latency = E2mcCompressor::kDecompressLatency;
  GpuSim sim_base(scfg);
  const SimStats sb = sim_base.run(rb.trace);
  scfg.compress_latency = SlcCodec::kCompressLatency;
  GpuSim sim_slc(scfg);
  const SimStats ss = sim_slc.run(rs.trace);

  EXPECT_LE(ss.dram_bursts_total(), sb.dram_bursts_total());
  // Timing must not regress (tiny scale may mute the gain, but TSLC can't
  // be slower than E2MC by more than noise).
  EXPECT_LT(static_cast<double>(ss.cycles), static_cast<double>(sb.cycles) * 1.02);

  const auto eb = compute_energy(sb, scfg);
  const auto es = compute_energy(ss, scfg);
  EXPECT_LT(es.total_j(), eb.total_j() * 1.02);
}

TEST(Integration, RawSlowerThanCompressed) {
  // Compression must pay off at all on memory-bound kernels — sanity for
  // the whole premise.
  const std::string name = "NN";
  auto e2mc = train_for(name);
  const auto rr =
      run_workload(name, std::make_shared<RawBlockCodec>(32), WorkloadScale::kTiny);
  const auto re = run_workload(name, std::make_shared<LosslessBlockCodec>(e2mc, 32),
                               WorkloadScale::kTiny);
  GpuSimConfig raw_cfg;
  GpuSim sim_raw(raw_cfg);
  const SimStats sr = sim_raw.run(rr.trace);
  GpuSimConfig e_cfg;
  e_cfg.compress_latency = E2mcCompressor::kCompressLatency;
  e_cfg.decompress_latency = E2mcCompressor::kDecompressLatency;
  GpuSim sim_e2mc(e_cfg);
  const SimStats se = sim_e2mc.run(re.trace);
  EXPECT_LT(se.dram_bursts_total(), sr.dram_bursts_total());
}

}  // namespace
}  // namespace slc
