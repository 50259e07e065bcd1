// The nine Table III workloads: construction, #AR counts, golden-run
// determinism, exactness under lossless codecs, error under SLC, pinned
// default-scale inputs and the input memo's size.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <span>
#include <string>

#include "workloads/workload.h"
#include "workloads/workload_factories.h"

namespace slc {
namespace {

// Table III #AR column.
struct ArExpectation {
  const char* name;
  size_t ar;
};
constexpr ArExpectation kAr[] = {{"JM", 6},  {"BS", 4},    {"DCT", 2},
                                 {"FWT", 2}, {"TP", 2},    {"BP", 6},
                                 {"NN", 2},  {"SRAD1", 8}, {"SRAD2", 6}};

TEST(Workloads, NamesCoverTableIII) {
  const auto names = workload_names();
  ASSERT_EQ(names.size(), 9u);
  for (const auto& e : kAr)
    EXPECT_NE(std::find(names.begin(), names.end(), e.name), names.end());
}

TEST(Workloads, UnknownNameThrows) {
  EXPECT_THROW(make_workload("NOPE"), std::invalid_argument);
}

class WorkloadParamTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadParamTest, ApproxRegionCountMatchesTableIII) {
  auto wl = make_workload(GetParam(), WorkloadScale::kTiny);
  ApproxMemory mem;
  wl->init(mem);
  for (const auto& e : kAr) {
    if (e.name == GetParam()) {
      EXPECT_EQ(mem.safe_region_count(), e.ar);
    }
  }
}

TEST_P(WorkloadParamTest, GoldenRunDeterministic) {
  auto run_once = [&] {
    auto wl = make_workload(GetParam(), WorkloadScale::kTiny);
    ApproxMemory mem;
    wl->init(mem);
    mem.commit_all();
    wl->run(mem);
    return wl->output(mem);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST_P(WorkloadParamTest, GoldenOutputsFinite) {
  auto wl = make_workload(GetParam(), WorkloadScale::kTiny);
  ApproxMemory mem;
  wl->init(mem);
  mem.commit_all();
  wl->run(mem);
  for (float v : wl->output(mem)) EXPECT_TRUE(std::isfinite(v));
}

TEST_P(WorkloadParamTest, RawCodecGivesZeroError) {
  auto codec = std::make_shared<RawBlockCodec>(32);
  const WorkloadRunResult r = run_workload(GetParam(), codec, WorkloadScale::kTiny);
  EXPECT_EQ(r.error_pct, 0.0) << "uncompressed memory must be exact";
  EXPECT_FALSE(r.trace.empty());
}

TEST_P(WorkloadParamTest, TraceAccessesHaveValidBursts) {
  auto codec = std::make_shared<RawBlockCodec>(32);
  const WorkloadRunResult r = run_workload(GetParam(), codec, WorkloadScale::kTiny);
  for (const KernelTrace& k : r.trace) {
    EXPECT_GT(k.compute_per_access, 0.0);
    for (const TraceAccess& a : k.accesses) {
      EXPECT_GE(a.bursts, 1u);
      EXPECT_LE(a.bursts, 4u);
      EXPECT_EQ(a.addr % kBlockBytes, 0u);
    }
  }
}

TEST_P(WorkloadParamTest, MemoryImageNonEmptyAndDeterministic) {
  const auto a = workload_memory_image(GetParam(), WorkloadScale::kTiny);
  const auto b = workload_memory_image(GetParam(), WorkloadScale::kTiny);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size() % kBlockBytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, WorkloadParamTest,
                         ::testing::ValuesIn(workload_names()),
                         [](const auto& info) { return info.param; });

TEST(WorkloadMetrics, MatchTableIII) {
  EXPECT_EQ(make_workload("JM", WorkloadScale::kTiny)->metric(), ErrorMetric::kMissRate);
  EXPECT_EQ(make_workload("BS", WorkloadScale::kTiny)->metric(), ErrorMetric::kMre);
  EXPECT_EQ(make_workload("DCT", WorkloadScale::kTiny)->metric(), ErrorMetric::kImageDiff);
  EXPECT_EQ(make_workload("FWT", WorkloadScale::kTiny)->metric(), ErrorMetric::kNrmse);
  EXPECT_EQ(make_workload("TP", WorkloadScale::kTiny)->metric(), ErrorMetric::kNrmse);
  EXPECT_EQ(make_workload("BP", WorkloadScale::kTiny)->metric(), ErrorMetric::kMre);
  EXPECT_EQ(make_workload("NN", WorkloadScale::kTiny)->metric(), ErrorMetric::kMre);
  EXPECT_EQ(make_workload("SRAD1", WorkloadScale::kTiny)->metric(), ErrorMetric::kImageDiff);
  EXPECT_EQ(make_workload("SRAD2", WorkloadScale::kTiny)->metric(), ErrorMetric::kImageDiff);
}

// FNV-1a, 64-bit: a fixed hash, so pinned values hold on every host.
uint64_t fnv1a(uint64_t h, std::span<const uint8_t> bytes) {
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(Workloads, DefaultInputsMatchPinnedDigests) {
  // Every region right after init at kDefault (size, then bytes, in region
  // order), pinned when each generator still wrote its floats directly. A
  // change to a generator, a seed, a region layout or the input memo that
  // moves a single input bit fails here.
  const std::map<std::string, uint64_t> kPinned = {
      {"JM", 0x0cadafdf190dc302ull},    {"BS", 0x652e4a209b0813f3ull},
      {"DCT", 0x90f82203f5aee128ull},   {"FWT", 0xde58053921860e3eull},
      {"TP", 0x280bd5c85003c32dull},    {"BP", 0x3b31ca7eee2cb1dbull},
      {"NN", 0x8cf50d1df45336c5ull},    {"SRAD1", 0x51dfaa62abd61953ull},
      {"SRAD2", 0x027873d4e753352dull}};
  for (const std::string& name : workload_names()) {
    auto wl = make_workload(name, WorkloadScale::kDefault);
    ApproxMemory mem;
    wl->init(mem);
    uint64_t h = 0xcbf29ce484222325ull;
    for (RegionId r = 0; r < mem.num_regions(); ++r) {
      const auto bytes = mem.span<const uint8_t>(r);
      const uint64_t size = bytes.size();
      h = fnv1a(h, {reinterpret_cast<const uint8_t*>(&size), sizeof size});
      h = fnv1a(h, bytes);
    }
    EXPECT_EQ(h, kPinned.at(name)) << name;
  }
}

TEST(WorkloadInputs, MemoKeepsOneEntryPerWorkloadAndScale) {
  // DCT, TP, NN, SRAD1 and SRAD2 read their inputs from the memo; the other
  // four add nothing, and a second init of any workload finds its entry.
  for (WorkloadScale scale : {WorkloadScale::kTiny, WorkloadScale::kDefault}) {
    for (int pass = 0; pass < 2; ++pass) {
      for (const std::string& name : workload_names()) {
        ApproxMemory mem;
        make_workload(name, scale)->init(mem);
      }
    }
    EXPECT_EQ(input_memo_stats(scale).entries, 5u);
  }
  // 512x512 uint16 for DCT and TP, 2^20 lat/lon pairs of uint16 for NN and
  // 512x512 uint8 for each SRAD: 5.5 MiB, under 6 MB.
  EXPECT_EQ(input_memo_stats(WorkloadScale::kDefault).bytes, size_t{5767168});
}

TEST(WorkloadTranspose, GoldenIsExactTranspose) {
  auto wl = make_workload("TP", WorkloadScale::kTiny);
  ApproxMemory mem;
  wl->init(mem);
  mem.commit_all();
  wl->run(mem);
  const auto in = mem.span<const float>(0);
  const auto out = wl->output(mem);
  const size_t d = 64;  // tiny scale dimension
  for (size_t y = 0; y < d; y += 7)
    for (size_t x = 0; x < d; x += 5) EXPECT_EQ(out[x * d + y], in[y * d + x]);
}

TEST(WorkloadJm, ProducesBothOutcomes) {
  auto wl = make_workload("JM", WorkloadScale::kTiny);
  ApproxMemory mem;
  wl->init(mem);
  mem.commit_all();
  wl->run(mem);
  const auto out = wl->bool_output(mem);
  const size_t hits = static_cast<size_t>(std::count(out.begin(), out.end(), 1));
  EXPECT_GT(hits, out.size() / 20) << "some pairs must intersect";
  EXPECT_LT(hits, out.size() * 19 / 20) << "some pairs must miss";
}

}  // namespace
}  // namespace slc
