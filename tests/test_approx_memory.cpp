// ApproxMemory: the extended-cudaMalloc region registry, commits and traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <tuple>

#include "common/rng.h"
#include "core/slc_block_codec.h"
#include "workloads/approx_memory.h"

namespace slc {
namespace {

// Quantized value-similar floats (grid 0.25): the data shape real benchmark
// inputs have, keeping both float halfwords inside the code table.
std::vector<uint8_t> quantized_walk(uint64_t seed, size_t blocks) {
  Rng rng(seed);
  std::vector<uint8_t> data;
  double walk = 10.0;
  for (size_t i = 0; i < blocks * kBlockBytes / 4; ++i) {
    walk += rng.uniform(-1.0, 1.0);
    const float v = static_cast<float>(std::round(walk * 4.0) / 4.0);
    uint32_t bits;
    __builtin_memcpy(&bits, &v, 4);
    for (int k = 0; k < 4; ++k) data.push_back(static_cast<uint8_t>(bits >> (8 * k)));
  }
  return data;
}

std::shared_ptr<E2mcCompressor> tiny_e2mc() {
  E2mcConfig cfg;
  cfg.sample_fraction = 1.0;
  return E2mcCompressor::train(quantized_walk(11, 64), cfg);
}

TEST(ApproxMemory, AllocPadsToBlocks) {
  ApproxMemory mem;
  const RegionId r = mem.alloc("x", 130, false);
  EXPECT_EQ(mem.span<const uint8_t>(r).size(), 2 * kBlockBytes);
  EXPECT_EQ(mem.region_blocks(r), 2u);
}

TEST(ApproxMemory, AddressesAreBlockAlignedAndDisjoint) {
  ApproxMemory mem;
  const RegionId a = mem.alloc("a", 1024, false);
  const RegionId b = mem.alloc("b", 1024, false);
  // A region's base address is its first block's traced address.
  mem.begin_kernel("k", 1.0);
  mem.trace_block(a, 0, false);
  mem.trace_block(b, 0, false);
  const uint64_t addr_a = mem.trace()[0].accesses[0].addr;
  const uint64_t addr_b = mem.trace()[0].accesses[1].addr;
  EXPECT_EQ(addr_a % kBlockBytes, 0u);
  EXPECT_EQ(addr_b % kBlockBytes, 0u);
  EXPECT_GE(addr_b, addr_a + 1024);
}

TEST(ApproxMemory, SafeRegionCount) {
  ApproxMemory mem;
  mem.alloc("a", 128, true);
  mem.alloc("b", 128, false);
  mem.alloc("c", 128, true);
  EXPECT_EQ(mem.safe_region_count(), 2u);
}

TEST(ApproxMemory, TypedSpans) {
  ApproxMemory mem;
  const RegionId r = mem.alloc("f", 512, false);
  auto s = mem.span<float>(r);
  EXPECT_EQ(s.size(), 128u);
  s[0] = 3.5f;
  EXPECT_EQ(mem.span<const float>(r)[0], 3.5f);
}

TEST(ApproxMemory, CommitWithoutCodecIsExact) {
  ApproxMemory mem;
  const RegionId r = mem.alloc("f", 512, true);
  auto s = mem.span<float>(r);
  for (size_t i = 0; i < s.size(); ++i) s[i] = static_cast<float>(i);
  mem.commit(r);
  for (size_t i = 0; i < s.size(); ++i) EXPECT_EQ(s[i], static_cast<float>(i));
}

TEST(ApproxMemory, LosslessCodecRecordsBurstsWithoutMutation) {
  ApproxMemory mem;
  auto codec = std::make_shared<LosslessBlockCodec>(tiny_e2mc(), 32);
  mem.set_codec(codec);
  const RegionId r = mem.alloc("zeros", 4 * kBlockBytes, true);
  mem.commit(r);
  const CommitStats st = mem.region_stats(r);
  EXPECT_EQ(st.blocks, 4u);
  EXPECT_EQ(st.lossy_blocks, 0u);
  // Zero blocks compress far below one burst.
  EXPECT_EQ(st.bursts, 4u);  // one per block
  for (uint8_t byte : mem.span<const uint8_t>(r)) EXPECT_EQ(byte, 0);
}

TEST(ApproxMemory, SlcCodecMutatesOnlySafeRegions) {
  auto e2mc = tiny_e2mc();
  SlcConfig cfg;
  cfg.threshold_bytes = 16;
  cfg.variant = SlcVariant::kSimp;
  auto codec = std::make_shared<SlcBlockCodec>(std::make_shared<SlcCodec>(e2mc, cfg));

  ApproxMemory mem;
  mem.set_codec(codec);
  const RegionId safe = mem.alloc("safe", 64 * kBlockBytes, true);
  const RegionId unsafe = mem.alloc("unsafe", 64 * kBlockBytes, false);

  const auto bytes = quantized_walk(3, 64);
  std::copy(bytes.begin(), bytes.end(), mem.span<uint8_t>(safe).begin());
  const auto unsafe_before = std::vector<uint8_t>(mem.span<const uint8_t>(unsafe).begin(),
                                                  mem.span<const uint8_t>(unsafe).end());
  mem.commit_all();
  // Unsafe region bytes identical.
  const auto unsafe_after = mem.span<const uint8_t>(unsafe);
  EXPECT_TRUE(std::equal(unsafe_before.begin(), unsafe_before.end(), unsafe_after.begin()));
  EXPECT_EQ(mem.region_stats(unsafe).lossy_blocks, 0u);
}

TEST(ApproxMemory, TraceCapturesBursts) {
  ApproxMemory mem;
  auto codec = std::make_shared<RawBlockCodec>(32);
  mem.set_codec(codec);
  const RegionId r = mem.alloc("t", 3 * kBlockBytes, false);
  mem.commit(r);
  mem.begin_kernel("k", 2.0, 4);
  mem.trace_read(r);
  const RegionId writes[] = {r};
  mem.trace_zip({}, writes);
  const auto& trace = mem.trace();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].name, "k");
  EXPECT_EQ(trace[0].compute_per_access, 2.0);
  ASSERT_EQ(trace[0].accesses.size(), 6u);
  EXPECT_FALSE(trace[0].accesses[0].write);
  EXPECT_TRUE(trace[0].accesses[3].write);
  for (const auto& a : trace[0].accesses) {
    EXPECT_EQ(a.bursts, 4u);  // RAW codec: max bursts
    EXPECT_EQ(a.addr % kBlockBytes, 0u);
  }
}

// A trace call with no kernel open is a caller bug, not a write through an
// empty trace: all three entry points throw before appending anything, and
// the memory stays usable.
TEST(ApproxMemory, TraceBeforeBeginKernelThrows) {
  ApproxMemory mem;
  const RegionId r = mem.alloc("x", 2 * kBlockBytes, false);
  const RegionId rs[] = {r};
  EXPECT_THROW(mem.trace_read(r), std::logic_error);
  EXPECT_THROW(mem.trace_zip(rs, rs), std::logic_error);
  EXPECT_THROW(mem.trace_block(r, 0, false), std::logic_error);
  EXPECT_TRUE(mem.trace().empty());

  mem.begin_kernel("k", 1.0);
  mem.trace_read(r);
  ASSERT_EQ(mem.trace().size(), 1u);
  EXPECT_EQ(mem.trace()[0].accesses.size(), 2u);
}

TEST(ApproxMemory, TraceZipInterleaves) {
  ApproxMemory mem;
  const RegionId a = mem.alloc("a", 2 * kBlockBytes, false);
  const RegionId b = mem.alloc("b", 2 * kBlockBytes, false);
  mem.begin_kernel("z", 1.0);
  const RegionId reads[] = {a};
  const RegionId writes[] = {b};
  mem.trace_zip(reads, writes);
  const auto& acc = mem.trace()[0].accesses;
  ASSERT_EQ(acc.size(), 4u);
  EXPECT_FALSE(acc[0].write);
  EXPECT_GE(acc[1].addr, acc[0].addr + 2 * kBlockBytes) << "b lies past a";
  EXPECT_TRUE(acc[1].write);
  EXPECT_EQ(acc[2].addr, acc[0].addr + kBlockBytes);
  EXPECT_EQ(acc[3].addr, acc[1].addr + kBlockBytes);
}

TEST(ApproxMemory, UncommittedBlocksCostMaxBursts) {
  ApproxMemory mem;
  auto codec = std::make_shared<LosslessBlockCodec>(tiny_e2mc(), 32);
  mem.set_codec(codec);
  const RegionId r = mem.alloc("u", kBlockBytes, false);
  mem.begin_kernel("k", 1.0);
  mem.trace_read(r);  // never committed
  EXPECT_EQ(mem.trace()[0].accesses[0].bursts, 4u);
}

// --- async commits ----------------------------------------------------------

namespace {

std::shared_ptr<SlcBlockCodec> tiny_slc() {
  SlcConfig cfg;
  cfg.threshold_bytes = 16;
  cfg.variant = SlcVariant::kOpt;
  return std::make_shared<SlcBlockCodec>(std::make_shared<SlcCodec>(tiny_e2mc(), cfg));
}

/// Fills a fresh memory with two value-similar regions and returns their ids.
std::vector<RegionId> fill_two_regions(ApproxMemory& mem) {
  std::vector<RegionId> regions;
  for (uint64_t s = 0; s < 2; ++s) {
    regions.push_back(mem.alloc("r" + std::to_string(s), 48 * kBlockBytes, /*safe=*/true, 16));
    const auto src = quantized_walk(70 + s, 48);
    std::copy(src.begin(), src.end(), mem.span<uint8_t>(regions.back()).begin());
  }
  return regions;
}

}  // namespace

// commit_async + flush must be byte-identical to commit(): same mutated
// contents, same stats, same burst counts in the trace.
TEST(ApproxMemory, CommitAsyncMatchesSyncCommit) {
  auto run = [](bool async) {
    ApproxMemory mem;
    mem.set_codec(tiny_slc());
    const auto regions = fill_two_regions(mem);
    for (const RegionId r : regions) {
      if (async) {
        mem.commit_async(r);
      } else {
        mem.commit(r);
      }
    }
    mem.flush();
    mem.begin_kernel("k", 1.0);
    std::vector<uint8_t> bursts;
    std::vector<uint8_t> contents;
    for (const RegionId r : regions) {
      mem.trace_read(r);
      const auto bytes = mem.span<const uint8_t>(r);
      contents.insert(contents.end(), bytes.begin(), bytes.end());
    }
    for (const TraceAccess& a : mem.trace()[0].accesses) bursts.push_back(a.bursts);
    return std::make_tuple(contents, bursts, mem.stats());
  };

  const auto [sync_data, sync_bursts, sync_stats] = run(false);
  const auto [async_data, async_bursts, async_stats] = run(true);
  EXPECT_EQ(sync_data, async_data);
  EXPECT_EQ(sync_bursts, async_bursts);
  EXPECT_TRUE(sync_stats == async_stats);  // all-field CommitStats equality
}

TEST(ApproxMemory, FlushDrainsAllPendingCommits) {
  ApproxMemory mem;
  mem.set_codec(tiny_slc());
  const auto regions = fill_two_regions(mem);
  for (const RegionId r : regions) {
    mem.commit_async(r);
    EXPECT_TRUE(mem.commit_pending(r));
  }
  mem.flush();
  for (const RegionId r : regions) EXPECT_FALSE(mem.commit_pending(r));
  EXPECT_EQ(mem.stats().blocks, 96u);  // 2 regions x 48 blocks, all settled
}

// Every observation settles: span(), trace and stats see post-commit state
// without an explicit flush().
TEST(ApproxMemory, ObservationsSettlePendingCommit) {
  ApproxMemory reference;
  reference.set_codec(tiny_slc());
  const auto ref_regions = fill_two_regions(reference);
  reference.commit(ref_regions[0]);

  ApproxMemory mem;
  mem.set_codec(tiny_slc());
  const auto regions = fill_two_regions(mem);
  mem.commit_async(regions[0]);

  // span() settles before exposing bytes.
  const auto got = mem.span<const uint8_t>(regions[0]);
  const auto want = reference.span<const uint8_t>(ref_regions[0]);
  EXPECT_FALSE(mem.commit_pending(regions[0]));
  EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin()));

  // trace_block settles too: bursts reflect the in-flight commit's outcome.
  mem.commit_async(regions[1]);
  reference.commit(ref_regions[1]);
  mem.begin_kernel("k", 1.0);
  reference.begin_kernel("k", 1.0);
  mem.trace_read(regions[1]);
  reference.trace_read(ref_regions[1]);
  ASSERT_EQ(mem.trace()[0].accesses.size(), reference.trace()[0].accesses.size());
  for (size_t i = 0; i < mem.trace()[0].accesses.size(); ++i)
    EXPECT_EQ(mem.trace()[0].accesses[i].bursts, reference.trace()[0].accesses[i].bursts);

  // region_stats settles the one region it reports on.
  EXPECT_EQ(mem.region_stats(regions[1]).blocks, reference.region_stats(ref_regions[1]).blocks);
}

// commit_all queues every region; back-to-back commits of the same region
// serialize through settle, so re-commits stay ordered.
TEST(ApproxMemory, CommitAllPipelinesAndRecommitSerializes) {
  ApproxMemory mem;
  mem.set_codec(tiny_slc());
  const auto regions = fill_two_regions(mem);
  mem.commit_all();
  for (const RegionId r : regions) EXPECT_TRUE(mem.commit_pending(r));
  mem.commit_async(regions[0]);  // settles the first commit, queues a second
  mem.flush();
  EXPECT_EQ(mem.stats().blocks, 144u);  // 3 commits x 48 blocks
}

/// Forwards every span to the inner policy one block at a time (spans of 1):
/// the per-block reference a whole-span commit must match.
class PerBlockCodec final : public BlockCodec {
 public:
  explicit PerBlockCodec(std::shared_ptr<const BlockCodec> inner) : inner_(std::move(inner)) {}
  void process_batch(std::span<const BlockView> blocks, bool safe, size_t threshold,
                     BlockCodecResult* out) const override {
    for (size_t i = 0; i < blocks.size(); ++i) out[i] = inner_->process(blocks[i], safe, threshold);
  }
  size_t mag_bytes() const override { return inner_->mag_bytes(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<const BlockCodec> inner_;
};

// Region commits through the batched policy kernel must be byte-identical to
// the same kernel run a block at a time: same mutated contents, same stats,
// same burst counts — across lossy/threshold-varied regions (tighter and
// looser than the codec config, unsafe, zero-threshold) and across engine
// batch splits: a 600-block region is one span inline, 80-block shards on
// one thread and 64-block shards on four.
TEST(ApproxMemory, BatchCommitMatchesScalarAcrossThresholds) {
  static constexpr size_t kRegionBlocks = 600;
  auto run = [](std::shared_ptr<const BlockCodec> codec, std::shared_ptr<CodecEngine> engine) {
    ApproxMemory mem;
    mem.set_engine(std::move(engine));
    mem.set_codec(std::move(codec));
    struct Spec {
      bool safe;
      size_t threshold;
    };
    const Spec specs[] = {{true, 16}, {true, 4}, {true, 64}, {false, 16}, {true, 0}};
    std::vector<RegionId> regions;
    for (size_t i = 0; i < std::size(specs); ++i) {
      regions.push_back(mem.alloc("r" + std::to_string(i), kRegionBlocks * kBlockBytes,
                                  specs[i].safe, specs[i].threshold));
      const auto src = quantized_walk(100 + i, kRegionBlocks);
      std::copy(src.begin(), src.end(), mem.span<uint8_t>(regions.back()).begin());
    }
    mem.commit_all();
    mem.flush();
    mem.begin_kernel("k", 1.0);
    std::vector<uint8_t> contents;
    std::vector<uint32_t> bursts;
    for (const RegionId r : regions) {
      mem.trace_read(r);
      const auto bytes = mem.span<const uint8_t>(r);
      contents.insert(contents.end(), bytes.begin(), bytes.end());
    }
    for (const TraceAccess& a : mem.trace()[0].accesses) bursts.push_back(a.bursts);
    return std::make_tuple(contents, bursts, mem.stats());
  };

  const auto scalar = run(std::make_shared<PerBlockCodec>(tiny_slc()), nullptr);
  size_t lossy_total = 0;
  for (const auto engine_threads : {0u, 1u, 4u}) {
    const auto engine = engine_threads == 0 ? nullptr : std::make_shared<CodecEngine>(engine_threads);
    const auto batch = run(tiny_slc(), engine);
    EXPECT_EQ(std::get<0>(scalar), std::get<0>(batch)) << engine_threads << " threads";
    EXPECT_EQ(std::get<1>(scalar), std::get<1>(batch)) << engine_threads << " threads";
    EXPECT_TRUE(std::get<2>(scalar) == std::get<2>(batch)) << engine_threads << " threads";
    lossy_total += std::get<2>(batch).lossy_blocks;
  }
  EXPECT_GT(lossy_total, 0u);  // the sweep must exercise lossy materialization
}

// Regression for the narrowing fix: the per-block burst store used to be
// uint8_t, silently wrapping any geometry (or codec) whose burst count
// exceeds 255 — and 0 doubled as the "never committed" sentinel.
TEST(ApproxMemory, BurstCountsAbove255SurviveCommitAndTrace) {
  class WideBurstCodec final : public BlockCodec {
   public:
    void process_batch(std::span<const BlockView> blocks, bool, size_t,
                       BlockCodecResult* out) const override {
      for (size_t i = 0; i < blocks.size(); ++i) {
        out[i] = BlockCodecResult{};
        out[i].bursts = 300;  // > uint8_t: e.g. block_bytes / mag_bytes = 300
        out[i].lossless_bits = blocks[i].size() * 8;
        out[i].final_bits = blocks[i].size() * 8;
        out[i].stored_uncompressed = true;
      }
    }
    size_t mag_bytes() const override { return kDefaultMagBytes; }
    std::string name() const override { return "WIDE"; }
  };

  ApproxMemory mem;
  mem.set_codec(std::make_shared<WideBurstCodec>());
  const RegionId r = mem.alloc("wide", 3 * kBlockBytes, true);
  mem.commit(r);
  EXPECT_EQ(mem.region_stats(r).bursts, 3u * 300u);
  mem.begin_kernel("k", 1.0);
  mem.trace_read(r);
  for (const TraceAccess& a : mem.trace()[0].accesses) EXPECT_EQ(a.bursts, 300u);
}

TEST(BlockCodec, RawReportsMaxBursts) {
  const RawBlockCodec raw(32);
  Block b;
  const auto r = raw.process(b.view(), true, 16);
  EXPECT_EQ(r.bursts, kBlockBytes / 32);
  EXPECT_FALSE(r.lossy);
}

TEST(BlockCodec, SlcRespectsRegionThreshold) {
  auto e2mc = tiny_e2mc();
  SlcConfig cfg;
  cfg.threshold_bytes = 16;
  cfg.variant = SlcVariant::kOpt;
  const SlcBlockCodec codec(std::make_shared<SlcCodec>(e2mc, cfg));

  const auto bytes = quantized_walk(17, 64);
  size_t lossy_with = 0, lossy_without = 0;
  for (int i = 0; i < 64; ++i) {
    const Block b(std::span<const uint8_t>(bytes).subspan(
        static_cast<size_t>(i) * kBlockBytes, kBlockBytes));
    if (codec.process(b.view(), true, 16).lossy) ++lossy_with;
    if (codec.process(b.view(), false, 16).lossy) ++lossy_without;
    // threshold 0 region: never lossy even if marked safe
    EXPECT_FALSE(codec.process(b.view(), true, 0).lossy);
  }
  EXPECT_GT(lossy_with, 0u);
  EXPECT_EQ(lossy_without, 0u);
}

// A region allocated without a threshold has no cap of its own, so it runs
// at the codec's threshold: at 32 B it commits exactly like a region
// allocated with 32 B, and a block overshooting its budget by 17-32 B goes
// lossy where a 16 B cap would keep it exact.
TEST(ApproxMemory, RegionWithoutThresholdTakesTheCodecs) {
  const auto e2mc = tiny_e2mc();
  SlcConfig cfg;
  cfg.threshold_bytes = 32;
  cfg.variant = SlcVariant::kOpt;
  const auto bytes = quantized_walk(17, 64);

  // A block the 32 B threshold approximates, changing its bytes, and a 16 B
  // one cannot.
  const std::vector<Block> blocks = to_blocks(bytes);
  const std::vector<BlockView> views = to_views(blocks);
  std::vector<SlcCodec::Decision> ds(blocks.size());
  std::vector<SlcCodec::CacheOutcome> ocs(blocks.size());
  const SlcCodec codec32(e2mc, cfg);
  codec32.decide_batch(views, cfg.threshold_bytes, ds.data(), ocs.data());
  size_t mid = blocks.size();
  for (size_t i = 0; i < blocks.size() && mid == blocks.size(); ++i) {
    const SlcEncodeInfo& info = ds[i].info;
    if (info.lossy && info.extra_bits > 16 * 8 && info.extra_bits <= 32 * 8 &&
        codec32.approx_decode(views[i], ds[i]) != blocks[i])
      mid = i;
  }
  ASSERT_LT(mid, blocks.size()) << "the walk has no block overshooting by 17-32 B";

  ApproxMemory mem;
  mem.set_codec(std::make_shared<SlcBlockCodec>(std::make_shared<SlcCodec>(e2mc, cfg)));
  const RegionId uncapped = mem.alloc("uncapped", bytes.size(), true);
  const RegionId at32 = mem.alloc("at32", bytes.size(), true, 32);
  const RegionId at16 = mem.alloc("at16", bytes.size(), true, 16);
  for (const RegionId r : {uncapped, at32, at16})
    std::copy(bytes.begin(), bytes.end(), mem.span<uint8_t>(r).begin());
  mem.commit_all();

  const auto got = mem.span<const uint8_t>(uncapped);
  const auto want = mem.span<const uint8_t>(at32);
  EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()));
  EXPECT_EQ(mem.region_stats(uncapped), mem.region_stats(at32));
  EXPECT_GT(mem.region_stats(uncapped).lossy_blocks, mem.region_stats(at16).lossy_blocks);
  const auto block_of = [&](RegionId r) {
    return Block(mem.span<const uint8_t>(r).subspan(mid * kBlockBytes, kBlockBytes));
  };
  EXPECT_EQ(block_of(uncapped), codec32.approx_decode(views[mid], ds[mid]));
  EXPECT_EQ(block_of(at16), blocks[mid]) << "a 16 B cap keeps the block exact";
}

}  // namespace
}  // namespace slc
