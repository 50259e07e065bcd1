// Full memory-subsystem simulator: progress, conservation laws, and the
// bandwidth behaviours the paper's speedups rest on.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common/rng.h"
#include "compress/block_codec.h"
#include "sim/gpu_sim.h"
#include "sim/trace_stream.h"
#include "sim_reference.h"

namespace slc {
namespace {

KernelTrace streaming_kernel(size_t blocks, uint8_t bursts, double compute = 1.0,
                             uint64_t base = 0x1000'0000, bool writes = false) {
  KernelTrace k;
  k.name = "stream";
  k.compute_per_access = compute;
  k.accesses_per_cta = 8;
  for (size_t i = 0; i < blocks; ++i) {
    TraceAccess a;
    a.addr = base + i * kBlockBytes;
    a.bursts = bursts;
    a.write = writes && (i % 2 == 1);
    k.accesses.push_back(a);
  }
  return k;
}

TEST(GpuSim, EmptyTraceFinishes) {
  GpuSim sim(GpuSimConfig{});
  const SimStats s = sim.run({});
  EXPECT_EQ(s.accesses, 0u);
}

TEST(GpuSim, AllAccessesAccounted) {
  GpuSim sim(GpuSimConfig{});
  const SimStats s = sim.run({streaming_kernel(5000, 4, 1.0, 0x1000'0000, true)});
  EXPECT_EQ(s.accesses, 5000u);
  EXPECT_EQ(s.reads + s.writes, 5000u);
  EXPECT_GT(s.cycles, 0u);
}

// run(ApproxMemory&) is the pipelined-run entry point: it must flush the
// in-flight async commits before replaying, so the replayed trace matches a
// replay of the explicitly flushed trace exactly.
TEST(GpuSim, RunFromMemoryFlushesPendingCommitsBeforeReplay) {
  auto build = [] {
    ApproxMemory mem;
    mem.set_codec(std::make_shared<RawBlockCodec>(32));
    const RegionId r = mem.alloc("x", 64 * kBlockBytes, /*safe=*/true, 16);
    mem.commit_async(r);
    mem.begin_kernel("k", 1.0);
    mem.trace_read(r);
    mem.commit_async(r);  // left in flight on purpose
    return mem;
  };

  ApproxMemory via_trace = build();
  via_trace.flush();
  GpuSim ref_sim(GpuSimConfig{});
  const SimStats want = ref_sim.run(via_trace.trace());

  ApproxMemory mem = build();
  GpuSim sim(GpuSimConfig{});
  const SimStats got = sim.run(mem);  // flushes, then replays
  EXPECT_FALSE(mem.commit_pending(0));
  EXPECT_EQ(got.accesses, want.accesses);
  EXPECT_EQ(got.cycles, want.cycles);
  EXPECT_EQ(got.dram_read_bursts, want.dram_read_bursts);
}

TEST(GpuSim, ReadsMissCachesOnFirstTouch) {
  GpuSim sim(GpuSimConfig{});
  const SimStats s = sim.run({streaming_kernel(4000, 4)});
  // Unique streaming addresses: everything misses, every block fetched once.
  EXPECT_EQ(s.l1_misses, 4000u);
  EXPECT_EQ(s.l2_misses, 4000u);
  EXPECT_EQ(s.dram_read_bursts, 4000u * 4u);
}

TEST(GpuSim, RepeatedBlocksHitL2) {
  GpuSimConfig cfg;
  GpuSim sim(cfg);
  // Two kernels over the same small footprint (fits 768 KB L2).
  auto k1 = streaming_kernel(1000, 4);
  auto k2 = streaming_kernel(1000, 4);
  const SimStats s = sim.run({k1, k2});
  EXPECT_GT(s.l2_hits, 900u) << "second pass must hit in L2";
  EXPECT_LT(s.dram_read_bursts, 2u * 1000u * 4u);
}

TEST(GpuSim, CompressedTrafficFasterWhenMemoryBound) {
  GpuSimConfig cfg;
  cfg.decompress_latency = 20;
  GpuSim sim_full(cfg), sim_comp(cfg);
  const SimStats full = sim_full.run({streaming_kernel(20000, 4, 0.5)});
  const SimStats comp = sim_comp.run({streaming_kernel(20000, 2, 0.5)});
  EXPECT_LT(comp.cycles, full.cycles)
      << "half the bursts must run faster under bandwidth bound";
  const double speedup =
      static_cast<double>(full.cycles) / static_cast<double>(comp.cycles);
  EXPECT_GT(speedup, 1.3);
}

TEST(GpuSim, ComputeBoundInsensitiveToBursts) {
  GpuSimConfig cfg;
  GpuSim a(cfg), b(cfg);
  // 200 compute cycles per access: DRAM is idle most of the time.
  const SimStats full = a.run({streaming_kernel(3000, 4, 200.0)});
  const SimStats comp = b.run({streaming_kernel(3000, 1, 200.0)});
  const double speedup =
      static_cast<double>(full.cycles) / static_cast<double>(comp.cycles);
  EXPECT_LT(speedup, 1.05) << "compute-bound kernels gain little from compression";
}

TEST(GpuSim, DecompressionLatencyCosts) {
  GpuSimConfig no_lat;
  no_lat.decompress_latency = 0;
  GpuSimConfig with_lat = no_lat;
  with_lat.decompress_latency = 100;
  GpuSim a(no_lat), b(with_lat);
  const SimStats fast = a.run({streaming_kernel(2000, 2, 4.0)});
  const SimStats slow = b.run({streaming_kernel(2000, 2, 4.0)});
  EXPECT_GT(slow.cycles, fast.cycles);
}

TEST(GpuSim, WritesProduceWritebacks) {
  GpuSimConfig cfg;
  GpuSim sim(cfg);
  // Write-heavy streaming over a footprint far beyond L2 forces evictions.
  const SimStats s = sim.run({streaming_kernel(20000, 4, 1.0, 0x1000'0000, true)});
  EXPECT_GT(s.writes, 0u);
  EXPECT_GT(s.l2_writebacks, 1000u);
  EXPECT_GT(s.dram_write_bursts, 0u);
}

TEST(GpuSim, MdcMissesChargeMetadataTraffic) {
  GpuSimConfig cfg;
  GpuSim sim(cfg);
  const SimStats s = sim.run({streaming_kernel(30000, 2, 1.0)});
  EXPECT_GT(s.mdc_misses, 0u);
  EXPECT_GT(s.mdc_hits, s.mdc_misses) << "streaming metadata mostly hits";
  EXPECT_EQ(s.metadata_bursts, s.mdc_misses);
}

TEST(GpuSim, AchievedBandwidthBounded) {
  GpuSimConfig cfg;
  GpuSim sim(cfg);
  const SimStats s = sim.run({streaming_kernel(50000, 4, 0.1)});
  const double bw = s.achieved_bandwidth_gbps(cfg);
  EXPECT_GT(bw, 0.3 * cfg.bandwidth_gbps()) << "memory-bound stream should load DRAM";
  EXPECT_LE(bw, cfg.bandwidth_gbps() * 1.001) << "cannot exceed the pin bandwidth";
}

TEST(GpuSim, KernelsSerialize) {
  GpuSimConfig cfg;
  GpuSim one(cfg), two(cfg);
  auto k = streaming_kernel(5000, 4);
  const SimStats s1 = one.run({k});
  // Different footprints so the second kernel cannot hit in L2.
  auto k2 = streaming_kernel(5000, 4, 1.0, 0x9000'0000);
  const SimStats s2 = two.run({k, k2});
  EXPECT_GT(s2.cycles, static_cast<uint64_t>(1.8 * static_cast<double>(s1.cycles)));
}

TEST(GpuSim, MoreSmsDrainFasterWhenLatencyBound) {
  GpuSimConfig few;
  few.num_sms = 2;
  GpuSimConfig many;
  many.num_sms = 16;
  GpuSim a(few), b(many);
  auto k = streaming_kernel(8000, 1, 2.0);  // light traffic -> latency bound
  const SimStats s_few = a.run({k});
  const SimStats s_many = b.run({k});
  EXPECT_LT(s_many.cycles, s_few.cycles);
}

// Parameterized conservation checks across MAGs.
class GpuSimMagTest : public ::testing::TestWithParam<size_t> {};

TEST_P(GpuSimMagTest, BurstAccountingMatchesTrace) {
  GpuSimConfig cfg;
  cfg.mag_bytes = GetParam();
  const auto maxb = static_cast<uint8_t>(cfg.max_bursts());
  GpuSim sim(cfg);
  const SimStats s = sim.run({streaming_kernel(3000, maxb)});
  EXPECT_EQ(s.dram_read_bursts, 3000u * maxb);
}

INSTANTIATE_TEST_SUITE_P(Mags, GpuSimMagTest, ::testing::Values<size_t>(16, 32, 64));

// ---- SimStats::merge() algebra -------------------------------------------

TEST(SimStats, MergeWithDefaultConstructedIsIdentity) {
  GpuSim sim(GpuSimConfig{});
  const SimStats s = sim.run({streaming_kernel(500, 4, 1.0, 0x1000'0000, true)});

  SimStats left = s;
  left.merge(SimStats{});  // right identity
  EXPECT_EQ(left, s);

  SimStats right;  // left identity
  right.merge(s);
  EXPECT_EQ(right, s);
}

TEST(SimStats, MergeIsAssociativeAndCommutesOnCounters) {
  GpuSim sa(GpuSimConfig{}), sb(GpuSimConfig{}), sc(GpuSimConfig{});
  const SimStats a = sa.run({streaming_kernel(300, 2)});
  const SimStats b = sb.run({streaming_kernel(700, 4, 1.0, 0x2000'0000, true)});
  const SimStats c = sc.run({streaming_kernel(100, 1, 8.0, 0x3000'0000)});

  SimStats ab = a;
  ab.merge(b);
  SimStats ab_c = ab;
  ab_c.merge(c);

  SimStats bc = b;
  bc.merge(c);
  SimStats a_bc = a;
  a_bc.merge(bc);
  EXPECT_EQ(ab_c, a_bc);

  SimStats ba = b;
  ba.merge(a);
  EXPECT_EQ(ab, ba);
}

// ---- Streaming entry point ------------------------------------------------

TEST(GpuSim, EmptyStreamReturnsCleanly) {
  TraceStream stream(4);
  stream.close();  // producer finishes without ever publishing a kernel
  GpuSim sim(GpuSimConfig{});
  const SimStats s = sim.run(stream);
  EXPECT_EQ(s.accesses, 0u);
  EXPECT_EQ(s.kernels, 0u);
  EXPECT_EQ(s.stream_chunk_hwm, 0u);
}

TEST(GpuSim, StreamingMatchesMaterializedRun) {
  std::vector<KernelTrace> trace;
  trace.push_back(streaming_kernel(2000, 4, 1.0, 0x1000'0000, true));
  trace.push_back(streaming_kernel(500, 2, 4.0, 0x2000'0000));
  trace.push_back(streaming_kernel(1200, 8, 0.5, 0x3000'0000, true));

  GpuSim ref(GpuSimConfig{});
  const SimStats want = ref.run(trace);

  GpuSim sim(GpuSimConfig{});
  TraceStream stream(2);
  SimStats got;
  std::thread consumer([&] { got = sim.run(stream); });
  for (const auto& k : trace) ASSERT_TRUE(stream.push(std::make_shared<const KernelTrace>(k)));
  stream.close();
  consumer.join();
  EXPECT_TRUE(want.same_counters(got));
  EXPECT_EQ(got.kernels, 3u);
}

// Every run starts from a cold machine: a second run on the same sim must
// not inherit L2/MDC contents, DRAM bank or bus timing from the first.
TEST(GpuSim, SecondRunMatchesFreshSim) {
  std::vector<KernelTrace> trace;
  trace.push_back(streaming_kernel(3000, 4, 0.5, 0x1000'0000, true));
  trace.push_back(streaming_kernel(900, 2, 2.0, 0x5000'0000));

  GpuSim fresh(GpuSimConfig{});
  const SimStats want = fresh.run(trace);
  GpuSim reused(GpuSimConfig{});
  EXPECT_EQ(reused.run(trace), want);
  EXPECT_EQ(reused.run(trace), want);  // full equality, high-water marks included
}

TEST(GpuSim, StreamHighWaterMarkBoundedByBudget) {
  GpuSimConfig cfg;
  GpuSim sim(cfg);
  TraceStream stream(cfg.stream_chunk_budget);
  SimStats got;
  std::thread consumer([&] { got = sim.run(stream); });
  // Push far more kernels than the budget: backpressure must cap the queue.
  for (int i = 0; i < 64; ++i)
    ASSERT_TRUE(stream.push(
        std::make_shared<const KernelTrace>(streaming_kernel(64, 2, 1.0, 0x1000'0000 + i * 0x10000))));
  stream.close();
  consumer.join();
  EXPECT_EQ(got.kernels, 64u);
  EXPECT_GT(got.stream_chunk_hwm, 0u);
  EXPECT_LE(got.stream_chunk_hwm, cfg.stream_chunk_budget);
  EXPECT_GT(got.stream_access_hwm, 0u);
}

// ---- Input validation -----------------------------------------------------

TEST(GpuSim, RejectsGeometriesItCannotModel) {
  struct Case {
    const char* what;
    std::function<void(GpuSimConfig&)> edit;
  };
  const Case bad[] = {
      {"num_mcs = 0", [](GpuSimConfig& c) { c.num_mcs = 0; }},
      {"banks_per_mc = 0", [](GpuSimConfig& c) { c.banks_per_mc = 0; }},
      {"beats_per_cycle = 0", [](GpuSimConfig& c) { c.beats_per_cycle = 0; }},
      {"mag_bytes = 0", [](GpuSimConfig& c) { c.mag_bytes = 0; }},
      {"L2 slice smaller than one set", [](GpuSimConfig& c) { c.l2_bytes = 1024; }},
      {"line_bytes = 96", [](GpuSimConfig& c) { c.line_bytes = 96; }},
      {"num_sms = 65536", [](GpuSimConfig& c) { c.num_sms = 65536; }},
      {"num_sms = 0", [](GpuSimConfig& c) { c.num_sms = 0; }},
      {"row_bytes = 0", [](GpuSimConfig& c) { c.row_bytes = 0; }},
      {"scheduler_window = 0", [](GpuSimConfig& c) { c.scheduler_window = 0; }},
      {"max_outstanding_per_sm = 0", [](GpuSimConfig& c) { c.max_outstanding_per_sm = 0; }},
      {"mdc_line_coverage_blocks = 0", [](GpuSimConfig& c) { c.mdc_line_coverage_blocks = 0; }},
      {"l1_ways = 0", [](GpuSimConfig& c) { c.l1_ways = 0; }},
      {"metadata cache smaller than one set", [](GpuSimConfig& c) { c.mdc_lines = 2; }},
      {"sm_clock_ghz = 0", [](GpuSimConfig& c) { c.sm_clock_ghz = 0.0; }},
  };
  for (const Case& c : bad) {
    GpuSimConfig cfg;
    c.edit(cfg);
    EXPECT_THROW({ GpuSim sim(cfg); }, std::invalid_argument) << c.what;
  }

  // A valid geometry with no power-of-two set, channel, bank or SM count.
  GpuSimConfig odd;
  odd.num_sms = 7;
  odd.num_mcs = 5;
  odd.banks_per_mc = 12;
  odd.l1_bytes = 24 * 4 * 128;        // 24 sets
  odd.l2_bytes = 5 * 48 * 16 * 128;   // 48 sets per slice
  GpuSim sim(odd);
  const SimStats s = sim.run({streaming_kernel(1000, 4, 1.0, 0x1000'0000, true)});
  EXPECT_EQ(s.accesses, 1000u);
  EXPECT_GT(s.cycles, 0u);

  // Kernels whose credit cannot be counted in cycles are rejected by run().
  for (const double compute : {std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::quiet_NaN(), -1.0, 1e30}) {
    GpuSim k(GpuSimConfig{});
    EXPECT_THROW(k.run({streaming_kernel(10, 4, compute)}), std::invalid_argument)
        << "compute_per_access " << compute;
  }
}

// A kernel the simulator rejects cancels the stream, so a producer parked on
// backpressure unwinds instead of deadlocking.
TEST(GpuSim, RejectedKernelCancelsTheStream) {
  TraceStream stream(1);
  bool rejected = false;
  std::thread producer([&] {
    const auto push = [&](double compute) {
      return stream.push(std::make_shared<const KernelTrace>(streaming_kernel(10, 4, compute)));
    };
    rejected = !push(std::numeric_limits<double>::infinity());
    // The budget is 1 and nothing pops after the bad kernel, so by the third
    // push at the latest a push waits on the full queue until the cancel.
    for (int i = 0; i < 4 && !rejected; ++i) rejected = !push(1.0);
    stream.close();
  });
  GpuSim sim(GpuSimConfig{});
  EXPECT_THROW(sim.run(stream), std::invalid_argument);
  producer.join();
  EXPECT_TRUE(rejected) << "the producer must see the stream cancelled";
}

// ---- Differential: GpuSim against the reference event loop -----------------

// A random kernel: streaming runs (row hits, metadata-cache hits), a small
// hot set (L1/L2 hits and refills) and scattered lines (L2 misses, bank
// conflicts), with burst counts from 0 to the line's full count.
KernelTrace random_kernel(Rng& rng, const GpuSimConfig& cfg, size_t n, double compute,
                          double write_frac, uint32_t per_cta) {
  KernelTrace k;
  k.name = "random";
  k.compute_per_access = compute;
  k.accesses_per_cta = per_cta;
  const uint64_t line = cfg.line_bytes;
  std::vector<uint64_t> hot;
  for (int i = 0; i < 48; ++i) hot.push_back(0x4000'0000 + rng.next_below(8192) * line);
  uint64_t cursor = 0x1000'0000 + rng.next_below(1 << 16) * line;
  for (size_t i = 0; i < n; ++i) {
    TraceAccess a;
    const uint64_t kind = rng.next_below(10);
    if (kind < 4) {
      a.addr = cursor;
      cursor += line;
    } else if (kind < 7) {
      a.addr = hot[rng.next_below(hot.size())];
    } else {
      a.addr = 0x2000'0000 + rng.next_below(1 << 21) * line;
    }
    a.bursts = static_cast<uint32_t>(rng.next_below(cfg.max_bursts() + 1));
    a.write = rng.chance(write_frac);
    k.accesses.push_back(a);
  }
  return k;
}

TEST(GpuSimDifferential, MatchesReferenceOnRandomTraces) {
  struct Geometry {
    const char* what;
    std::function<void(GpuSimConfig&)> edit;
  };
  const Geometry geometries[] = {
      {"Table II defaults", [](GpuSimConfig&) {}},
      {"non-power-of-two SMs, channels, banks and sets",
       [](GpuSimConfig& c) {
         c.num_sms = 7;
         c.num_mcs = 5;
         c.banks_per_mc = 12;
         c.l1_bytes = 24 * 4 * 128;       // 24 sets
         c.l2_bytes = 5 * 48 * 16 * 128;  // 48 sets per slice
         c.compress_latency = 6;
         c.decompress_latency = 10;
       }},
      {"zero interconnect latency",
       [](GpuSimConfig& c) {
         c.icnt_latency = 0;
         c.compress_latency = 3;
         c.decompress_latency = 20;
       }},
      {"scheduler window below the bank count",
       [](GpuSimConfig& c) {
         c.scheduler_window = 5;
         c.write_drain_watermark = 3;
         c.mag_bytes = 16;
       }},
      {"equal clocks, so integral compute gives whole-cycle credits",
       [](GpuSimConfig& c) { c.sm_clock_ghz = c.mem_clock_ghz; }},
      {"more SMs than a 64-bit word, few MSHRs",
       [](GpuSimConfig& c) {
         c.num_sms = 80;
         c.l1_bytes = 4 * 1024;
         c.max_outstanding_per_sm = 3;
         c.mag_bytes = 64;
       }},
  };
  uint64_t seed = 1;
  for (const Geometry& g : geometries) {
    SCOPED_TRACE(g.what);
    GpuSimConfig cfg;
    g.edit(cfg);
    Rng rng(seed++);
    // Memory-bound and compute-bound kernels, read- and write-heavy mixes,
    // sizes that are not a multiple of accesses_per_cta, an empty kernel,
    // integral compute, and a kernel re-reading an earlier footprint.
    // accesses_per_cta = 0 replays as one access per CTA.
    std::vector<KernelTrace> trace;
    trace.push_back(random_kernel(rng, cfg, 3000, 0.25, 0.1, 8));
    trace.push_back(random_kernel(rng, cfg, 503, 40.0, 0.2, 5));
    trace.push_back(KernelTrace{});
    trace.push_back(random_kernel(rng, cfg, 2501, 1.7, 0.7, 7));
    trace.push_back(random_kernel(rng, cfg, 777, 3.3, 0.0, 0));
    trace.push_back(random_kernel(rng, cfg, 1200, 2.0, 0.3, 8));
    trace.push_back(trace[0]);

    GpuSim sim(cfg);
    test::RefGpuSim ref(cfg);
    const SimStats got = sim.run(trace);
    const SimStats want = ref.run(trace);
    EXPECT_TRUE(got == want) << "cycles " << got.cycles << " vs " << want.cycles
                             << ", row hits " << got.row_hits << " vs " << want.row_hits;
    // The mix must reach the paths it is meant to cover.
    EXPECT_GT(want.l1_hits, 0u);
    EXPECT_GT(want.l2_hits, 0u);
    EXPECT_GT(want.l2_writebacks, 0u);
    EXPECT_GT(want.mdc_misses, 0u);
    EXPECT_GT(want.row_hits, 0u);
    EXPECT_GT(want.decompressions, 0u);
  }
}

}  // namespace
}  // namespace slc
