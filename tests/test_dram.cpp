// GDDR5 channel: FR-FCFS, row hits, bus occupancy in beats.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "dram_reference.h"
#include "sim/dram.h"

namespace slc {
namespace {

struct DramFixture : ::testing::Test {
  GpuSimConfig cfg;
  SimStats stats;

  // Runs the channel until all completions appear or `limit` cycles pass.
  std::vector<DramCompletion> drain(DramChannel& ch, size_t expect, uint64_t limit = 100000) {
    std::vector<DramCompletion> out;
    for (uint64_t cycle = 0; cycle < limit && out.size() < expect; ++cycle) {
      ch.tick(cycle);
      auto& comps = ch.completions();
      while (!comps.empty() && comps.front().finish_cycle <= cycle) {
        out.push_back(comps.front());
        comps.pop_front();
      }
    }
    return out;
  }
};

TEST_F(DramFixture, SingleReadCompletes) {
  DramChannel ch(cfg, stats);
  DramRequest r;
  r.addr = 0x1000;
  r.bursts = 4;
  r.tag = 7;
  ch.push_read(r);
  const auto done = drain(ch, 1);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].tag, 7u);
  // First access: activate (tRCD) + CAS (tCL) + 2 cycles data (4 bursts,
  // 8 beats, 2/cycle).
  EXPECT_GE(done[0].finish_cycle, cfg.t_rcd + cfg.t_cl + 2u);
  EXPECT_EQ(stats.dram_read_bursts, 4u);
  EXPECT_EQ(stats.row_misses, 1u);
}

TEST_F(DramFixture, RowHitsForSequentialBlocks) {
  DramChannel ch(cfg, stats);
  for (int i = 0; i < 8; ++i) {
    DramRequest r;
    r.addr = 0x1000 + static_cast<uint64_t>(i) * 128;  // same 2 KB row
    r.bursts = 4;
    r.tag = static_cast<uint64_t>(i);
    ch.push_read(r);
  }
  drain(ch, 8);
  EXPECT_EQ(stats.row_misses, 1u);
  EXPECT_EQ(stats.row_hits, 7u);
}

TEST_F(DramFixture, FewerBurstsFinishFaster) {
  SimStats s1, s2;
  DramChannel full(cfg, s1), comp(cfg, s2);
  DramRequest a;
  a.addr = 0;
  a.bursts = 4;
  a.tag = 0;
  DramRequest b = a;
  b.bursts = 1;
  full.push_read(a);
  comp.push_read(b);
  const auto d1 = drain(full, 1);
  const auto d2 = drain(comp, 1);
  EXPECT_LT(d2[0].finish_cycle, d1[0].finish_cycle);
}

TEST_F(DramFixture, BusSerializesBackToBackTransfers) {
  DramChannel ch(cfg, stats);
  for (int i = 0; i < 16; ++i) {
    DramRequest r;
    r.addr = 0x2000 + static_cast<uint64_t>(i) * 128;
    r.bursts = 4;
    r.tag = static_cast<uint64_t>(i);
    ch.push_read(r);
  }
  const auto done = drain(ch, 16);
  ASSERT_EQ(done.size(), 16u);
  // 16 blocks x 4 bursts x 2 beats/burst... = 128 beats / 2 per cycle = 64
  // data cycles minimum spread.
  uint64_t last = 0;
  for (const auto& d : done) last = std::max(last, d.finish_cycle);
  EXPECT_GE(last, 64u);
}

TEST_F(DramFixture, WritesDrainWhenNoReads) {
  DramChannel ch(cfg, stats);
  DramRequest w;
  w.addr = 0x3000;
  w.bursts = 4;
  w.write = true;
  w.tag = 1;
  ch.push_write(w);
  const auto done = drain(ch, 1);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(done[0].write);
  EXPECT_EQ(stats.dram_write_bursts, 4u);
}

TEST_F(DramFixture, ReadsHavePriorityOverWrites) {
  DramChannel ch(cfg, stats);
  for (int i = 0; i < 4; ++i) {
    DramRequest w;
    w.addr = 0x8000 + static_cast<uint64_t>(i) * 128;
    w.bursts = 4;
    w.write = true;
    w.tag = 100 + static_cast<uint64_t>(i);
    ch.push_write(w);
  }
  DramRequest r;
  r.addr = 0x100;
  r.bursts = 4;
  r.tag = 1;
  ch.push_read(r);
  const auto done = drain(ch, 5);
  ASSERT_EQ(done.size(), 5u);
  EXPECT_EQ(done[0].tag, 1u) << "the read must finish before the writes";
}

TEST_F(DramFixture, MetadataCountsSeparately) {
  DramChannel ch(cfg, stats);
  DramRequest m;
  m.addr = 0x9000;
  m.bursts = 1;
  m.metadata = true;
  m.tag = 2;
  ch.push_read(m);
  drain(ch, 1);
  EXPECT_EQ(stats.metadata_bursts, 1u);
  EXPECT_EQ(stats.dram_read_bursts, 0u);
}

TEST_F(DramFixture, MagScalesBeatCount) {
  GpuSimConfig cfg64 = cfg;
  cfg64.mag_bytes = 64;
  SimStats s64;
  DramChannel ch(cfg64, s64);
  DramRequest r;
  r.addr = 0;
  r.bursts = 2;  // 2 x 64 B = 8 beats = 4 cycles
  r.tag = 0;
  ch.push_read(r);
  const auto done = drain(ch, 1);
  EXPECT_GE(done[0].finish_cycle, cfg.t_rcd + cfg.t_cl + 4u);
}

// Regression: next_event_cycle used to min over *every* bank, and idle banks
// sit at ready_cycle 0 — so a busy channel could never fast-forward past
// now + 1. The next event must come from the banks queued requests actually
// target (and the bus), letting a quiet channel skip ahead.
TEST_F(DramFixture, NextEventSkipsAheadWhileTargetBankBusy) {
  DramChannel ch(cfg, stats);
  for (int i = 0; i < 2; ++i) {
    DramRequest r;
    r.addr = 0x1000 + static_cast<uint64_t>(i) * 128;  // same row, same bank
    r.bursts = 4;
    r.tag = static_cast<uint64_t>(i);
    ch.push_read(r);
  }
  ch.tick(0);  // issues the first request; its bank is busy until the data phase ends
  const uint64_t nxt = ch.next_event_cycle(0);
  // First access: tRCD + tCL + 4 transfer cycles (4 bursts, 8 beats, 2/cycle).
  const uint64_t busy_until = cfg.t_rcd + cfg.t_cl + 4u;
  EXPECT_GT(nxt, 1u) << "a quiet channel must skip more than one cycle";
  EXPECT_EQ(nxt, busy_until);
  // The skip must not overshoot: the channel still completes both requests.
  const auto done = drain(ch, 2);
  EXPECT_EQ(done.size(), 2u);
}

TEST_F(DramFixture, NextEventIdleChannelHasNoEvent) {
  DramChannel ch(cfg, stats);
  EXPECT_EQ(ch.next_event_cycle(0), UINT64_MAX);
  EXPECT_EQ(ch.next_event_cycle(12345), UINT64_MAX);
}

TEST_F(DramFixture, NextEventImmediateWhenTargetBankReady) {
  DramChannel ch(cfg, stats);
  DramRequest r;
  r.addr = 0x1000;
  r.bursts = 4;
  ch.push_read(r);
  // Nothing issued yet and the target bank is idle: the next event is the
  // very next cycle.
  EXPECT_EQ(ch.next_event_cycle(7), 8u);
}

TEST_F(DramFixture, BankConflictSlowerThanParallelBanks) {
  // Same bank, different rows -> serialized precharge/activate.
  SimStats s_conflict;
  DramChannel conflict(cfg, s_conflict);
  const uint64_t bank_stride = cfg.row_bytes * cfg.banks_per_mc;
  for (int i = 0; i < 4; ++i) {
    DramRequest r;
    r.addr = static_cast<uint64_t>(i) * bank_stride;  // same bank, new row
    r.bursts = 1;
    r.tag = static_cast<uint64_t>(i);
    conflict.push_read(r);
  }
  SimStats s_par;
  DramChannel parallel(cfg, s_par);
  for (int i = 0; i < 4; ++i) {
    DramRequest r;
    r.addr = static_cast<uint64_t>(i) * cfg.row_bytes;  // different banks
    r.bursts = 1;
    r.tag = static_cast<uint64_t>(i);
    parallel.push_read(r);
  }
  uint64_t t_conflict = 0, t_par = 0;
  for (const auto& d : drain(conflict, 4)) t_conflict = std::max(t_conflict, d.finish_cycle);
  for (const auto& d : drain(parallel, 4)) t_par = std::max(t_par, d.finish_cycle);
  EXPECT_GT(t_conflict, t_par);
  EXPECT_EQ(s_conflict.row_misses, 4u);
}

// Differential: DramChannel's per-bank window index against the scan-based
// reference scheduler, cycle by cycle. Each geometry runs random request
// mixes in phases: bursts of arrivals that push both queues past the
// scheduler window (so requests enter it on erase) and the write queue past
// its drain watermark, then quiet stretches that drain them. Addresses
// either cluster on a few rows (row hits, bank conflicts) or scatter across
// banks. Non-power-of-two banks, row size and window keep the address
// decode honest.
struct DiffGeometry {
  unsigned banks_per_mc;
  size_t row_bytes;
  size_t scheduler_window;
  size_t write_drain_watermark;
};

void run_differential(const DiffGeometry& g, uint64_t seed) {
  GpuSimConfig cfg;
  cfg.banks_per_mc = g.banks_per_mc;
  cfg.row_bytes = g.row_bytes;
  cfg.scheduler_window = g.scheduler_window;
  cfg.write_drain_watermark = g.write_drain_watermark;
  SimStats stats, ref_stats;
  DramChannel ch(cfg, stats);
  test::RefDramChannel ref(cfg, ref_stats);
  Rng rng(seed);

  const uint64_t bank_stride = cfg.row_bytes * cfg.banks_per_mc;
  std::vector<uint64_t> hot_rows;  // row-aligned bases for clustered traffic
  for (int i = 0; i < 5; ++i) hot_rows.push_back(rng.next_below(64) * cfg.row_bytes);
  uint64_t tag = 0;
  size_t max_reads = 0, max_writes = 0;
  for (uint64_t cycle = 0; cycle < 30000; ++cycle) {
    // 600-cycle phases: heavy arrivals (~1.2 per cycle), light arrivals
    // (~0.1 per cycle), then quiet.
    const uint64_t phase = (cycle / 600) % 3;
    const double p_arrival = phase == 0 ? 0.55 : phase == 1 ? 0.1 : 0.0;
    while (rng.chance(p_arrival)) {
      DramRequest r;
      r.addr = rng.chance(0.5)
                   ? hot_rows[rng.next_below(hot_rows.size())] + rng.next_below(cfg.row_bytes)
                   : rng.next_below(64 * bank_stride);
      r.bursts = static_cast<uint32_t>(1 + rng.next_below(4));
      r.tag = tag++;
      const uint64_t kind = rng.next_below(8);
      if (kind < 3) {
        r.write = true;
        ch.push_write(r);
        ref.push_write(r);
      } else {
        r.metadata = kind == 3;
        ch.push_read(r);
        ref.push_read(r);
      }
    }
    max_reads = std::max(max_reads, ch.read_queue_depth());
    max_writes = std::max(max_writes, ch.write_queue_depth());

    ch.tick(cycle);
    ref.tick(cycle);
    auto& got = ch.completions();
    auto& want = ref.completions();
    ASSERT_EQ(got.size(), want.size()) << "cycle " << cycle;
    for (; !got.empty(); got.pop_front(), want.pop_front()) {
      ASSERT_EQ(got.front().tag, want.front().tag) << "cycle " << cycle;
      ASSERT_EQ(got.front().finish_cycle, want.front().finish_cycle) << "cycle " << cycle;
      ASSERT_EQ(got.front().write, want.front().write) << "cycle " << cycle;
      ASSERT_EQ(got.front().metadata, want.front().metadata) << "cycle " << cycle;
    }
    ASSERT_TRUE(stats == ref_stats) << "cycle " << cycle;
    ASSERT_EQ(ch.next_event_cycle(cycle), ref.next_event_cycle(cycle)) << "cycle " << cycle;
  }
  // The mix must actually have reached the regimes it is meant to cover.
  EXPECT_GT(max_reads, cfg.scheduler_window);
  EXPECT_GT(max_writes, std::max(cfg.scheduler_window, cfg.write_drain_watermark));
  EXPECT_GT(stats.row_hits, 0u);
  EXPECT_GT(stats.row_misses, 0u);
  EXPECT_GT(stats.metadata_bursts, 0u);
}

TEST(DramDifferential, MatchesScanReferenceCycleByCycle) {
  const DiffGeometry geometries[] = {
      {16, 2048, 64, 32},  // the simulator's defaults (Table II)
      {7, 1536, 13, 5},
      {12, 1000, 24, 40},
      {3, 4096, 1, 2},
      {80, 2048, 96, 32},  // more banks than a 64-bit word holds
  };
  uint64_t seed = 1;
  for (const DiffGeometry& g : geometries) {
    SCOPED_TRACE(::testing::Message() << "banks " << g.banks_per_mc << ", row " << g.row_bytes
                                      << " B, window " << g.scheduler_window << ", watermark "
                                      << g.write_drain_watermark);
    run_differential(g, seed++);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace slc
