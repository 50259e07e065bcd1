// Simulator configuration (paper Table II: a GTX580-class GPU) and the
// counter set every run reports.
//
// The simulator is a cycle-level model of the paper's memory system: SMs
// replay kernel block traces through per-SM L1s, a crossbar, sliced L2, and
// six memory controllers with GDDR5 bank timing, metadata cache, and
// (de)compression pipelines. One global clock runs at the memory-controller
// frequency (1002 MHz); SM compute delays are scaled by the 822/1002 clock
// ratio.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/block.h"

namespace slc {

struct GpuSimConfig {
  // Compute subsystem (Table II).
  unsigned num_sms = 16;
  double sm_clock_ghz = 0.822;
  double mem_clock_ghz = 1.002;
  unsigned max_outstanding_per_sm = 64;  ///< MSHR entries / concurrent misses

  // Caches.
  size_t l1_bytes = 16 * 1024;   ///< per SM
  unsigned l1_ways = 4;
  size_t l2_bytes = 768 * 1024;  ///< total, sliced across MCs
  unsigned l2_ways = 16;
  size_t line_bytes = kBlockBytes;

  // Interconnect (one-way latency, memory cycles).
  unsigned icnt_latency = 16;

  // Memory system.
  unsigned num_mcs = 6;
  size_t mag_bytes = kDefaultMagBytes;  ///< 32-bit bus x burst 8 (GDDR5)
  unsigned banks_per_mc = 16;
  size_t row_bytes = 2048;
  unsigned t_rcd = 12, t_rp = 12, t_cl = 12, t_ras = 28;  ///< memory cycles
  /// Data bus beats per cycle; one beat = 16 B, so 32 B/cycle/MC
  /// = 6 x 32 B x 1.002 GHz = 192.4 GB/s aggregate (Table II).
  unsigned beats_per_cycle = 2;

  // L2 latency (lookup + queueing, memory cycles).
  unsigned l2_latency = 30;
  unsigned l1_latency = 24;  ///< hit latency, for stats only

  // Metadata cache (per MC): 2-bit burst counts, 64 B lines.
  size_t mdc_lines = 256;
  size_t mdc_line_coverage_blocks = 256;  ///< 64 B of 2-bit entries

  // Codec pipeline latencies (memory cycles; Sec. IV-A). Zero for RAW.
  unsigned compress_latency = 0;
  unsigned decompress_latency = 0;

  /// Write-queue watermark: writes drain when reads are idle or the queue
  /// exceeds this depth.
  size_t write_drain_watermark = 32;
  /// FR-FCFS scheduler window: only the oldest N queued requests are
  /// candidates each cycle (real controllers use a bounded CAM).
  size_t scheduler_window = 64;

  // Streaming replay (sim/trace_stream.h).
  /// Replay is single-threaded: GpuSim runs on the calling thread.
  static constexpr unsigned sim_workers = 1;
  /// Bound on queued kernel chunks between trace capture and replay
  /// (TraceStream budget); 0 = unbounded. The convention every harness that
  /// builds a stream from this config follows — the simulator itself never
  /// allocates the stream.
  size_t stream_chunk_budget = 8;

  double bandwidth_gbps() const {
    return static_cast<double>(num_mcs) * 32.0 * mem_clock_ghz;
  }
  size_t max_bursts() const { return line_bytes / mag_bytes; }
  double sm_cycle_scale() const { return mem_clock_ghz / sm_clock_ghz; }
};

/// Counters accumulated over one simulation.
struct SimStats {
  uint64_t cycles = 0;           ///< memory-clock cycles to drain all kernels
  uint64_t kernels = 0;          ///< kernel launches replayed
  uint64_t accesses = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t l1_hits = 0;
  uint64_t l1_misses = 0;
  uint64_t l2_hits = 0;
  uint64_t l2_misses = 0;
  uint64_t l2_writebacks = 0;
  uint64_t dram_read_bursts = 0;
  uint64_t dram_write_bursts = 0;
  uint64_t metadata_bursts = 0;  ///< MDC-miss fills
  uint64_t mdc_hits = 0;
  uint64_t mdc_misses = 0;
  uint64_t row_hits = 0;
  uint64_t row_misses = 0;       ///< activates (incl. conflicts)
  uint64_t decompressions = 0;
  uint64_t compressions = 0;
  /// Peak queued trace chunks/accesses observed on the TraceStream a run
  /// consumed (the materialized adapter reports the whole trace — its honest
  /// footprint). Watermarks, not event counts: merge() takes the max and
  /// same_counters() ignores them, since a streaming and a materialized
  /// replay of the same trace legitimately differ here and nowhere else.
  uint64_t stream_chunk_hwm = 0;
  uint64_t stream_access_hwm = 0;

  /// All-field equality (the equivalence checks compare whole stat blocks
  /// so a new counter can never silently escape them).
  bool operator==(const SimStats&) const = default;

  /// Every timing/traffic counter equal, stream watermarks ignored — the
  /// equality a streaming replay is guaranteed to share with a materialized
  /// replay of the same trace.
  bool same_counters(const SimStats& o) const {
    SimStats a = *this, b = o;
    a.stream_chunk_hwm = b.stream_chunk_hwm = 0;
    a.stream_access_hwm = b.stream_access_hwm = 0;
    return a == b;
  }

  /// Folds another accumulator into this one. Event counters add and
  /// watermarks (cycles, stream hwm) take the max, so merging is associative
  /// and commutative and a default-constructed SimStats is the identity:
  /// totals over several runs do not depend on the merge order.
  void merge(const SimStats& o) {
    cycles = std::max(cycles, o.cycles);
    kernels += o.kernels;
    accesses += o.accesses;
    reads += o.reads;
    writes += o.writes;
    l1_hits += o.l1_hits;
    l1_misses += o.l1_misses;
    l2_hits += o.l2_hits;
    l2_misses += o.l2_misses;
    l2_writebacks += o.l2_writebacks;
    dram_read_bursts += o.dram_read_bursts;
    dram_write_bursts += o.dram_write_bursts;
    metadata_bursts += o.metadata_bursts;
    mdc_hits += o.mdc_hits;
    mdc_misses += o.mdc_misses;
    row_hits += o.row_hits;
    row_misses += o.row_misses;
    decompressions += o.decompressions;
    compressions += o.compressions;
    stream_chunk_hwm = std::max(stream_chunk_hwm, o.stream_chunk_hwm);
    stream_access_hwm = std::max(stream_access_hwm, o.stream_access_hwm);
  }

  uint64_t dram_bursts_total() const {
    return dram_read_bursts + dram_write_bursts + metadata_bursts;
  }
  double exec_seconds(const GpuSimConfig& cfg) const {
    return static_cast<double>(cycles) / (cfg.mem_clock_ghz * 1e9);
  }
  /// Achieved DRAM data bandwidth in GB/s (excluding metadata).
  double achieved_bandwidth_gbps(const GpuSimConfig& cfg) const {
    const double bytes = static_cast<double>(dram_read_bursts + dram_write_bursts) *
                         static_cast<double>(cfg.mag_bytes);
    return bytes / exec_seconds(cfg) / 1e9;
  }
};

}  // namespace slc
