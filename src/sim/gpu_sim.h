// Top-level cycle-level GPU memory-subsystem simulator (Fig. 3's system):
// SMs replay per-kernel block traces; misses traverse interconnect -> sliced
// L2 -> memory controller (metadata cache + compressor/decompressor) ->
// GDDR5 channel. Kernels execute back-to-back with a full drain barrier
// between launches, as GPGPU-Sim does for dependent kernels.
//
// The trace carries each block's compressed burst count (produced by the
// same codec decisions that generated the functional approximation), so
// timing and error derive from identical compression outcomes.
//
// Streaming (see docs/ARCHITECTURE.md "Streaming simulation"):
// run(TraceStream&) replays kernels as a producer publishes them, so the
// materialized trace never has to exist; run(const vector&) is a thin
// adapter wrapping the vector in a pre-closed stream of borrowed chunks.
// Replay runs on the calling thread, and every run() starts from a cold
// machine: SMs, caches, DRAM channels, counters and clock are rebuilt, so
// a reused GpuSim reports exactly what a fresh one would.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "sim/cache.h"
#include "sim/dram.h"
#include "sim/sim_config.h"
#include "sim/trace_stream.h"
#include "workloads/approx_memory.h"

namespace slc {

class GpuSim {
 public:
  explicit GpuSim(GpuSimConfig cfg) : cfg_(cfg) {}
  // The DRAM channels hold references to cfg_ and stats_.
  GpuSim(const GpuSim&) = delete;
  GpuSim& operator=(const GpuSim&) = delete;

  /// Runs all kernels of a materialized trace; returns the accumulated
  /// counters. Thin adapter over the stream path: the vector is wrapped in
  /// an already-closed stream of borrowed (non-owning) chunks, so the
  /// reported stream watermarks equal the whole trace — the honest
  /// footprint of materialize-then-replay.
  SimStats run(const std::vector<KernelTrace>& trace);

  /// Streaming replay: pops kernel chunks until the stream closes and
  /// drains. An empty closed stream returns zeroed stats. The producer owns
  /// close(); this consumer never cancels — callers tearing down early
  /// cancel the stream themselves.
  SimStats run(TraceStream& stream);

  /// Replays the trace captured in `mem`, flushing its pending async region
  /// commits first — the burst counts a replay consumes must be final, so
  /// this is the safe way to chain a pipelined functional run into the
  /// timing simulation.
  SimStats run(ApproxMemory& mem);

  const GpuSimConfig& config() const { return cfg_; }

 private:
  struct SmState {
    std::vector<TraceAccess> queue;
    size_t next = 0;
    double credit = 0.0;     ///< compute cycles owed before the next issue
    unsigned outstanding = 0;///< in-flight read misses
  };

  /// A request travelling between components, keyed by arrival cycle.
  struct InFlight {
    TraceAccess access;
    uint16_t sm = 0;
    uint64_t ready = 0;  ///< cycle it becomes visible to the next stage
  };
  struct ReadyOrder {
    bool operator()(const InFlight& a, const InFlight& b) const { return a.ready > b.ready; }
  };
  using InFlightQueue = std::priority_queue<InFlight, std::vector<InFlight>, ReadyOrder>;

  /// One memory partition: its L2/MDC slice, DRAM channel, queues and
  /// read-tag pool. The channel counts into GpuSim::stats_.
  struct McState {
    Cache l2;
    Cache mdc;
    DramChannel dram;
    InFlightQueue arrivals;   ///< requests crossing the interconnect
    InFlightQueue staged;     ///< writebacks waiting out the compress latency
    InFlightQueue responses;  ///< read data returning to SMs via this MC
    std::vector<InFlight> inflight_reads;  ///< indexed by DRAM tag
    std::vector<uint64_t> free_tags;       ///< released tags, reused last-in first-out
    McState(const GpuSimConfig& cfg, SimStats& stats);
    uint64_t alloc_tag(const InFlight& f);
  };

  GpuSimConfig cfg_;
  SimStats stats_;
  std::vector<SmState> sms_;
  std::vector<Cache> l1_;
  std::vector<McState> mcs_;
  uint64_t cycle_ = 0;

  size_t mc_index(uint64_t addr) const;
  /// Channel-local address: strips the channel-interleave bits so row/bank
  /// decoding sees the contiguous space this channel actually owns (16
  /// consecutive line accesses per 2 KB row instead of 4).
  uint64_t channel_local(uint64_t addr) const;
  void sm_issue(uint16_t sm_id, double compute_scale);
  void mc_process(McState& mc);
  void deliver_responses();
  bool drained() const;
  uint64_t next_event_cycle() const;
  void run_kernel(const KernelTrace& kernel);
};

}  // namespace slc
