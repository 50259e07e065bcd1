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
  /// Throws std::invalid_argument for a geometry the simulator cannot
  /// model: a zero count, size or rate it divides by, more SMs than an SM
  /// id holds, a cache smaller than one set, a line size that is not a
  /// power of two, or a non-positive clock.
  explicit GpuSim(GpuSimConfig cfg);
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
  /// close(); this consumer cancels only when it meets a kernel it cannot
  /// replay (negative, non-finite or over 2^32 scaled compute cycles per
  /// access), and then throws std::invalid_argument. Callers tearing down
  /// early cancel the stream themselves.
  SimStats run(TraceStream& stream);

  /// Replays the trace captured in `mem`, flushing its pending async region
  /// commits first — the burst counts a replay consumes must be final, so
  /// this is the safe way to chain a pipelined functional run into the
  /// timing simulation.
  SimStats run(ApproxMemory& mem);

  const GpuSimConfig& config() const { return cfg_; }

 private:
  /// One SM's cursor into the kernel being replayed. SM s replays CTAs
  /// s, s + num_sms, s + 2 * num_sms, ... in order, straight out of the
  /// KernelTrace, which the caller keeps alive until run_kernel returns.
  struct SmState {
    const TraceAccess* next = nullptr;     ///< next access; null once done
    const TraceAccess* cta_end = nullptr;  ///< end of the current CTA
    size_t cta = 0;                        ///< current CTA index
    unsigned outstanding = 0;              ///< in-flight read misses
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
    /// Earliest cycle at which mc_process can act: the arrival and staged
    /// heads, the first DRAM completion and the DRAM's next issue cycle
    /// (UINT64_MAX when all are empty). mc_process recomputes it; an SM
    /// push lowers it.
    uint64_t wake = UINT64_MAX;
    McState(const GpuSimConfig& cfg, SimStats& stats);
    uint64_t alloc_tag(const InFlight& f);
  };

  GpuSimConfig cfg_;
  SimStats stats_;
  std::vector<SmState> sms_;
  /// Why an SM cannot issue whatever its credit: every MSHR is busy and
  /// its next access is a read, or it has no access left.
  enum class Stall : uint8_t { kNone, kMshrFull, kDone };
  /// Per-SM compute cycles owed before the next issue, and per-SM stall,
  /// apart from SmState so the per-step scans read two flat arrays.
  std::vector<double> credit_;
  std::vector<Stall> stall_;
  std::vector<Cache> l1_;
  std::vector<McState> mcs_;
  uint64_t cycle_ = 0;
  const KernelTrace* kernel_ = nullptr;  ///< kernel being replayed
  size_t per_cta_ = 1;                   ///< its accesses per CTA

  size_t mc_index(uint64_t addr) const;
  /// Channel-local address: strips the channel-interleave bits so row/bank
  /// decoding sees the contiguous space this channel actually owns (16
  /// consecutive line accesses per 2 KB row instead of 4).
  uint64_t channel_local(uint64_t addr) const;
  /// Points `sm` at the first access of CTA sm.cta, or marks it done.
  void start_cta(SmState& sm) const;
  Stall stall_of(const SmState& sm) const;
  void sm_issue(uint16_t sm_id, double compute_scale);
  void mc_process(McState& mc);
  void deliver_responses();
  /// Earliest cycle any component can act, before the cycle_ + 1 floor;
  /// UINT64_MAX exactly when the machine has drained.
  uint64_t next_event_cycle() const;
  void run_kernel(const KernelTrace& kernel);
};

}  // namespace slc
