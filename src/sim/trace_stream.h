// TraceStream: the bounded producer/consumer channel between trace capture
// and timing replay.
//
// One chunk = one completed KernelTrace. The producer side (ApproxMemory's
// trace sink, a bench generator, or the materialized-vector adapter in
// GpuSim::run) pushes chunks as kernels finish capture; the consumer side
// (GpuSim::run(TraceStream&)) pops and replays them. The queue is bounded by
// a chunk budget: a push against a full queue blocks until the simulator
// drains a chunk, so the functional run's trace footprint stays
// O(stream_chunk_budget) kernels instead of O(whole trace) — backpressure,
// not buffering, is what removes the memory bound on trace length.
//
// Lifecycle: the producer push()es then close()s (end of trace: pop returns
// null once the queue drains). The consumer may cancel() instead — queued
// chunks are discarded and every present or future push returns false — so
// a consumer abandoning mid-stream (error, shutdown, test teardown) unblocks
// a producer parked on backpressure instead of deadlocking it. Both sides
// must settle (producer sees push -> false, or the consumer joins the
// producer thread) before the stream is destroyed.
//
// Chunks are shared_ptr<const KernelTrace> so the materialized adapter can
// wrap a caller-owned vector without copying (aliasing, non-owning
// pointers) while the streaming path hands over heap-allocated chunks.
//
// Footprint accounting: chunk_high_water() / access_high_water() record the
// deepest the queue ever got (in kernels and in TraceAccess entries), so
// "bounded by the budget" is measured, not asserted — SimStats carries both
// as stream_chunk_hwm / stream_access_hwm.
//
// Thread safety: any number of producers/consumers, though the intended
// topology is one of each. Annotated per the repo lock discipline
// (common/thread_safety.h): explicit while-loop condvar waits, no predicate
// lambdas.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>

#include "common/thread_safety.h"
#include "workloads/approx_memory.h"

namespace slc {

class TraceStream {
 public:
  /// `chunk_budget` bounds the number of queued chunks; 0 = unbounded (the
  /// materialized adapter's mode — the whole trace already exists, so
  /// backpressure would only deadlock the single-threaded caller).
  explicit TraceStream(size_t chunk_budget = 0) : budget_(chunk_budget) {}

  // --- producer side -------------------------------------------------------

  /// Queues one kernel chunk, blocking while the queue is at budget. Returns
  /// false when the consumer cancelled (the chunk is dropped); throws
  /// std::logic_error on push after close (producer bug). The chunk may own
  /// its trace or alias a caller's (the materialized adapter borrows the
  /// vector's elements this way).
  bool push(std::shared_ptr<const KernelTrace> chunk) SLC_EXCLUDES(m_);

  /// End of trace: no further push is legal; pop drains the queue then
  /// returns null. Idempotent.
  void close() SLC_EXCLUDES(m_);

  // --- consumer side -------------------------------------------------------

  /// Next chunk, blocking while the queue is empty and the stream is open.
  /// Null means end of stream: closed and drained, or cancelled.
  std::shared_ptr<const KernelTrace> pop() SLC_EXCLUDES(m_);

  /// Consumer abandons the stream: discards queued chunks and makes every
  /// blocked or future push return false. Idempotent.
  void cancel() SLC_EXCLUDES(m_);

  // --- observability -------------------------------------------------------

  size_t chunk_budget() const { return budget_; }
  /// Peak queue depth in chunks (kernels).
  size_t chunk_high_water() const SLC_EXCLUDES(m_);
  /// Peak queue depth in TraceAccess entries — the footprint proxy.
  uint64_t access_high_water() const SLC_EXCLUDES(m_);

 private:
  const size_t budget_;

  mutable Mutex m_;
  CondVar can_push_;  ///< signals: queue below budget, or cancelled/closed
  CondVar can_pop_;   ///< signals: queue non-empty, or closed/cancelled
  std::deque<std::shared_ptr<const KernelTrace>> q_ SLC_GUARDED_BY(m_);
  bool closed_ SLC_GUARDED_BY(m_) = false;
  bool cancelled_ SLC_GUARDED_BY(m_) = false;
  size_t chunk_hwm_ SLC_GUARDED_BY(m_) = 0;
  uint64_t queued_accesses_ SLC_GUARDED_BY(m_) = 0;
  uint64_t access_hwm_ SLC_GUARDED_BY(m_) = 0;
};

}  // namespace slc
