// ApproxMemory: the device-memory model with the paper's extended
// cudaMalloc() annotation (Sec. IV-C) plus block-level trace capture.
//
//   cudaMalloc(void** p, size_t size, bool safeToApprox, size_t threshold)
//
// maps to alloc(name, bytes, safe, threshold). Regions live at contiguous
// 128 B-aligned device addresses. Whenever a region's contents cross the DRAM
// boundary (host upload at init, kernel writeback), the harness calls
// commit() or commit_async(): every block is pushed through the installed
// BlockCodec, which yields the burst count for the timing trace and — for SLC
// lossy blocks in safe regions — the approximated contents later reads
// observe.
//
// Async commits: commit_async(r) queues the region's block work as one
// CodecEngine job and returns immediately, so the harness thread can capture
// the next kernel's trace or generate data for other regions while the
// engine compresses. The job's shards accumulate CommitStats into per-worker
// slots kept next to the region's handle. Every observation of a region —
// span(), trace_*(), region_stats(), stats(), flush() — first *settles* that
// region (waits its pending commit, then merges the per-worker slots on this
// thread), so any-thread-count results stay byte-identical to the serial
// commit() path; the only code that may touch a region's bytes without
// settling is a span taken BEFORE the async commit and dereferenced before
// the next settle point — don't do that; re-acquire spans after a
// commit_async of the same region.
//
// Kernel-level tracing: begin_kernel() opens a kernel record; trace_read(),
// trace_zip() and trace_block() append block-granular accesses carrying the
// burst count in effect (from the region's latest settled commit). The timing simulator
// replays the trace; the functional run uses the mutated arrays. Both derive
// from the same codec decisions.
//
// Threading model: one ApproxMemory belongs to one harness thread. The
// *engine workers* run its queued commits concurrently, but all member
// calls — including the const observers, which settle (and therefore
// mutate lazily-deferred state) — must come from a single thread or be
// externally synchronized. Distinct ApproxMemory instances may share an
// engine freely.
//
// Deliberately mutex-free, so it carries none of the thread-safety
// annotations the locked subsystems use (common/thread_safety.h): the only
// cross-thread sharing is engine workers writing block-disjoint slices of a
// committing region and their own per-worker stats slots, and the
// settle-on-access path synchronizes with them through CodecFuture::wait()
// (the job's mutex + the completed-count handoff) before any harness-side
// read. There is no lock hierarchy to annotate; the TSan CI tier is this
// file's race watchdog.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/block.h"
#include "common/stats.h"
#include "compress/block_codec.h"
#include "engine/codec_engine.h"

namespace slc {

class TraceStream;

using RegionId = uint32_t;

/// One block-level memory access in the timing trace.
struct TraceAccess {
  uint64_t addr = 0;       ///< device address (128 B aligned)
  /// DRAM bursts if this access misses all caches. Wide on purpose: a
  /// geometry with block_bytes / mag_bytes > 255 (or a codec reporting
  /// outsized burst counts) must not silently wrap.
  uint32_t bursts = 0;
  bool write = false;
};

/// One kernel launch in the trace.
struct KernelTrace {
  std::string name;
  /// SM compute cycles consumed per block access — the workload's
  /// compute-to-memory calibration knob (higher = less memory-bound).
  double compute_per_access = 1.0;
  /// Accesses issued by consecutive CTAs; the simulator distributes them
  /// round-robin over SMs in groups of `accesses_per_cta`.
  uint32_t accesses_per_cta = 8;
  std::vector<TraceAccess> accesses;
};

/// Aggregate compression statistics over the commits of a run.
struct CommitStats {
  uint64_t blocks = 0;
  uint64_t lossy_blocks = 0;
  uint64_t uncompressed_blocks = 0;
  uint64_t bursts = 0;
  uint64_t truncated_symbols = 0;
  uint64_t original_bits = 0;
  uint64_t lossless_bits = 0;
  uint64_t final_bits = 0;
  /// Fingerprint-memo outcomes over the committed blocks (all zero for
  /// codecs without a cache). Unlike every field above, these counters are
  /// NOT thread-count invariant when a cache is shared across workers —
  /// compare cached runs with same_decisions(), not operator==.
  CacheCounters cache;

  double avg_bursts() const {
    return blocks ? static_cast<double>(bursts) / static_cast<double>(blocks) : 0.0;
  }
  double lossy_fraction() const {
    return blocks ? static_cast<double>(lossy_blocks) / static_cast<double>(blocks) : 0.0;
  }

  /// All-field equality — the determinism checks compare whole accumulators
  /// so a new counter can never silently escape them. For runs with a
  /// fingerprint cache enabled this is stricter than the determinism
  /// contract (hit/miss tallies race); those compare same_decisions().
  bool operator==(const CommitStats&) const = default;

  /// Every decision-derived counter equal, cache tallies ignored — the
  /// equality a cached run is guaranteed to share with an uncached (or
  /// differently-threaded) run of the same stream.
  bool same_decisions(const CommitStats& o) const {
    return blocks == o.blocks && lossy_blocks == o.lossy_blocks &&
           uncompressed_blocks == o.uncompressed_blocks && bursts == o.bursts &&
           truncated_symbols == o.truncated_symbols && original_bits == o.original_bits &&
           lossless_bits == o.lossless_bits && final_bits == o.final_bits;
  }

  /// Folds another accumulator into this one (integer counters, so merging
  /// is exact in any order — settle() merges per-commit stats with this).
  void merge(const CommitStats& o) {
    blocks += o.blocks;
    lossy_blocks += o.lossy_blocks;
    uncompressed_blocks += o.uncompressed_blocks;
    bursts += o.bursts;
    truncated_symbols += o.truncated_symbols;
    original_bits += o.original_bits;
    lossless_bits += o.lossless_bits;
    final_bits += o.final_bits;
    cache.merge(o.cache);
  }
};

class ApproxMemory {
 public:
  ApproxMemory() = default;
  /// Settles every pending async commit (exceptions from in-flight codec
  /// jobs are swallowed here — wait via flush() to observe them).
  ~ApproxMemory();

  // Pending futures are one-shot and their jobs write into this object's
  // region buffers, so copies are unsound; moves transfer the whole model.
  ApproxMemory(const ApproxMemory&) = delete;
  ApproxMemory& operator=(const ApproxMemory&) = delete;
  ApproxMemory(ApproxMemory&&) = default;
  ApproxMemory& operator=(ApproxMemory&&) = delete;

  /// Installs the memory-controller codec. Null reverts to exact memory
  /// (golden run): commits neither mutate nor record bursts below max.
  void set_codec(std::shared_ptr<const BlockCodec> codec) { codec_ = std::move(codec); }
  const BlockCodec* codec() const { return codec_.get(); }

  /// Installs the engine commits shard their block work across. Defaults to
  /// the process-wide shared engine; results are identical for any thread
  /// count. Null forces the single-threaded inline path (commit_async then
  /// degrades to a synchronous commit). Settles pending commits first —
  /// their futures reference the engine being replaced.
  void set_engine(std::shared_ptr<CodecEngine> engine) {
    flush();
    engine_ = std::move(engine);
  }
  CodecEngine* engine() const { return engine_.get(); }

  /// Extended cudaMalloc (Sec. IV-C). `threshold_bytes` caps the codec's
  /// lossy threshold for this region (the codec applies the smaller of the
  /// two); by default there is no cap, so the codec's threshold applies.
  /// Ignored when safe_to_approx is false.
  RegionId alloc(std::string name, size_t bytes, bool safe_to_approx,
                 size_t threshold_bytes = SIZE_MAX);

  size_t num_regions() const { return regions_.size(); }
  size_t region_blocks(RegionId r) const { return regions_[r].data.size() / kBlockBytes; }
  bool region_safe(RegionId r) const { return regions_[r].safe; }
  size_t safe_region_count() const;

  /// Typed view of a region's current contents. Settles a pending async
  /// commit of `r` first, so the bytes seen are always post-commit; spans
  /// taken before a later commit_async(r) must be re-acquired afterwards.
  template <typename T>
  std::span<T> span(RegionId r) {
    settle(r);
    auto& d = regions_[r].data;
    return {reinterpret_cast<T*>(d.data()), d.size() / sizeof(T)};
  }
  template <typename T>
  std::span<const T> span(RegionId r) const {
    // Settling materializes lazily-deferred state; logically const.
    const_cast<ApproxMemory*>(this)->settle(r);
    const auto& d = regions_[r].data;
    return {reinterpret_cast<const T*>(d.data()), d.size() / sizeof(T)};
  }

  /// Pushes the region through the codec block-by-block: updates per-block
  /// burst counts, accumulates stats, and (SLC lossy blocks only) mutates the
  /// contents in place. Synchronous: equivalent to commit_async + settle.
  void commit(RegionId r);

  /// Queues the commit as one engine job and returns immediately. Back-to-
  /// back commits of the same region serialize (the second settles the
  /// first); commits of different regions run concurrently. Results and
  /// stats are byte-identical to commit() for any thread count. A codec
  /// exception surfaces at the settle point (flush(), stats(), span(), ...).
  /// Throws std::runtime_error when the installed engine is shut down: the
  /// region is left as it was, with nothing pending.
  void commit_async(RegionId r);

  /// Barrier: settles every pending async commit, folding its stats in.
  /// Rethrows the first codec exception any pending commit raised.
  void flush();

  /// True while region r has an un-settled async commit in flight.
  bool commit_pending(RegionId r) const { return regions_[r].pending.valid(); }

  /// Commits every region (host upload after init). Commits are queued
  /// asynchronously — regions pipeline through the engine back-to-back and
  /// settle on first observation, so callers needing a barrier add flush().
  void commit_all();

  // --- trace capture -------------------------------------------------------
  void begin_kernel(std::string name, double compute_per_access,
                    uint32_t accesses_per_cta = 8);
  // Every trace call appends to the kernel opened by begin_kernel() and
  // throws std::logic_error when no kernel is open.

  /// Appends one read access per block of the region.
  void trace_read(RegionId r);
  /// Interleaves same-index blocks of several regions (streaming kernels
  /// touching multiple arrays in lockstep).
  void trace_zip(std::span<const RegionId> reads, std::span<const RegionId> writes);
  /// Appends a single block access (settles r: bursts reflect the latest
  /// commit, async or not).
  void trace_block(RegionId r, size_t block, bool write);

  /// Kernels captured and not yet published to a trace sink. Without a sink
  /// this is the whole trace (the materialized path); with one it holds only
  /// the kernel currently being captured.
  const std::vector<KernelTrace>& trace() const { return trace_; }
  std::vector<KernelTrace> take_trace() { return std::move(trace_); }

  // --- streaming trace publication ----------------------------------------
  // With a sink installed, begin_kernel() publishes every previously
  // completed kernel as one TraceStream chunk before opening the next — a
  // chunk is immutable once published because trace_block() settles the
  // region at capture time, so the burst counts it recorded are final (the
  // settle-on-access ordering that makes commits publishable while later
  // kernels are still being captured). A full stream blocks begin_kernel()
  // — that backpressure is what bounds the trace footprint. end_trace()
  // publishes the last kernel and closes the stream; a cancelled sink
  // (consumer gone) detaches silently and later kernels stay in trace_.

  /// Installs the stream that receives completed kernel chunks. Replacing a
  /// live sink end_trace()s it first. The consumer (GpuSim::run) typically
  /// runs on another thread.
  void set_trace_sink(std::shared_ptr<TraceStream> sink);
  /// Publishes any still-buffered kernels and closes the sink (pop on the
  /// consumer side then drains and returns null). No-op without a sink.
  /// The destructor closes a forgotten sink WITHOUT publishing (it must not
  /// block), so a run that wants its last kernel replayed calls this.
  void end_trace();

  /// Whole-run stats. Settles every pending commit first so the counters
  /// always cover all commits issued so far.
  const CommitStats& stats();
  CommitStats region_stats(RegionId r) const;

 private:
  /// Per-block burst-store sentinel: the block has never been committed
  /// (exact/golden run), so reads cost max bursts. An explicit constant, not
  /// "0 means uncommitted" — 0 is not a value a codec can report (minimum is
  /// one burst), but keying committed-ness off an in-band value was fragile.
  static constexpr uint32_t kUncommittedBursts = UINT32_MAX;

  struct Region {
    std::string name;
    std::vector<uint8_t> data;
    bool safe = false;
    size_t threshold_bytes = SIZE_MAX;  ///< cap on the codec's threshold
    uint64_t base_addr = 0;
    /// Per-block bursts from the last commit (kUncommittedBursts before the
    /// first). Wide enough for any geometry — a uint8_t store silently
    /// wrapped once block_bytes / mag_bytes exceeded 255.
    std::vector<uint32_t> bursts;
    CommitStats stats;
    CodecFuture pending;  ///< in-flight async commit, if any
    /// The pending commit's per-worker accumulators (one per engine worker),
    /// merged by settle() after the job finished.
    std::vector<CommitStats> worker_stats;
  };

  /// Waits a pending async commit of r (if any) and folds its per-worker
  /// stats into the region and run totals. No-op when nothing is pending.
  void settle(RegionId r);

  /// Throws std::logic_error unless begin_kernel() opened a kernel.
  void require_kernel(const char* who) const;

  /// Pushes every kernel in trace_ to the sink (all are complete at the
  /// call sites: before begin_kernel opens the next, or at end_trace).
  /// Detaches from a cancelled sink.
  void publish_completed_kernels();

  uint32_t current_bursts(const Region& reg, size_t block) const;

  std::vector<Region> regions_;
  std::shared_ptr<const BlockCodec> codec_;
  std::shared_ptr<CodecEngine> engine_ = CodecEngine::shared_default();
  uint64_t next_addr_ = 0x1000'0000;  ///< device heap base
  std::vector<KernelTrace> trace_;
  std::shared_ptr<TraceStream> trace_sink_;  ///< null = materialize into trace_
  CommitStats stats_;
};

}  // namespace slc
