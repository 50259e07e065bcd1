// CodecEngine: batched multi-threaded driver for the codec stack.
//
// A persistent std::thread worker pool pulls fixed-size shards off a
// *priority job queue*: every submit*() call enqueues one
// independent job (its own [0, count) range, completion state and error
// slot), and workers drain whichever jobs are pending — so multiple
// analyze/compress/commit jobs can be in flight at once and the pool never
// idles between them. Each shard claim goes to the highest-priority job with
// unclaimed shards — earliest deadline first within a priority band, FIFO
// among equal (priority, deadline) — so a latency-sensitive job preempts
// queued bulk work at shard granularity without cancelling it, and two
// deadline-boosted jobs drain in deadline order instead of submission order.
//
// Determinism contract (per job): shard->worker assignment is
// nondeterministic, but bodies write only to index-aligned slots and keep
// accumulation per worker_id; finalizers merge the per-worker integer
// counters after the job drained, so a 1-thread and an N-thread run produce
// byte-identical results — the property the tier-1 determinism test pins
// down. Jobs never share accumulators, so concurrency across jobs cannot
// change any job's result; priority reorders *which job's shards run next*,
// never anything inside a job's result.
//
// Two modes, matching the consumers:
//   * full-payload  — submit_compress(): every block's bit stream (the
//                     functional path / roundtrip studies)
//   * size-only     — submit_analyze()/analyze_bytes(): sizes + ratios only
//                     (the simulator's and the ratio benches' common case)
// Every entry point but analyze_bytes() returns a CodecFuture; a caller that
// wants the result now waits on it. The generic submit()/submit_job()
// underlie ApproxMemory::commit_async() and the CodecServer's batch dispatch
// (src/server/).
#pragma once

#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/stats.h"
#include "common/thread_safety.h"
#include "compress/compressor.h"

namespace slc {

class CodecEngine;
class FingerprintCache;

namespace detail {

/// One submitted job: an independent shard range plus its own completion and
/// error state. Shared between the queue, the workers still running its
/// shards, and the future holding it. Completion (`completed`/`finished`/
/// `error`) is guarded by the job's own mutex so a future can wait on the
/// job even after the engine that ran it is gone; the shard cursor (`next`)
/// stays under the engine mutex with the queue.
struct EngineJob {
  /// The shard body. Written only while the job is unshared (enqueue) or
  /// after it drained (finish_shard/abandon release it under m_); workers
  /// call it unlocked — the completed_ == count handoff, not a mutex, is
  /// what proves no call is in flight when it is released.
  std::function<void(size_t begin, size_t end, unsigned worker_id)> body;
  size_t count = 0;
  size_t shard = 1;
  size_t next = 0;  ///< next shard start (claimed under the engine mutex)
  int priority = 0; ///< higher claims first
  /// EDF tiebreak inside a priority band: among equal-priority jobs the
  /// earliest deadline claims first; equal (priority, deadline) drains FIFO.
  /// max() = no deadline (sorts after every dated job in its band).
  /// Immutable after enqueue, like priority — read under the engine mutex
  /// but never written concurrently.
  std::chrono::steady_clock::time_point deadline = std::chrono::steady_clock::time_point::max();

  /// Marks `items` of this job done (body returned or shard cancelled); the
  /// first exception wins. The last shard releases the body's captures.
  void finish_shard(size_t items, std::exception_ptr thrown);
  /// Marks a never-to-be-drained job finished with `reason` so waiters
  /// throw instead of hanging (engine shutdown with jobs still queued).
  /// Invokes the abandon hook, if one is installed, after the job is marked.
  void abandon(std::exception_ptr reason);
  /// Installs `hook`, invoked exactly once — with the stored exception, on
  /// the abandoning thread, outside every engine lock — if this job is
  /// abandoned. Returns false when the job already finished (drained or
  /// abandoned): the hook is neither stored nor invoked, and the caller owns
  /// handling that state. Fire-and-forget submitters (the CodecServer's
  /// batches) use this so work the pool will never run still completes.
  bool set_abandon_hook(std::function<void(std::exception_ptr)> hook);
  /// Blocks until the job drained; rethrows its first shard exception.
  void wait();
  /// Non-blocking: has the job drained (result or exception ready)?
  bool ready() const;
  /// True when a claimed shard must be cancelled (a prior shard threw).
  bool cancelled() const;

 private:
  mutable Mutex m_;
  CondVar cv_;  ///< signals finished_ (the only predicate waited on m_)
  size_t completed_ SLC_GUARDED_BY(m_) = 0;  ///< items whose body returned
  bool finished_ SLC_GUARDED_BY(m_) = false;
  std::exception_ptr error_ SLC_GUARDED_BY(m_);
  std::function<void(std::exception_ptr)> abandon_hook_ SLC_GUARDED_BY(m_);
};

}  // namespace detail

/// Ticket for a job submitted to a CodecEngine. Move-only; wait() is
/// one-shot: it blocks until the job drained, rethrows the first exception a
/// shard threw, and otherwise materializes the job's result (merging
/// per-worker state). Inputs captured by the job (codec, block storage) must
/// stay alive until wait() returns. The future may outlive the engine: a job
/// abandoned by engine shutdown is marked finished with a stored exception,
/// so a late wait() throws instead of deadlocking. Destroying a future
/// without waiting leaks no memory but abandons the result; the job still
/// runs to completion.
template <typename T>
class CodecFuture {
 public:
  CodecFuture() = default;
  CodecFuture(CodecFuture&&) noexcept = default;
  CodecFuture& operator=(CodecFuture&&) noexcept = default;
  CodecFuture(const CodecFuture&) = delete;
  CodecFuture& operator=(const CodecFuture&) = delete;

  /// True until wait() consumed this future (default-constructed: false).
  bool valid() const { return state_ != nullptr; }
  /// Non-blocking: has the job drained (result or exception ready)?
  bool ready() const { return state_ && state_->job->ready(); }
  /// Blocks until the job drained, then returns its result (one-shot).
  /// Rethrows the first exception thrown by any shard of this job.
  T wait();
  /// For fire-and-forget submitters that drop the future instead of
  /// waiting: installs a hook invoked exactly once if the engine abandons
  /// the job (shutdown with it still queued). Returns false when the job
  /// already finished — the hook is not stored and the caller must check
  /// ready() itself. See detail::EngineJob::set_abandon_hook.
  bool on_abandon(std::function<void(std::exception_ptr)> hook) {
    return state_ && state_->job->set_abandon_hook(std::move(hook));
  }

 private:
  friend class CodecEngine;
  struct State {
    std::shared_ptr<detail::EngineJob> job;
    std::function<T()> finalize;  ///< runs on the waiting thread, post-drain
  };
  explicit CodecFuture(std::shared_ptr<State> state) : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

class CodecEngine {
 public:
  /// Priority landmarks for submit*(). Any int works (higher = sooner);
  /// bulk/latency name the two ends the CodecServer schedules between.
  static constexpr int kPriorityBulk = 0;
  static constexpr int kPriorityLatency = 100;
  /// Above kPriorityLatency: the CodecServer dispatches batches that carry
  /// explicit request deadlines at this landmark, so a deadline's shards
  /// claim ahead of everything scheduled between the two ends — the
  /// deadline-aware claim that makes a timer-flushed partial batch finish
  /// inside its budget even behind queued bulk work. Within the band the
  /// absolute deadline passed to submit*() orders the claims (EDF).
  static constexpr int kPriorityDeadline = 150;

  /// "No deadline" for the EDF tiebreak: sorts after every dated job of the
  /// same priority, and all-kNoDeadline queues drain plain FIFO.
  static constexpr std::chrono::steady_clock::time_point kNoDeadline =
      std::chrono::steady_clock::time_point::max();

  /// `num_threads` = 0 picks std::thread::hardware_concurrency() (min 1).
  explicit CodecEngine(unsigned num_threads = 0);
  /// shutdown(): joins the pool; jobs still queued are abandoned — their
  /// futures' wait() throws std::runtime_error instead of deadlocking.
  ~CodecEngine();

  CodecEngine(const CodecEngine&) = delete;
  CodecEngine& operator=(const CodecEngine&) = delete;

  /// Configured worker count; immutable after construction (still reported
  /// after shutdown), so it is safe to read concurrently with shutdown().
  unsigned num_threads() const { return n_threads_; }

  /// Stops accepting work, joins the pool and abandons jobs still queued
  /// (their futures throw on wait()). Idempotent — later callers block
  /// until the first caller finished joining. The destructor calls it.
  /// Jobs whose shards were all claimed before the stop drain normally.
  void shutdown();

  /// True once shutdown() has begun (reads the stop flag under the queue
  /// lock). From then on no worker claims a new shard, so a caller can order
  /// work against the stop without sleeping.
  bool stopping() const;

  /// Process-wide default engine (hardware concurrency), shared so consumers
  /// do not each spin up a pool. ApproxMemory uses this unless given one.
  static std::shared_ptr<CodecEngine> shared_default();

  // --- per-engine fingerprint memo -----------------------------------------
  // One shared decision memo for everything this engine serves: codecs built
  // with `options.fingerprint_cache = engine->fingerprint_cache()` dedup
  // repeat blocks across jobs, streams and commits that route through the
  // same pool. The cache's sets sit behind lock stripes, so concurrent
  // workers only contend on same-stripe blocks; entries are keyed on the
  // deciding codec's identity, so codecs never see each other's decisions.

  /// The engine-owned cache, built on first use (default FingerprintCache
  /// config). Thread-safe; stable for the engine's lifetime once created.
  std::shared_ptr<FingerprintCache> fingerprint_cache();

  /// Replaces the engine-owned cache (e.g. to set capacity or verify-on-hit
  /// before any stream opens). Later fingerprint_cache() calls return
  /// `cache`; codecs already holding the old pointer keep it.
  void set_fingerprint_cache(std::shared_ptr<FingerprintCache> cache);

  // --- asynchronous submission ---------------------------------------------
  // Any thread may call submit*(); jobs from concurrent callers interleave
  // on the queue without affecting each other's results. Job bodies must not
  // submit to or wait on the engine (a body blocking on the pool it runs in
  // can deadlock once every worker does it). An exception in one job is
  // confined to that job: its remaining shards are cancelled, wait()
  // rethrows, and other jobs and the pool are unaffected.

  /// Enqueues body(begin, end, worker_id) over disjoint shards covering
  /// [0, count) and returns immediately. `deadline` orders claims within the
  /// job's priority band (earliest first) — purely a scheduling hint; a
  /// job past its deadline still runs.
  CodecFuture<void> submit(size_t count,
                           std::function<void(size_t begin, size_t end, unsigned worker_id)> body,
                           int priority = 0,
                           std::chrono::steady_clock::time_point deadline = kNoDeadline);

  /// Generalized submit: `finalize` runs once on the thread that waits, after
  /// every shard completed — the place to merge per-worker accumulators into
  /// the job's result (keeping the determinism contract).
  template <typename T>
  CodecFuture<T> submit_job(size_t count,
                            std::function<void(size_t begin, size_t end, unsigned worker_id)> body,
                            std::function<T()> finalize, int priority = 0,
                            std::chrono::steady_clock::time_point deadline = kNoDeadline);

  /// Size-only sweep of a block stream: per-block analyses plus the merged
  /// raw/effective ratio bookkeeping at `mag_bytes`.
  struct StreamAnalysis {
    std::vector<BlockAnalysis> blocks;  ///< index-aligned with the input
    RatioAccumulator ratios;
    uint64_t lossy_blocks = 0;
    uint64_t truncated_symbols = 0;
    /// Fingerprint-memo outcomes folded over the stream (all zero for
    /// uncached codecs). NOT thread-count invariant — see CacheCounters.
    CacheCounters cache;
  };

  /// Async size-only sweep. `comp` and the storage behind `blocks` must stay
  /// alive until wait().
  CodecFuture<StreamAnalysis> submit_analyze(const Compressor& comp, std::span<const Block> blocks,
                                             size_t mag_bytes = kDefaultMagBytes,
                                             int priority = 0);
  /// Async full-payload sweep; same lifetime contract as submit_analyze.
  CodecFuture<std::vector<CompressedBlock>> submit_compress(const Compressor& comp,
                                                            std::span<const Block> blocks,
                                                            int priority = 0);

  /// Synchronous size-only sweep over a flat buffer sliced into
  /// `block_bytes` views without copying (a short tail is zero-padded into a
  /// final full block, like to_blocks); blocks until the job drained.
  /// Throws std::invalid_argument if `block_bytes` is 0.
  StreamAnalysis analyze_bytes(const Compressor& comp, std::span<const uint8_t> data,
                               size_t mag_bytes = kDefaultMagBytes,
                               size_t block_bytes = kBlockBytes);

 private:
  void worker_loop(unsigned id);

  /// Creates a job, sizes its shards and (count > 0) puts it on the queue.
  std::shared_ptr<detail::EngineJob> enqueue(
      size_t count, std::function<void(size_t, size_t, unsigned)> body, int priority,
      std::chrono::steady_clock::time_point deadline = kNoDeadline);

  /// Shared core of the analyze entry points: `produce` fills the analyses
  /// for one shard into the index-aligned slots, `original_bits` sizes block
  /// i for the ratio bookkeeping; per-worker stats merge on wait().
  CodecFuture<StreamAnalysis> submit_analyze_indexed(
      size_t n_blocks, size_t mag_bytes,
      std::function<void(size_t begin, size_t end, BlockAnalysis* out)> produce,
      std::function<size_t(size_t)> original_bits, int priority);

  unsigned n_threads_ = 1;           // fixed at construction
  std::vector<std::thread> workers_;  // touched only by the ctor + first shutdown()

  mutable Mutex cache_mutex_;  // guards lazy fingerprint_cache_ creation; leaf lock
  std::shared_ptr<FingerprintCache> fingerprint_cache_ SLC_GUARDED_BY(cache_mutex_);

  /// Guards the queue, the stop/shutdown flags and — by convention the
  /// analysis cannot spell — every queued job's shard cursor (EngineJob::
  /// next), which only worker_loop and enqueue touch under this mutex.
  mutable Mutex mutex_;
  CondVar work_cv_;      // signals: queue_ non-empty, or stop_
  CondVar shutdown_cv_;  // signals: shutdown_done_
  bool stop_ SLC_GUARDED_BY(mutex_) = false;
  bool shutdown_done_ SLC_GUARDED_BY(mutex_) = false;
  std::deque<std::shared_ptr<detail::EngineJob>> queue_ SLC_GUARDED_BY(mutex_);
};

template <typename T>
CodecFuture<T> CodecEngine::submit_job(size_t count,
                                       std::function<void(size_t, size_t, unsigned)> body,
                                       std::function<T()> finalize, int priority,
                                       std::chrono::steady_clock::time_point deadline) {
  auto state = std::make_shared<typename CodecFuture<T>::State>();
  state->job = enqueue(count, std::move(body), priority, deadline);
  state->finalize = std::move(finalize);
  return CodecFuture<T>(std::move(state));
}

template <typename T>
T CodecFuture<T>::wait() {
  if (!state_) throw std::logic_error("CodecFuture::wait on an empty future");
  auto state = std::move(state_);  // one-shot: consume before any throw
  state->job->wait();
  if constexpr (std::is_void_v<T>) {
    if (state->finalize) state->finalize();
  } else {
    return state->finalize();
  }
}

}  // namespace slc
