// CodecEngine: batched multi-threaded driver for the codec stack.
//
// A persistent std::thread worker pool pulls fixed-size shards off a
// *priority job queue*: every submit() enqueues one independent job (its own
// [0, count) range, completion state and error slot), and workers drain
// whichever jobs are pending — so several jobs can be in flight at once and
// the pool never idles between them. Each shard claim goes to the
// highest-priority job with unclaimed shards — earliest deadline first
// within a priority band, FIFO among equal (priority, deadline) — so a
// latency-sensitive job preempts queued bulk work at shard granularity
// without cancelling it, and two deadline-boosted jobs drain in deadline
// order instead of submission order.
//
// submit() is the only way in. The engine knows nothing about codecs: a job
// is a body over index ranges, and the caller decides what a shard computes
// and where it writes. Every job finishes exactly once — drained, failed or
// abandoned by shutdown — and that one transition wakes the job's waiters
// and runs the optional on_done callback passed to submit().
//
// Determinism contract (per job): shard->worker assignment is
// nondeterministic, so bodies write only to index-aligned slots and keep
// accumulation per worker_id. The caller merges its per-worker slots after
// wait(), on one thread, so a 1-thread and an N-thread run produce
// byte-identical results — the property the tier-1 determinism tests pin
// down. Jobs never share accumulators, so concurrency across jobs cannot
// change any job's result; priority reorders *which job's shards run next*,
// never anything inside a job's result.
//
// Consumers: ApproxMemory::commit_async() (one job per region commit) and
// the CodecServer's batch dispatch (one job per batch, completed through
// on_done; src/server/).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_safety.h"

namespace slc {

class CodecEngine;
class FingerprintCache;

namespace detail {

/// One submitted job: an independent shard range plus its own completion and
/// error state. Shared between the queue, the workers still running its
/// shards, and the future holding it. Shards count themselves done with one
/// atomic add and read cancellation from an atomic flag, so a shard takes no
/// lock; the job's own mutex guards only the finish (`finished_`/`error_`/
/// `on_done_`), so a future can wait on the job even after the engine that
/// ran it is gone. The shard cursor (`next`) stays under the engine mutex
/// with the queue.
struct EngineJob {
  using Body = std::function<void(size_t begin, size_t end, unsigned worker_id)>;
  using OnDone = std::function<void(std::exception_ptr)>;

  EngineJob(size_t count, Body body, OnDone on_done, int priority,
            std::chrono::steady_clock::time_point deadline)
      : body(std::move(body)),
        count(count),
        priority(priority),
        deadline(deadline),
        on_done_(std::move(on_done)) {}

  /// The shard body. Written only while the job is unshared (submit) or
  /// after it finished (finish() releases it under m_); workers call it
  /// unlocked — the completed_ == count handoff, not a mutex, is what proves
  /// no call is in flight when it is released.
  Body body;
  const size_t count;
  size_t shard = 1;    ///< shard size, set before the job is shared
  size_t next = 0;     ///< next shard start (claimed under the engine mutex)
  const int priority;  ///< higher claims first
  /// EDF tiebreak inside a priority band: among equal-priority jobs the
  /// earliest deadline claims first; equal (priority, deadline) drains FIFO.
  /// max() = no deadline (sorts after every dated job in its band).
  const std::chrono::steady_clock::time_point deadline;

  /// Marks `items` of this job done (body returned or shard cancelled); the
  /// first exception wins. The shard that completes the count finishes the
  /// job.
  void finish_shard(size_t items, std::exception_ptr thrown);
  /// The one finish routine, for drained and abandoned jobs alike: marks the
  /// job finished (keeping the first shard exception, else `reason`), wakes
  /// its waiters, releases the body and runs on_done(err) exactly once —
  /// outside m_ and every engine lock. A job that already finished is left
  /// alone.
  void finish(std::exception_ptr reason);
  /// Blocks until the job finished; rethrows its stored exception.
  void wait();
  /// True when a claimed shard must be cancelled (a prior shard threw).
  bool cancelled() const { return failed_.load(std::memory_order_relaxed); }

 private:
  /// Items whose shard returned or was cancelled. Each add is acq_rel, so
  /// the add that reaches `count` sees every shard's writes before the job
  /// finishes.
  std::atomic<size_t> completed_{0};
  /// Set, under m_, with a shard's exception: a cancellation hint read
  /// without the lock (a shard that misses it merely runs).
  std::atomic<bool> failed_{false};
  mutable Mutex m_;
  CondVar cv_;  ///< signals finished_ (the only predicate waited on m_)
  bool finished_ SLC_GUARDED_BY(m_) = false;
  std::exception_ptr error_ SLC_GUARDED_BY(m_);
  OnDone on_done_ SLC_GUARDED_BY(m_);  ///< moved out and run by finish()
};

/// Retired jobs' storage, reused by CodecEngine::submit: a job's shared
/// state (control block and EngineJob, one allocation) goes back to its
/// engine's free list when the last reference drops, on whichever thread
/// that is, and the next submit takes it from there. The list holds only
/// blocks once live at the same time, so the engine's peak of jobs in
/// flight bounds it. Every job holds the pool through its allocator, so a
/// job that outlives its engine still has somewhere to go. `m_` is a leaf
/// lock.
class JobPool {
 public:
  JobPool() = default;
  JobPool(const JobPool&) = delete;
  JobPool& operator=(const JobPool&) = delete;
  ~JobPool();

  /// A block of `bytes` (the pool serves one size: a block of another size
  /// comes from operator new).
  void* take(size_t bytes);
  /// Returns a block take(bytes) gave out.
  void give(void* p, size_t bytes);

 private:
  struct Free {
    Free* next;
  };
  Mutex m_;
  Free* free_ SLC_GUARDED_BY(m_) = nullptr;
  size_t bytes_ SLC_GUARDED_BY(m_) = 0;  ///< the size served; 0 until first use
};

/// The allocator std::allocate_shared builds each job with (rebound to its
/// control block): storage from a JobPool.
template <class T>
struct JobAllocator {
  using value_type = T;

  explicit JobAllocator(std::shared_ptr<JobPool> p) : pool(std::move(p)) {}
  template <class U>
  JobAllocator(const JobAllocator<U>& o) : pool(o.pool) {}  // NOLINT: rebinding converts

  T* allocate(size_t n) {
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__, "the pool's blocks come from operator new");
    return static_cast<T*>(pool->take(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) { pool->give(p, n * sizeof(T)); }
  template <class U>
  bool operator==(const JobAllocator<U>& o) const {
    return pool == o.pool;
  }

  std::shared_ptr<JobPool> pool;
};

}  // namespace detail

/// Handle to a job submitted to a CodecEngine. Move-only; wait() is
/// one-shot: it blocks until the job finished and rethrows the first
/// exception a shard threw (or the shutdown reason of an abandoned job).
/// Inputs captured by the job must stay alive until wait() returns. The
/// handle may outlive the engine: a job abandoned by shutdown is finished
/// with a stored exception, so a late wait() throws instead of deadlocking.
/// Dropping a handle without waiting abandons nothing; the job still runs.
class CodecFuture {
 public:
  CodecFuture() = default;
  CodecFuture(CodecFuture&&) noexcept = default;
  CodecFuture& operator=(CodecFuture&&) noexcept = default;
  CodecFuture(const CodecFuture&) = delete;
  CodecFuture& operator=(const CodecFuture&) = delete;

  /// True until wait() consumed this handle (default-constructed: false).
  bool valid() const { return job_ != nullptr; }
  /// Blocks until the job finished (one-shot). Rethrows the job's first
  /// exception. Throws std::logic_error on an empty handle.
  void wait();

 private:
  friend class CodecEngine;
  explicit CodecFuture(std::shared_ptr<detail::EngineJob> job) : job_(std::move(job)) {}
  std::shared_ptr<detail::EngineJob> job_;
};

class CodecEngine {
 public:
  using Body = detail::EngineJob::Body;
  using OnDone = detail::EngineJob::OnDone;

  /// Priority landmarks for submit(). Any int works (higher = sooner);
  /// bulk/latency name the two ends the CodecServer schedules between.
  static constexpr int kPriorityBulk = 0;
  static constexpr int kPriorityLatency = 100;
  /// Above kPriorityLatency: the CodecServer dispatches batches that carry
  /// explicit request deadlines at this landmark, so a deadline's shards
  /// claim ahead of everything scheduled between the two ends — the
  /// deadline-aware claim that makes a timer-flushed partial batch finish
  /// inside its budget even behind queued bulk work. Within the band the
  /// absolute deadline passed to submit() orders the claims (EDF).
  static constexpr int kPriorityDeadline = 150;

  /// "No deadline" for the EDF tiebreak: sorts after every dated job of the
  /// same priority, and all-kNoDeadline queues drain plain FIFO.
  static constexpr std::chrono::steady_clock::time_point kNoDeadline =
      std::chrono::steady_clock::time_point::max();

  /// Shard size bounds. A job shorter than kMinShard items is one shard, and
  /// every shard of a longer job but its last has at least kMinShard: one
  /// batch-kernel chunk (SlcCodec::kProbeChunk), because a smaller shard
  /// pays a claim round trip and a worker wake for less than one kernel
  /// call. Both bounds are multiples of the 16-item tile every shard size is
  /// rounded up to.
  static constexpr size_t kMinShard = 64;
  static constexpr size_t kMaxShard = 4096;

  /// `num_threads` = 0 picks std::thread::hardware_concurrency() (min 1).
  explicit CodecEngine(unsigned num_threads = 0);
  /// shutdown(): joins the pool; jobs still queued are abandoned.
  ~CodecEngine();

  CodecEngine(const CodecEngine&) = delete;
  CodecEngine& operator=(const CodecEngine&) = delete;

  /// Configured worker count; immutable after construction (still reported
  /// after shutdown), so it is safe to read concurrently with shutdown().
  unsigned num_threads() const { return n_threads_; }

  /// Stops accepting work, joins the pool and abandons jobs still queued:
  /// each is finished with a std::runtime_error (its waiters throw) and its
  /// on_done runs on this thread. Idempotent — later callers block until the
  /// first caller finished. The destructor calls it. Jobs whose shards were
  /// all claimed before the stop drain normally.
  void shutdown();

  /// True once shutdown() has begun (reads the stop flag under the queue
  /// lock). From then on no worker claims a new shard and submit() throws,
  /// so a caller can order work against the stop without sleeping.
  bool stopping() const;

  /// Process-wide default engine (hardware concurrency), shared so consumers
  /// do not each spin up a pool. ApproxMemory uses this unless given one.
  static std::shared_ptr<CodecEngine> shared_default();

  /// One shared decision memo for everything this engine serves: codecs
  /// built with `options.fingerprint_cache = engine->fingerprint_cache()`
  /// dedup repeat blocks across jobs, streams and commits that route through
  /// the same pool. Built on first use (default FingerprintCache config);
  /// thread-safe and stable for the engine's lifetime.
  std::shared_ptr<FingerprintCache> fingerprint_cache();

  /// Enqueues body(begin, end, worker_id) over disjoint shards covering
  /// [0, count) and returns immediately. Any thread may submit; jobs from
  /// concurrent callers interleave without affecting each other's results.
  ///
  /// `priority` and `deadline` order shard claims across jobs (higher
  /// priority first, then earliest deadline) — purely a scheduling hint; a
  /// job past its deadline still runs.
  ///
  /// An exception thrown by a shard is confined to its job: the job's
  /// remaining shards are cancelled, wait() rethrows the first exception,
  /// and other jobs and the pool are unaffected. Bodies must not submit to
  /// or wait on the engine.
  ///
  /// `on_done(err)` runs exactly once per accepted job, when it finishes:
  /// `err` is null (drained), the first shard exception (failed) or the
  /// shutdown reason (abandoned). It runs on the worker that finished the
  /// last shard, or on the thread in shutdown(), after the job's waiters
  /// were woken — so wait() may return before it ran. It holds no engine
  /// lock and not the job's mutex: it may take caller locks, but must not
  /// wait on the engine.
  ///
  /// count == 0 finishes inside submit(): on_done(nullptr) runs on the
  /// calling thread before submit() returns a ready handle.
  ///
  /// Throws std::runtime_error once the engine is stopping (shutdown() has
  /// begun): nothing is enqueued and on_done does not run.
  CodecFuture submit(size_t count, Body body, int priority = 0,
                     std::chrono::steady_clock::time_point deadline = kNoDeadline,
                     OnDone on_done = {});

 private:
  void worker_loop(unsigned id);

  unsigned n_threads_ = 1;           // fixed at construction
  std::vector<std::thread> workers_;  // touched only by the ctor + first shutdown()

  /// Storage of retired jobs, reused by submit().
  const std::shared_ptr<detail::JobPool> job_pool_ = std::make_shared<detail::JobPool>();

  mutable Mutex cache_mutex_;  // guards lazy fingerprint_cache_ creation; leaf lock
  std::shared_ptr<FingerprintCache> fingerprint_cache_ SLC_GUARDED_BY(cache_mutex_);

  /// Guards the queue, the stop/shutdown flags and — by convention the
  /// analysis cannot spell — every queued job's shard cursor (EngineJob::
  /// next), which only worker_loop and submit touch under this mutex.
  mutable Mutex mutex_;
  CondVar work_cv_;      // signals: queue_ non-empty, or stop_
  CondVar shutdown_cv_;  // signals: shutdown_done_
  bool stop_ SLC_GUARDED_BY(mutex_) = false;
  bool shutdown_done_ SLC_GUARDED_BY(mutex_) = false;
  std::deque<std::shared_ptr<detail::EngineJob>> queue_ SLC_GUARDED_BY(mutex_);
};

}  // namespace slc
