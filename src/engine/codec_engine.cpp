#include "engine/codec_engine.h"

#include <algorithm>
#include <new>
#include <stdexcept>

#include "core/fingerprint_cache.h"

namespace slc {
namespace detail {

JobPool::~JobPool() {
  MutexLock lk(m_);
  while (Free* f = free_) {
    free_ = f->next;
    ::operator delete(f);
  }
}

void* JobPool::take(size_t bytes) {
  {
    MutexLock lk(m_);
    if (bytes_ == 0) bytes_ = bytes;
    if (bytes == bytes_ && free_ != nullptr) {
      Free* f = free_;
      free_ = f->next;
      return f;
    }
  }
  return ::operator new(bytes);
}

void JobPool::give(void* p, size_t bytes) {
  MutexLock lk(m_);
  if (bytes != bytes_) {
    ::operator delete(p);
    return;
  }
  free_ = ::new (p) Free{free_};
}

void EngineJob::finish_shard(size_t items, std::exception_ptr thrown) {
  if (thrown) {
    MutexLock lk(m_);
    if (!error_) error_ = std::move(thrown);
    failed_.store(true, std::memory_order_relaxed);
  }
  if (completed_.fetch_add(items, std::memory_order_acq_rel) + items < count) return;
  finish(nullptr);
}

void EngineJob::finish(std::exception_ptr reason) {
  Body release;
  OnDone done;
  std::exception_ptr err;
  {
    MutexLock lk(m_);
    if (finished_) return;
    if (!error_) error_ = std::move(reason);
    err = error_;
    finished_ = true;
    // Release the body's captures as soon as the job finished; destroy
    // them outside the lock.
    release = std::move(body);
    body = nullptr;
    done = std::move(on_done_);
    on_done_ = nullptr;
  }
  cv_.notify_all();
  // Outside m_ and every engine lock (neither caller holds one): on_done
  // may take arbitrary downstream locks (the server takes its lock_).
  if (done) done(err);
}

void EngineJob::wait() {
  std::exception_ptr err;
  {
    MutexLock lk(m_);
    while (!finished_) cv_.wait(m_);
    err = error_;
  }
  // Rethrow outside the lock: nothing below may touch guarded state.
  if (err) std::rethrow_exception(err);
}

}  // namespace detail

void CodecFuture::wait() {
  if (!job_) throw std::logic_error("CodecFuture::wait on an empty future");
  const auto job = std::move(job_);  // one-shot: consume before any throw
  job->wait();
}

CodecEngine::CodecEngine(unsigned num_threads) {
  unsigned n = num_threads != 0 ? num_threads : std::thread::hardware_concurrency();
  n_threads_ = std::max(1u, n);
  workers_.reserve(n_threads_);
  for (unsigned i = 0; i < n_threads_; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

CodecEngine::~CodecEngine() { shutdown(); }

void CodecEngine::shutdown() {
  {
    MutexLock lk(mutex_);
    if (stop_) {
      // A later caller (e.g. the destructor after an explicit shutdown, or
      // a concurrent one) must not return — and let the engine be freed —
      // while the first caller is still joining workers.
      while (!shutdown_done_) shutdown_cv_.wait(mutex_);
      return;
    }
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  // The pool is gone, so jobs still holding unclaimed shards can never
  // drain. Finish them with a stored exception: a future that outlived the
  // engine then throws from wait() instead of deadlocking, and each job's
  // on_done runs here.
  std::deque<std::shared_ptr<detail::EngineJob>> leftover;
  {
    MutexLock lk(mutex_);
    leftover.swap(queue_);
  }
  for (const auto& job : leftover)
    job->finish(std::make_exception_ptr(
        std::runtime_error("CodecEngine shut down with the job still queued")));
  {
    MutexLock lk(mutex_);
    shutdown_done_ = true;
    // Notify under the lock: a woken waiter can only proceed (and possibly
    // destroy the engine) after we release it, with nothing left to touch.
    shutdown_cv_.notify_all();
  }
}

bool CodecEngine::stopping() const {
  MutexLock lk(mutex_);
  return stop_;
}

std::shared_ptr<CodecEngine> CodecEngine::shared_default() {
  static std::shared_ptr<CodecEngine> engine = std::make_shared<CodecEngine>();
  return engine;
}

std::shared_ptr<FingerprintCache> CodecEngine::fingerprint_cache() {
  MutexLock lk(cache_mutex_);
  if (!fingerprint_cache_) fingerprint_cache_ = std::make_shared<FingerprintCache>();
  return fingerprint_cache_;
}

CodecFuture CodecEngine::submit(size_t count, Body body, int priority,
                                std::chrono::steady_clock::time_point deadline,
                                OnDone on_done) {
  auto job = std::allocate_shared<detail::EngineJob>(
      detail::JobAllocator<detail::EngineJob>(job_pool_), count, std::move(body),
      std::move(on_done), priority, deadline);
  // Dynamic work queue: ~8 shards per worker balances load without paying a
  // queue round-trip per block. Shard size never affects results, only how
  // the stream is cut across workers. The size is clamped to
  // [kMinShard, kMaxShard] and rounded up to a multiple of 16, so the SIMD
  // batch kernels see full tiles and the per-shard staging amortizes evenly.
  const size_t target_shards = static_cast<size_t>(num_threads()) * 8;
  const size_t shard =
      std::clamp<size_t>((count + target_shards - 1) / target_shards, kMinShard, kMaxShard);
  job->shard = (shard + 15) / 16 * 16;
  bool stopped = false;
  {
    MutexLock lk(mutex_);
    stopped = stop_;
    if (!stopped && count > 0) queue_.push_back(job);
  }
  if (stopped) throw std::runtime_error("CodecEngine::submit after shutdown");
  if (count == 0) {
    job->finish_shard(0, nullptr);  // nothing to run: finished on this thread
  } else {
    work_cv_.notify_all();
  }
  return CodecFuture(std::move(job));
}

void CodecEngine::worker_loop(unsigned id) {
  MutexLock lk(mutex_);
  for (;;) {
    while (!stop_ && queue_.empty()) work_cv_.wait(mutex_);
    if (stop_) return;
    // Claim from the highest-priority job with unclaimed shards; within a
    // band the earliest deadline wins (EDF — two deadline-boosted batches
    // drain in deadline order, not submission order) and equal (priority,
    // deadline) drains FIFO. Scheduling only reorders claims across jobs —
    // a job's own result is shard-order-independent by the determinism
    // contract.
    auto best = queue_.begin();
    for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it) {
      if ((*it)->priority > (*best)->priority ||
          ((*it)->priority == (*best)->priority && (*it)->deadline < (*best)->deadline))
        best = it;
    }
    std::shared_ptr<detail::EngineJob> job = *best;
    const size_t begin = job->next;
    const size_t end = std::min(job->count, begin + job->shard);
    job->next = end;
    if (job->next >= job->count) queue_.erase(best);
    lk.unlock();
    // A shard that already saw this job fail is cancelled, not run: the
    // first exception wins and the job drains as fast as workers can claim.
    std::exception_ptr thrown;
    if (!job->cancelled()) {
      try {
        job->body(begin, end, id);
      } catch (...) {
        thrown = std::current_exception();
      }
    }
    job->finish_shard(end - begin, thrown);
    // Drop the reference before re-locking: a last one frees the job (into
    // the pool, under its own lock) outside mutex_.
    job.reset();
    lk.lock();
  }
}

}  // namespace slc
