#include "engine/codec_engine.h"

#include <algorithm>
#include <stdexcept>

#include "core/fingerprint_cache.h"

namespace slc {
namespace detail {

void EngineJob::finish_shard(size_t items, std::exception_ptr thrown) {
  std::function<void(size_t, size_t, unsigned)> release;
  std::function<void(std::exception_ptr)> dropped_hook;  // never invoked
  {
    MutexLock lk(m_);
    if (thrown && !error_) error_ = thrown;
    completed_ += items;
    if (completed_ < count || finished_) return;
    finished_ = true;
    // Release captures as soon as the job drained; destroy outside the lock.
    release = std::move(body);
    body = nullptr;
    dropped_hook = std::move(abandon_hook_);
    abandon_hook_ = nullptr;
  }
  cv_.notify_all();
}

void EngineJob::abandon(std::exception_ptr reason) {
  std::function<void(size_t, size_t, unsigned)> release;
  std::function<void(std::exception_ptr)> hook;
  std::exception_ptr err;
  {
    MutexLock lk(m_);
    if (finished_) return;
    if (!error_) error_ = std::move(reason);
    err = error_;
    finished_ = true;
    release = std::move(body);
    body = nullptr;
    hook = std::move(abandon_hook_);
    abandon_hook_ = nullptr;
  }
  cv_.notify_all();
  // Outside m_ and outside every engine lock (abandon's callers hold none):
  // the hook may take arbitrary downstream locks (the server takes lock_).
  if (hook) hook(err);
}

bool EngineJob::set_abandon_hook(std::function<void(std::exception_ptr)> hook) {
  MutexLock lk(m_);
  if (finished_) return false;
  abandon_hook_ = std::move(hook);
  return true;
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

bool EngineJob::ready() const {
  MutexLock lk(m_);
  return finished_;
}

bool EngineJob::cancelled() const {
  MutexLock lk(m_);
  return error_ != nullptr;
}

}  // namespace detail

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
  // drain. Mark them finished with a stored exception: a future that
  // outlived the engine then throws from wait() instead of deadlocking.
  std::deque<std::shared_ptr<detail::EngineJob>> leftover;
  {
    MutexLock lk(mutex_);
    leftover.swap(queue_);
  }
  for (const auto& job : leftover)
    job->abandon(std::make_exception_ptr(
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

void CodecEngine::set_fingerprint_cache(std::shared_ptr<FingerprintCache> cache) {
  MutexLock lk(cache_mutex_);
  fingerprint_cache_ = std::move(cache);
}

std::shared_ptr<detail::EngineJob> CodecEngine::enqueue(
    size_t count, std::function<void(size_t, size_t, unsigned)> body, int priority,
    std::chrono::steady_clock::time_point deadline) {
  auto job = std::make_shared<detail::EngineJob>();
  job->count = count;
  job->body = std::move(body);
  job->priority = priority;
  job->deadline = deadline;
  if (count == 0) {
    job->finish_shard(0, nullptr);
    return job;
  }
  // Dynamic work queue: ~8 shards per worker balances load without paying a
  // queue round-trip per block. Shard size never affects results, only how
  // the stream is cut across workers. Shards above 16 blocks are rounded up
  // to a multiple of 16 so the SIMD batch kernels see full tiles and the
  // per-shard staging (length scratch, scatter arena) amortizes evenly.
  const size_t target_shards = static_cast<size_t>(num_threads()) * 8;
  size_t shard = std::clamp<size_t>((count + target_shards - 1) / target_shards, 1, 4096);
  if (shard > 16) shard = (shard + 15) / 16 * 16;
  job->shard = std::min<size_t>(shard, 4096);
  bool accepted = false;
  {
    MutexLock lk(mutex_);
    if (!stop_) {
      queue_.push_back(job);
      accepted = true;
    }
  }
  if (accepted) {
    work_cv_.notify_all();
  } else {
    // Submitted after shutdown: nothing will ever run it.
    job->abandon(std::make_exception_ptr(
        std::runtime_error("CodecEngine::submit after shutdown")));
  }
  return job;
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
    const std::shared_ptr<detail::EngineJob> job = *best;
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
    lk.lock();
  }
}

CodecFuture<void> CodecEngine::submit(size_t count,
                                      std::function<void(size_t, size_t, unsigned)> body,
                                      int priority,
                                      std::chrono::steady_clock::time_point deadline) {
  return submit_job<void>(count, std::move(body), {}, priority, deadline);
}

CodecFuture<CodecEngine::StreamAnalysis> CodecEngine::submit_analyze_indexed(
    size_t n_blocks, size_t mag_bytes,
    std::function<void(size_t, size_t, BlockAnalysis*)> produce,
    std::function<size_t(size_t)> original_bits, int priority) {
  struct WorkerStats {
    RatioAccumulator ratios;
    uint64_t lossy = 0;
    uint64_t truncated = 0;
    CacheCounters cache;
  };
  // The job context owns everything the shards touch; the future's finalize
  // keeps it alive until the merged result is materialized.
  struct Ctx {
    StreamAnalysis out;
    std::vector<WorkerStats> per_worker;
    std::function<void(size_t, size_t, BlockAnalysis*)> produce;
    std::function<size_t(size_t)> original_bits;
  };
  auto ctx = std::make_shared<Ctx>();
  ctx->out.blocks.resize(n_blocks);
  ctx->out.ratios = RatioAccumulator(mag_bytes);
  WorkerStats seed;
  seed.ratios = RatioAccumulator(mag_bytes);
  ctx->per_worker.assign(num_threads(), seed);
  ctx->produce = std::move(produce);
  ctx->original_bits = std::move(original_bits);

  return submit_job<StreamAnalysis>(
      n_blocks,
      [ctx](size_t begin, size_t end, unsigned worker) {
        ctx->produce(begin, end, ctx->out.blocks.data() + begin);
        WorkerStats& ws = ctx->per_worker[worker];
        for (size_t i = begin; i < end; ++i) {
          const BlockAnalysis& a = ctx->out.blocks[i];
          ws.ratios.add(ctx->original_bits(i), a.bit_size);
          ws.lossy += a.lossy ? 1 : 0;
          ws.truncated += a.truncated_symbols;
          ws.cache.record(a.cache_probed, a.cache_hit, a.cache_evicted, a.cache_collision);
        }
      },
      [ctx]() {
        for (const WorkerStats& ws : ctx->per_worker) {
          ctx->out.ratios.merge(ws.ratios);
          ctx->out.lossy_blocks += ws.lossy;
          ctx->out.truncated_symbols += ws.truncated;
          ctx->out.cache.merge(ws.cache);
        }
        return std::move(ctx->out);
      },
      priority);
}

CodecFuture<CodecEngine::StreamAnalysis> CodecEngine::submit_analyze(const Compressor& comp,
                                                                     std::span<const Block> blocks,
                                                                     size_t mag_bytes,
                                                                     int priority) {
  return submit_analyze_indexed(
      blocks.size(), mag_bytes,
      [&comp, blocks](size_t begin, size_t end, BlockAnalysis* dst) {
        // Every shard goes through the compressor's batch kernel, writing
        // straight into the index-aligned result slots.
        comp.analyze_batch(to_views(blocks.subspan(begin, end - begin)), dst);
      },
      [blocks](size_t i) { return blocks[i].size() * 8; }, priority);
}

CodecFuture<std::vector<CompressedBlock>> CodecEngine::submit_compress(
    const Compressor& comp, std::span<const Block> blocks, int priority) {
  auto out = std::make_shared<std::vector<CompressedBlock>>(blocks.size());
  return submit_job<std::vector<CompressedBlock>>(
      blocks.size(),
      [out, &comp, blocks](size_t begin, size_t end, unsigned) {
        comp.compress_batch(to_views(blocks.subspan(begin, end - begin)), out->data() + begin);
      },
      [out]() { return std::move(*out); }, priority);
}

CodecEngine::StreamAnalysis CodecEngine::analyze_bytes(const Compressor& comp,
                                                       std::span<const uint8_t> data,
                                                       size_t mag_bytes, size_t block_bytes) {
  if (block_bytes == 0) throw std::invalid_argument("analyze_bytes: block_bytes must be positive");
  const size_t n_blocks = (data.size() + block_bytes - 1) / block_bytes;
  return submit_analyze_indexed(
             n_blocks, mag_bytes,
             [&comp, data, block_bytes](size_t begin, size_t end, BlockAnalysis* dst) {
               // Views straight over the flat buffer — the batch kernel sees
               // the whole shard, same as the Block-stream path. Only a
               // ragged tail block needs padded storage (zero-padded like
               // to_blocks(pad_tail = true)); it lives in this frame for the
               // duration of the kernel call.
               std::vector<BlockView> views;
               views.reserve(end - begin);
               Block padded(block_bytes);
               for (size_t b = begin; b < end; ++b) {
                 const size_t off = b * block_bytes;
                 if (off + block_bytes <= data.size()) {
                   views.push_back(BlockView(data.subspan(off, block_bytes)));
                 } else {
                   std::copy(data.begin() + static_cast<ptrdiff_t>(off), data.end(),
                             padded.mutable_bytes().begin());
                   views.push_back(padded.view());
                 }
               }
               comp.analyze_batch(views, dst);
             },
             [block_bytes](size_t) { return block_bytes * 8; }, 0)
      .wait();
}

}  // namespace slc
