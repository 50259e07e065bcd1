#include "server/codec_server.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/slc_codec.h"

namespace slc {

namespace {

int to_engine_priority(StreamPriority p) {
  switch (p) {
    case StreamPriority::kBulk:
      return CodecEngine::kPriorityBulk;
    case StreamPriority::kNormal:
      return (CodecEngine::kPriorityBulk + CodecEngine::kPriorityLatency) / 2;
    case StreamPriority::kLatency:
      return CodecEngine::kPriorityLatency;
  }
  return CodecEngine::kPriorityBulk;
}

constexpr auto kNoFlush = std::chrono::steady_clock::time_point::max();

/// A fresh pending batch reserves room for at most this many blocks, so a
/// batch_blocks far above any real batch does not reserve a huge arena.
constexpr size_t kMaxReserveBlocks = 4096;

/// Blocks a fresh pending batch reserves room for.
size_t reserve_blocks(size_t batch_blocks) { return std::min(batch_blocks, kMaxReserveBlocks); }

/// When a parked request must be force-dispatched: deadline-carrying
/// requests get half their deadline as coalescing budget (capped by the
/// configured linger) so the engine keeps the other half; deadline-free
/// requests linger at most `max_coalesce_delay` (0 = never auto-flush).
std::chrono::steady_clock::time_point flush_deadline(
    std::chrono::steady_clock::time_point submitted, std::chrono::nanoseconds deadline,
    std::chrono::microseconds linger) {
  if (deadline.count() > 0) {
    auto budget = deadline / 2;
    if (linger.count() > 0) budget = std::min(budget, std::chrono::nanoseconds(linger));
    return submitted + budget;
  }
  if (linger.count() > 0) return submitted + linger;
  return kNoFlush;
}

/// A payload longer than its block would overrun the block's slot in the
/// payload arena; the open Compressor interface allows one, so the batch
/// fails instead.
[[noreturn]] void throw_payload_overflow(const Compressor& codec, size_t payload_bytes,
                                         size_t block_bytes) {
  throw std::length_error("CodecServer: a " + codec.name() + " payload of " +
                          std::to_string(payload_bytes) + " B exceeds its " +
                          std::to_string(block_bytes) + " B block");
}

}  // namespace

static_assert(CodecEngine::kMinShard == SlcCodec::kProbeChunk,
              "a shard stages one kernel chunk of views at a time");

/// One dispatched batch: the requests' blocks back to back in one arena
/// with an end offset per block, and index-aligned result slots (analyses,
/// or the payload arena, by kind). It is one engine job, completed through
/// that job's on_done: a shard exception cancels the rest of the batch and
/// reaches every request as kError. Its stream owns it and reuses it once
/// it retired, buffers cleared but their capacity kept.
struct CodecServer::Batch {
  static constexpr size_t kChunk = CodecEngine::kMinShard;

  /// What one request's blocks add to its response's aggregates and its
  /// stream's commit counters.
  struct Fold {
    explicit Fold(size_t mag_bytes) : ratios(mag_bytes) {}

    CommitStats commit;
    RatioAccumulator ratios;
  };

  StreamId stream = 0;
  RequestKind kind = RequestKind::kAnalyze;
  const Compressor* codec = nullptr;  ///< the stream's; streams outlive batches
  size_t mag_bytes = kDefaultMagBytes;
  int priority = 0;  ///< the engine job's priority and EDF deadline
  std::chrono::steady_clock::time_point deadline = CodecEngine::kNoDeadline;
  std::vector<uint8_t> bytes;
  std::vector<size_t> ends;  ///< block i is bytes[block_begin(i), ends[i])
  std::vector<BlockAnalysis> analyses;             ///< kAnalyze / kDecide
  std::shared_ptr<detail::PayloadArena> payloads;  ///< kCompress
  std::vector<std::shared_ptr<detail::ServerRequest>> requests;

  /// What completion adds to the stream's stats: gathered by deliver_batch
  /// outside lock_, folded in by retire_batch_locked.
  size_t blocks = 0;
  CommitStats commit;
  uint64_t deadline_misses = 0;
  std::vector<std::chrono::nanoseconds> latencies;  ///< one per request

  Batch* next = nullptr;  ///< link in a ReadyBatches list or the spare list

  size_t block_begin(size_t i) const { return i == 0 ? 0 : ends[i - 1]; }
  size_t block_bytes(size_t i) const { return ends[i] - block_begin(i); }

  /// Sizes the result slots for a run over the batch's blocks.
  void prepare() {
    if (kind == RequestKind::kCompress) {
      payloads = std::make_shared<detail::PayloadArena>();
      payloads->bytes.resize(bytes.size());
      payloads->entries.resize(blocks);
    } else {
      analyses.resize(blocks);
    }
  }

  /// One engine shard, one kernel chunk at a time over views staged on the
  /// stack. Analyses land in the batch's slots directly; payloads go
  /// through the worker's reused `slots`, then into the payload arena at
  /// their blocks' input offsets.
  void run_shard(size_t begin, size_t end, std::span<CompressedBlock, kChunk> slots) {
    std::array<BlockView, kChunk> views;
    for (size_t base = begin; base < end; base += kChunk) {
      const size_t n = std::min(kChunk, end - base);
      for (size_t j = 0; j < n; ++j)
        views[j] = BlockView(
            std::span<const uint8_t>(bytes).subspan(block_begin(base + j), block_bytes(base + j)));
      const std::span<const BlockView> chunk(views.data(), n);
      if (kind != RequestKind::kCompress) {
        codec->analyze_batch(chunk, analyses.data() + base);
        continue;
      }
      for (size_t j = 0; j < n; ++j) {
        slots[j].payload.clear();  // keeps the capacity
        slots[j].bit_size = 0;
        slots[j].is_compressed = false;
      }
      codec->compress_batch(chunk, slots.data());
      for (size_t j = 0; j < n; ++j) {
        const size_t i = base + j;
        const std::vector<uint8_t>& p = slots[j].payload;
        if (p.size() > block_bytes(i)) throw_payload_overflow(*codec, p.size(), block_bytes(i));
        std::copy(p.begin(), p.end(),
                  payloads->bytes.begin() + static_cast<ptrdiff_t>(block_begin(i)));
        payloads->entries[i] = {.offset = block_begin(i),
                                .length = p.size(),
                                .bit_size = slots[j].bit_size,
                                .is_compressed = slots[j].is_compressed};
      }
    }
  }

  /// Folds the results of blocks [first, last), all of one request, into
  /// `f`: a pass over the sizes, then one over the decision bookkeeping
  /// (lossy, truncated, lossless, cache), which only analyses carry. Each
  /// pass sums into locals, so its running sums stay in registers. Payload
  /// batches fold the size and burst counters only.
  void fold_run(size_t first, size_t last, Fold& f) const {
    const size_t mag = mag_bytes;
    const size_t run_begin = block_begin(first);
    RatioAccumulator ratios(mag);
    uint64_t uncompressed = 0, bursts = 0, final_bits = 0;
    size_t begin = run_begin;
    const auto fold_size = [&](size_t i, size_t size, bool compressed) {
      const size_t block = ends[i] - begin, bits = block * 8;
      begin = ends[i];
      ratios.add(bits, size);
      uncompressed += compressed ? 0 : 1;
      bursts += bursts_for_bits(size, mag, block);
      final_bits += size;
    };
    CommitStats& cs = f.commit;
    if (kind == RequestKind::kCompress) {
      for (size_t i = first; i < last; ++i)
        fold_size(i, payloads->entries[i].bit_size, payloads->entries[i].is_compressed);
    } else {
      for (size_t i = first; i < last; ++i)
        fold_size(i, analyses[i].bit_size, analyses[i].is_compressed);
      uint64_t lossy = 0, truncated = 0, lossless = 0;
      CacheCounters cache;
      for (size_t i = first; i < last; ++i) {
        const BlockAnalysis& a = analyses[i];
        lossy += a.lossy ? 1 : 0;
        truncated += a.truncated_symbols;
        lossless += a.lossless_bits;
        cache.record(a.cache);
      }
      cs.lossy_blocks += lossy;
      cs.truncated_symbols += truncated;
      cs.lossless_bits += lossless;
      cs.cache.merge(cache);
    }
    cs.blocks += last - first;
    cs.uncompressed_blocks += uncompressed;
    cs.bursts += bursts;
    cs.original_bits += (begin - run_begin) * 8;
    cs.final_bits += final_bits;
    f.ratios.merge(ratios);
  }
};

struct CodecServer::ReadyBatches {
  Batch* head = nullptr;
  Batch* tail = nullptr;

  void push(Batch* b) {
    b->next = nullptr;
    if (tail != nullptr) {
      tail->next = b;
    } else {
      head = b;
    }
    tail = b;
  }
  Batch* pop() {
    Batch* b = head;
    if (b != nullptr) {
      head = b->next;
      if (head == nullptr) tail = nullptr;
    }
    return b;
  }
  bool empty() const { return head == nullptr; }
};

// --- ServerTicket -----------------------------------------------------------

bool ServerTicket::ready() const { return req_ && req_->ready(); }

Response ServerTicket::wait() {
  if (!req_) throw std::logic_error("ServerTicket::wait on an empty ticket");
  auto req = std::move(req_);  // one-shot: consume before any throw
  // The request may still be coalescing in its stream's pending batch; a
  // waiter must force dispatch or it would block until the flush timer (or
  // someone else's submit) fills the batch. Only that batch is flushed, and
  // only while the request is unfinished: waiting a finished ticket takes
  // no lock at all, and never dispatches the stream's unrelated half-full
  // batch.
  if (!req->ready()) {
    if (server_) server_->flush_batch(stream_, req->batch);
    req->await();
  }
  Response resp = std::move(req->resp);
  const std::shared_ptr<const detail::PayloadArena> arena = std::move(req->payloads);
  // Payload vectors are built here, on the waiting thread, so they are
  // allocated and freed on the client's side.
  if (arena) {
    resp.payloads.resize(req->n_blocks);
    for (size_t j = 0; j < req->n_blocks; ++j) {
      const detail::PayloadArena::Entry& e = arena->entries[req->offset + j];
      const auto first = arena->bytes.begin() + static_cast<ptrdiff_t>(e.offset);
      resp.payloads[j].payload.assign(first, first + static_cast<ptrdiff_t>(e.length));
      resp.payloads[j].bit_size = e.bit_size;
      resp.payloads[j].is_compressed = e.is_compressed;
    }
  }
  return resp;
}

// --- CodecServer ------------------------------------------------------------

CodecServer::CodecServer() : CodecServer(Config{}) {}

CodecServer::CodecServer(Config cfg) : cfg_(std::move(cfg)) {
  engine_ = cfg_.engine ? cfg_.engine : CodecEngine::shared_default();
  if (cfg_.batch_blocks == 0) cfg_.batch_blocks = 1;
  worker_slots_.resize(engine_->num_threads());
  timer_ = std::thread([this] { timer_loop(); });
}

CodecServer::~CodecServer() {
  {
    MutexLock lk(lock_);
    stopping_ = true;
  }
  timer_cv_.notify_all();
  if (timer_.joinable()) timer_.join();
  drain();
}

StreamId CodecServer::open_stream(StreamConfig cfg) {
  // A bad MAG would divide by zero in the batch completion on an engine
  // worker, and a preset memo would silently bypass cache_mode: both must
  // fail open_stream, not a request.
  check_mag_bytes(cfg.options.mag_bytes, "CodecServer::open_stream");
  if (cfg.options.fingerprint_cache)
    throw std::invalid_argument(
        "CodecServer::open_stream: options.fingerprint_cache must be unset; wire the memo "
        "with cache_mode");
  auto stream = std::make_unique<Stream>();
  if (cfg.cache_mode == CacheMode::kShared)
    cfg.options.fingerprint_cache = engine_->fingerprint_cache();
  // Registry lookup first: an unknown codec or missing training data must
  // fail open_stream, not the first request.
  stream->codec = CodecRegistry::instance().create(cfg.codec, cfg.options);
  stream->engine_priority = to_engine_priority(cfg.priority);
  stream->cfg = std::move(cfg);
  MutexLock lk(lock_);
  streams_.push_back(std::move(stream));
  return static_cast<StreamId>(streams_.size() - 1);
}

const std::string& CodecServer::stream_name(StreamId s) const {
  MutexLock lk(lock_);
  // The returned reference outlives the lock safely: streams are never
  // removed, Stream objects are pointer-stable, and cfg.name is immutable
  // after open_stream.
  return streams_.at(s)->cfg.name;
}

ServerTicket CodecServer::submit(StreamId s, const Request& r) {
  auto req = std::make_shared<detail::ServerRequest>();
  // Latency is measured from here — before any admission wait or coalescing
  // delay — so percentiles reflect what the client experienced.
  req->submitted = std::chrono::steady_clock::now();
  const size_t n = !r.blocks.empty() ? r.blocks.size()
                                     : (r.bytes.size() + kBlockBytes - 1) / kBlockBytes;
  req->n_blocks = n;
  req->kind = r.kind;
  req->tag = r.tag;
  req->deadline = r.deadline;

  // Batches dispatched below reach the engine only after lock_ is released.
  ReadyBatches ready;
  {
    MutexLock lk(lock_);
    Stream& st = *streams_.at(s);

    if (n == 0) {
      // Nothing to schedule; complete inline so the request can never be
      // stranded in an empty batch.
      st.stats.requests += 1;
      st.stats.latency.record(std::chrono::steady_clock::now() - req->submitted);
      req->resp.tag = req->tag;
      req->resp.analysis.ratios = RatioAccumulator(st.cfg.options.mag_bytes);
      req->publish();
      return ServerTicket(this, s, std::move(req));
    }

    if (cfg_.max_inflight_blocks != 0 && st.cfg.admission == AdmissionPolicy::kReject) {
      // Load shedding: a kReject stream never waits. The request is shed
      // unless it could be admitted *right now* — budget room and no older
      // submitter already queued at the turnstile (jumping the FIFO would
      // starve waiting kBlock submitters of the room they were promised).
      if (admit_tail_ != admit_head_ || !admit_fits_locked(n)) {
        st.stats.requests += 1;
        st.stats.rejected += 1;
        req->resp.status = ResponseStatus::kRejected;
        req->resp.tag = req->tag;
        req->resp.analysis.ratios = RatioAccumulator(st.cfg.options.mag_bytes);
        req->publish();
        return ServerTicket(this, s, std::move(req));
      }
    } else if (cfg_.max_inflight_blocks != 0) {
      // Backpressure: admit once dispatched + queued blocks leave room. The
      // empty-server escape (admit_fits_locked) admits a request larger than
      // the whole budget (dispatched immediately below) instead of
      // deadlocking. Admission is a FIFO turnstile — each submitter waits its
      // turn — so an oversized request cannot be starved by a steady stream
      // of small ones: younger submitters queue behind it while the server
      // drains to empty.
      const uint64_t turn = admit_tail_++;
      while (!(admit_head_ == turn && admit_fits_locked(n))) {
        // Queued-but-undispatched batches never retire on their own; push
        // them out on every re-check — a submit admitted ahead of us may
        // have parked new pending blocks — so the wait is always on engine
        // progress.
        if (!admit_fits_locked(n)) {
          for (StreamId sid = 0; sid < streams_.size(); ++sid) dispatch_locked(sid, ready);
        }
        if (admit_head_ == turn && admit_fits_locked(n)) break;
        if (!ready.empty()) {
          // Hand them to the engine before sleeping on their completion.
          lk.unlock();
          hand_off(ready);
          lk.lock();
          continue;
        }
        backpressure_cv_.wait(lock_);
      }
      admit_head_ += 1;
      backpressure_cv_.notify_all();  // hand the turnstile to the next waiter
    }

    // Batches are kind-homogeneous: a kind switch flushes the pending batch.
    if (!st.pending.empty() && st.pending_kind != r.kind) dispatch_locked(s, ready);

    req->offset = st.pending_ends.size();
    req->batch = st.stats.batches;  // the number dispatch will give this batch
    if (st.pending.empty()) {
      st.pending_kind = r.kind;
      st.flush_by = kNoFlush;
      st.pending_has_deadline = false;
      st.pending_deadline = CodecEngine::kNoDeadline;
      // Size the buffers for a full batch once instead of regrowing them
      // request by request (a no-op when a recycled batch left them this
      // large).
      const size_t expect = reserve_blocks(cfg_.batch_blocks);
      st.pending_ends.reserve(expect);
      st.pending_bytes.reserve(expect * kBlockBytes);
    }
    if (!r.blocks.empty()) {
      for (const Block& b : r.blocks) {
        st.pending_bytes.insert(st.pending_bytes.end(), b.bytes().begin(), b.bytes().end());
        st.pending_ends.push_back(st.pending_bytes.size());
      }
    } else {
      const size_t start = st.pending_bytes.size();
      st.pending_bytes.insert(st.pending_bytes.end(), r.bytes.begin(), r.bytes.end());
      st.pending_bytes.resize(start + n * kBlockBytes);  // zero-pads the ragged tail
      for (size_t j = 1; j <= n; ++j) st.pending_ends.push_back(start + j * kBlockBytes);
    }
    st.pending.push_back(req);
    pending_blocks_total_ += n;
    if (r.deadline.count() > 0) {
      st.pending_has_deadline = true;
      st.pending_deadline = std::min(st.pending_deadline, req->submitted + r.deadline);
    }
    // Over budget is only reachable through the empty-server escape (an
    // oversized request): dispatch at once so the bound is restored as soon
    // as the batch retires.
    const bool over_budget = cfg_.max_inflight_blocks != 0 &&
                             inflight_blocks_ + pending_blocks_total_ > cfg_.max_inflight_blocks;
    if (st.pending_ends.size() >= cfg_.batch_blocks || over_budget) {
      dispatch_locked(s, ready);
    } else {
      // Parked: arm the flush timer so a submit lull cannot strand the batch.
      // The timer rescans whenever it wakes, so it needs a nudge only for a
      // flush earlier than the wake it is already sleeping until.
      const auto when = flush_deadline(req->submitted, req->deadline, cfg_.max_coalesce_delay);
      if (when < st.flush_by) {
        st.flush_by = when;
        if (when < timer_wake_) {
          timer_wake_ = when;
          timer_cv_.notify_all();
        }
      }
    }
  }
  hand_off(ready);
  return ServerTicket(this, s, std::move(req));
}

bool CodecServer::admit_fits_locked(size_t n) const {
  return inflight_blocks_ + pending_blocks_total_ + n <= cfg_.max_inflight_blocks ||
         inflight_blocks_ + pending_blocks_total_ == 0;
}

void CodecServer::timer_loop() {
  MutexLock lk(lock_);
  while (!stopping_) {
    const auto now = std::chrono::steady_clock::now();
    auto next = kNoFlush;
    ReadyBatches ready;
    for (StreamId s = 0; s < streams_.size(); ++s) {
      Stream& st = *streams_[s];
      if (st.pending.empty()) continue;
      if (st.flush_by <= now) {
        dispatch_locked(s, ready);
      } else {
        next = std::min(next, st.flush_by);
      }
    }
    if (!ready.empty()) {
      // Submit outside lock_, then rescan: flushes armed meanwhile were
      // notified to nobody.
      lk.unlock();
      hand_off(ready);
      lk.lock();
      continue;
    }
    timer_wake_ = next;
    if (next == kNoFlush) {
      timer_cv_.wait(lock_);
    } else {
      timer_cv_.wait_for(lock_, next - now);
    }
  }
}

void CodecServer::dispatch_locked(StreamId s, ReadyBatches& ready) {
  Stream& st = *streams_.at(s);
  if (st.pending.empty()) return;

  Batch* batch = st.spare;
  if (batch != nullptr) {
    st.spare = batch->next;
  } else {
    batch = st.batches.emplace_back(std::make_unique<Batch>()).get();
  }
  batch->stream = s;
  batch->kind = st.pending_kind;
  batch->codec = st.codec.get();
  batch->mag_bytes = st.cfg.options.mag_bytes;
  // Swap, not move: the pending side takes the recycled batch's cleared
  // buffers and keeps their capacity for the next batch.
  batch->bytes.swap(st.pending_bytes);
  batch->ends.swap(st.pending_ends);
  batch->requests.swap(st.pending);
  const size_t n = batch->ends.size();
  batch->blocks = n;
  // A batch carrying any explicit deadline claims shards ahead of everything
  // priority-scheduled between the bulk/latency ends; its earliest absolute
  // deadline rides along so the engine orders same-band batches EDF.
  batch->priority = st.pending_has_deadline
                        ? std::max(st.engine_priority, CodecEngine::kPriorityDeadline)
                        : st.engine_priority;
  batch->deadline = st.pending_deadline;
  st.flush_by = kNoFlush;
  st.pending_has_deadline = false;
  st.pending_deadline = CodecEngine::kNoDeadline;

  pending_blocks_total_ -= n;
  inflight_blocks_ += n;
  inflight_batches_ += 1;
  st.stats.batches += 1;
  ready.push(batch);
}

void CodecServer::hand_off(ReadyBatches& ready) {
  while (Batch* batch = ready.pop()) {
    // One engine job per batch; its on_done completes the batch on the
    // worker that ran its last shard (or on the thread that shut the engine
    // down), so fire-and-forget clients still retire their backpressure
    // debt. Both callbacks capture two pointers, which std::function keeps
    // inline.
    try {
      batch->prepare();
      engine_->submit(
          batch->blocks,
          [this, batch](size_t begin, size_t end, unsigned worker) {
            batch->run_shard(begin, end, worker_slots_[worker]);
          },
          batch->priority, batch->deadline,
          [this, batch](std::exception_ptr err) { complete_batch(*batch, err); });
    } catch (...) {
      // The engine is stopped (or the job could not be built): no shard
      // will ever run. Complete the batch here, so tickets get the exception
      // and drain()/~CodecServer see the batch retire.
      complete_batch(*batch, std::current_exception());
    }
  }
}

void CodecServer::complete_batch(Batch& batch, std::exception_ptr err) {
  deliver_batch(batch, err, std::chrono::steady_clock::now());
  // Release outside lock_. The buffers keep their capacity for the batch's
  // next use, unless they outgrew twice a full batch.
  batch.payloads.reset();
  batch.bytes.clear();
  batch.ends.clear();
  batch.analyses.clear();
  batch.requests.clear();
  const size_t keep_blocks = 2 * reserve_blocks(cfg_.batch_blocks);
  if (batch.ends.capacity() > keep_blocks || batch.bytes.capacity() > keep_blocks * kBlockBytes) {
    batch.bytes.shrink_to_fit();
    batch.ends.shrink_to_fit();
    batch.analyses.shrink_to_fit();
    batch.requests.shrink_to_fit();
  }
  MutexLock lk(lock_);
  retire_batch_locked(batch);
}

void CodecServer::deliver_batch(Batch& batch, std::exception_ptr err,
                                std::chrono::steady_clock::time_point now) {
  // Fold each request's slots into its response sequentially, in block
  // order — same bytes no matter which thread completes the batch. Each
  // response is published after it is fully built. The same pass tallies
  // the batch's commit counters, request latencies and deadline misses, so
  // retiring it under lock_ is one fold.
  CommitStats& cs = batch.commit;
  cs = CommitStats{};
  batch.deadline_misses = 0;
  batch.latencies.clear();
  for (std::shared_ptr<detail::ServerRequest>& req : batch.requests) {
    Response& resp = req->resp;
    resp.tag = req->tag;
    resp.deadline_missed = req->deadline.count() > 0 && now - req->submitted > req->deadline;
    batch.deadline_misses += resp.deadline_missed ? 1 : 0;
    batch.latencies.push_back(now - req->submitted);
    if (err) {
      resp.status = ResponseStatus::kError;
      resp.error = err;
      resp.analysis.ratios = RatioAccumulator(batch.mag_bytes);
    } else {
      Batch::Fold f(batch.mag_bytes);
      batch.fold_run(req->offset, req->offset + req->n_blocks, f);
      StreamAnalysis& sa = resp.analysis;
      sa.ratios = f.ratios;
      sa.lossy_blocks = f.commit.lossy_blocks;
      sa.truncated_symbols = f.commit.truncated_symbols;
      sa.cache = f.commit.cache;
      cs.merge(f.commit);
      if (batch.kind == RequestKind::kCompress) {
        // The payload vectors are built by the waiter (ServerTicket::wait).
        req->payloads = batch.payloads;
      } else if (batch.kind == RequestKind::kAnalyze) {
        // kDecide keeps the per-block vector empty — aggregates only.
        sa.blocks.assign(
            batch.analyses.begin() + static_cast<ptrdiff_t>(req->offset),
            batch.analyses.begin() + static_cast<ptrdiff_t>(req->offset + req->n_blocks));
      }
    }
    req->publish();
    // Drop the batch's reference at once: its waiter, usually still
    // reading the response, then holds the last one and frees the request
    // on the thread that allocated it.
    req.reset();
  }
}

void CodecServer::retire_batch_locked(Batch& batch) {
  Stream& st = *streams_.at(batch.stream);
  st.stats.requests += batch.latencies.size();
  st.stats.deadline_misses += batch.deadline_misses;
  for (const std::chrono::nanoseconds d : batch.latencies) st.stats.latency.record(d);
  st.stats.commit.merge(batch.commit);
  inflight_blocks_ -= batch.blocks;
  inflight_batches_ -= 1;
  batch.next = st.spare;
  st.spare = &batch;
  // Notify while still holding the lock: a woken drain() can only pass its
  // predicate after we release it, so the completing thread is done
  // touching the server before ~CodecServer can possibly run.
  backpressure_cv_.notify_all();
  drain_cv_.notify_all();
}

void CodecServer::flush_batch(StreamId s, uint64_t batch) {
  ReadyBatches ready;
  {
    MutexLock lk(lock_);
    if (streams_.at(s)->stats.batches == batch) dispatch_locked(s, ready);
  }
  hand_off(ready);
}

void CodecServer::drain() {
  ReadyBatches ready;
  MutexLock lk(lock_);
  for (StreamId s = 0; s < streams_.size(); ++s) dispatch_locked(s, ready);
  lk.unlock();
  hand_off(ready);
  lk.lock();
  while (inflight_batches_ != 0) drain_cv_.wait(lock_);
}

StreamStats CodecServer::stream_stats(StreamId s) const {
  MutexLock lk(lock_);
  return streams_.at(s)->stats;
}

StreamStats CodecServer::aggregate_stats() const {
  MutexLock lk(lock_);
  StreamStats out;
  for (const auto& st : streams_) out.merge(st->stats);
  return out;
}

size_t CodecServer::inflight_blocks() const {
  MutexLock lk(lock_);
  return inflight_blocks_;
}

}  // namespace slc
