// CodecServer: multi-stream serving front-end over the CodecEngine.
//
// A server manages N independent client *streams*. Each stream names its
// codec in the CodecRegistry, carries its own CodecOptions (MAG, lossy
// threshold — the stream's error budget — and training sample), a
// scheduling priority, a fingerprint-cache mode and an admission policy,
// and owns a FIFO of typed requests. The server:
//
//   * coalesces small requests into engine-sized batches (one engine job per
//     batch, `Config::batch_blocks` blocks), so a thousand 1 KB requests do
//     not pay a thousand queue round-trips;
//   * serves three request kinds through one contract (Request/Response):
//     size-only analysis, decision aggregates, and full compressed payloads
//     (the codec's batched compress kernels, per-request payload scatter);
//   * flushes partial batches on a timer: a request is dispatched no later
//     than its deadline budget (or `Config::max_coalesce_delay` without
//     one), so a submit lull can no longer strand a coalescing batch;
//   * maps stream priority onto the engine's priority-aware shard claim,
//     boosts batches that carry explicit deadlines to
//     CodecEngine::kPriorityDeadline, and forwards the batch's earliest
//     absolute deadline so the engine drains same-band batches
//     earliest-deadline-first;
//   * enforces a bounded in-flight budget (`Config::max_inflight_blocks`):
//     AdmissionPolicy::kBlock streams wait (backpressure) while
//     AdmissionPolicy::kReject streams get an immediate kRejected response
//     instead of queueing — overload sheds load instead of growing latency;
//   * tracks per-stream and aggregate CommitStats, request-latency
//     percentiles (a fixed-size LatencyHistogram, p50/p99), rejections and
//     deadline misses.
//
// Memory: a stream's pending batch is one byte arena of 128 B blocks,
// appended to by submit(); shards view it on the stack, one 64-block kernel
// chunk at a time. A kCompress batch writes each payload into a per-batch
// payload arena at its block's input offset, and the waiting
// thread builds its Response::payloads from that slice in wait(). So the
// path from submit() to wait() allocates nothing per block except the
// payload vectors a Response must own. Batches are recycled: dispatch takes
// a retired batch from the stream's spare list and swaps its cleared
// buffers with the pending ones, and completion clears them again and
// returns the batch. The spare list holds only batches that were once in
// flight at the same time, so the stream's peak bounds it; a batch whose
// buffers outgrew twice a full batch frees them instead of keeping them.
// So in steady state a batch allocates only its engine job (and a kCompress
// batch its payload arena), and a request only its own state.
//
// Stream lifecycle: open_stream() -> submit() xN (tickets) -> wait()/drain().
// Streams live as long as the server; there is no close — drain() is the
// barrier, and the destructor drains.
//
// Determinism: a request's Response payloads/analysis and a stream's
// CommitStats are byte-identical for any engine thread count. Per-block
// results do not depend on which batch carried them; they land in
// index-aligned slots; the scatter to per-request responses and the stats
// fold walk blocks in order on a single thread; cross-batch merges add
// integer counters, which commute. A worker's reused kCompress slots are
// reset (empty payload, bit_size 0, not compressed) before every kernel
// call, so a kernel that leaves a slot untouched returns a fresh slot, never
// an earlier batch's bytes — another tenant's. A payload longer than its
// block fails the batch with std::length_error. Batch *boundaries*
// (StreamStats::batches) additionally depend on wall clock (the coalesce
// timer) and backpressure waits; the latency percentiles, `rejected` and
// `deadline_misses` are wall clock too — none of those four are covered by
// the guarantee.
//
// Completion: each batch is one engine job whose on_done completes it —
// served (every response built from the batch's slots), failed (a shard
// threw; the engine cancels the rest) or abandoned (the engine shut down
// with it queued). A batch the engine refuses at submit is completed inline
// by the same routine. Either way every request resolves exactly once, and
// the batch's backpressure debt is released exactly once.
//
// Threading: any thread may call any member; the server is internally
// locked. Tickets may be waited from any thread. The engine passed in (or
// the shared default) must outlive the server; shutting it down while
// requests are in flight fails them with kError instead of hanging.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "common/thread_safety.h"
#include "compress/codec_registry.h"
#include "compress/compressor.h"
#include "engine/codec_engine.h"
#include "workloads/approx_memory.h"

namespace slc {

class CodecServer;

/// Scheduling class of a stream, mapped onto the engine's job priority.
enum class StreamPriority {
  kBulk,     ///< throughput work (ratio sweeps, offline analysis)
  kNormal,   ///< default
  kLatency,  ///< latency-sensitive (interactive commits); preempts bulk
};

/// What a Request asks the stream's codec to produce.
enum class RequestKind : uint8_t {
  kAnalyze,   ///< per-block BlockAnalysis + merged ratios (size-only sweep)
  kDecide,    ///< aggregate decision counters only (no per-block vector) —
              ///< same computation as kAnalyze, cheapest response
  kCompress,  ///< full compressed payloads, byte-identical to the direct
              ///< codec path (Compressor::compress_batch)
};

/// How a stream behaves when the server's in-flight budget is saturated.
enum class AdmissionPolicy : uint8_t {
  kBlock,   ///< submit() waits in the FIFO admission turnstile (backpressure)
  kReject,  ///< submit() returns an immediate ResponseStatus::kRejected
            ///< ticket instead of waiting (load shedding; never blocks)
};

/// Fingerprint decision-memo wiring for a stream (lossy TSLC-* streams only
/// — the lossless schemes have no decision to memoize and ignore it). The
/// mode is the only way to wire a memo: open_stream() rejects a config whose
/// `options.fingerprint_cache` is already set.
enum class CacheMode : uint8_t {
  kOff,     ///< no memo (default)
  kShared,  ///< the engine's shared cache (CodecEngine::fingerprint_cache():
            ///< cross-stream dedup at the default FingerprintCache config)
};

/// Everything needed to open a stream. `options.threshold_bytes` is the
/// stream's error budget for lossy codecs; `options.training_data` is only
/// read while open_stream() constructs the codec.
struct StreamConfig {
  std::string name;
  std::string codec = "E2MC";  ///< CodecRegistry name
  CodecOptions options{};
  StreamPriority priority = StreamPriority::kNormal;
  CacheMode cache_mode = CacheMode::kOff;
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
};

using StreamId = uint32_t;

/// One typed request. `bytes` is copied at submit() and need not outlive
/// the call.
struct Request {
  RequestKind kind = RequestKind::kAnalyze;
  /// Flat byte buffer, sliced into 128 B blocks (ragged tail zero-padded
  /// like to_blocks).
  std::span<const uint8_t> bytes{};
  /// Completion deadline relative to submit(); 0 = none. A deadline arms the
  /// flush timer with a budget of deadline/2 (capped by
  /// Config::max_coalesce_delay) and boosts the carrying batch to
  /// CodecEngine::kPriorityDeadline. Deadlines are advisory: a late response
  /// is still returned, with `Response::deadline_missed` set and the
  /// stream's `deadline_misses` counter bumped.
  std::chrono::nanoseconds deadline{0};
  /// Opaque client cookie, echoed back in Response::tag.
  uint64_t tag = 0;
};

enum class ResponseStatus : uint8_t {
  kOk,        ///< served; `analysis` (and `payloads` for kCompress) valid
  kRejected,  ///< shed at admission (AdmissionPolicy::kReject, budget full);
              ///< nothing was scheduled
  kError,     ///< the batch's codec threw or the engine shut down before
              ///< running it; `error` holds the exception
};

/// Size-only result of a request: per-block analyses plus the merged
/// raw/effective ratio bookkeeping at the stream's MAG.
struct StreamAnalysis {
  std::vector<BlockAnalysis> blocks;  ///< index-aligned with the request
  RatioAccumulator ratios;
  uint64_t lossy_blocks = 0;
  uint64_t truncated_symbols = 0;
  /// Fingerprint-memo outcomes folded over the request (all zero for
  /// uncached codecs). NOT thread-count invariant — see CacheCounters.
  CacheCounters cache;
};

/// What a ticket resolves to. `analysis.ratios` is always initialized with
/// the stream's MAG; the rest depends on `status` and the request kind:
/// kAnalyze fills `analysis` (per-block vector + aggregates), kDecide fills
/// only the aggregates (empty `analysis.blocks`), kCompress fills
/// `payloads` (index-aligned with the request's blocks) + the ratio
/// aggregates derived from payload sizes.
struct Response {
  ResponseStatus status = ResponseStatus::kOk;
  uint64_t tag = 0;                ///< echoed Request::tag
  bool deadline_missed = false;    ///< served after Request::deadline elapsed
  std::exception_ptr error{};      ///< set when status == kError
  StreamAnalysis analysis;
  std::vector<CompressedBlock> payloads;

  bool ok() const { return status == ResponseStatus::kOk; }
  /// Legacy-style error propagation: rethrows the codec exception on
  /// kError, throws std::runtime_error on kRejected, no-op on kOk.
  void throw_if_failed() const {
    if (error) std::rethrow_exception(error);
    if (status == ResponseStatus::kRejected)
      throw std::runtime_error("CodecServer: request rejected at admission");
  }
};

/// Per-stream (or aggregate) serving counters. `commit` is deterministic.
/// `latency` is wall-clock time from the steady_clock capture at the top of
/// submit() — before any admission wait or coalescing delay — to response
/// delivery, over served (kOk/kError) requests only; its queries return
/// seconds. `requests` counts every submit() including rejected ones;
/// `rejected` and `deadline_misses` are wall-clock-dependent shed/miss
/// counters.
struct StreamStats {
  CommitStats commit;
  uint64_t requests = 0;
  uint64_t batches = 0;
  uint64_t rejected = 0;
  uint64_t deadline_misses = 0;
  LatencyHistogram latency;

  void merge(const StreamStats& o) {
    commit.merge(o.commit);
    requests += o.requests;
    batches += o.batches;
    rejected += o.rejected;
    deadline_misses += o.deadline_misses;
    latency.merge(o.latency);
  }
};

namespace detail {

/// A kCompress batch's output. Block i's payload is `bytes[i * kBlockBytes,
/// i * kBlockBytes + length)` — so each payload has a slot as long as its
/// block — and its size and flag travel alongside. Written by the batch's
/// shards (disjoint entries and slots), read only after the batch completed.
struct PayloadArena {
  struct Entry {
    size_t length = 0;  ///< payload bytes actually written (not derived from bit_size)
    size_t bit_size = 0;
    bool is_compressed = false;
  };
  std::vector<uint8_t> bytes;
  std::vector<Entry> entries;  ///< index-aligned with the batch's blocks
};

/// One queued request: its slice of the batch it rides in, and its own
/// completion state (the batch's completion delivers into it).
///
/// Completion is one atomic `state` and no lock: the batch's completion
/// writes `resp` and `payloads`, then publish() swaps in kDone with release
/// order, so a waiter that reads kDone (acquire) sees them. A waiter that
/// finds the request pending moves `state` to kParked and sleeps on the
/// atomic itself (std::atomic::wait); publish() wakes it (notify_all) only
/// when the swap returns kParked. The completing thread holds a reference
/// to the request across publish(), so the notify never touches a freed
/// request.
struct ServerRequest {
  enum class State : uint32_t { kPending, kParked, kDone };

  size_t offset = 0;    ///< first block inside the dispatched batch
  size_t n_blocks = 0;
  /// Its stream's dispatched-batch count when the request joined the
  /// pending batch: that batch is still coalescing while the count is
  /// unchanged.
  uint64_t batch = 0;
  RequestKind kind = RequestKind::kAnalyze;
  uint64_t tag = 0;
  std::chrono::nanoseconds deadline{0};  ///< 0 = none
  std::chrono::steady_clock::time_point submitted{};

  /// Written once, by publish()'s caller before it, and read only after
  /// ready() (`state`'s release store publishes them).
  Response resp;
  /// A served kCompress request's batch output; wait() builds resp.payloads
  /// from this request's entries. The request holds the arena, never the
  /// batch: the batch holds its requests, so that would be a cycle.
  std::shared_ptr<const PayloadArena> payloads;

  /// Marks `resp` and `payloads` complete and wakes a parked waiter.
  void publish() {
    if (state.exchange(State::kDone, std::memory_order_acq_rel) == State::kParked)
      state.notify_all();
  }
  /// True once publish() ran; `resp` and `payloads` are then readable.
  bool ready() const { return state.load(std::memory_order_acquire) == State::kDone; }
  /// Blocks until publish() ran.
  void await() {
    // Park, unless publish() already ran (the exchange then finds kDone);
    // a parked request only ever moves on to kDone.
    State seen = State::kPending;
    state.compare_exchange_strong(seen, State::kParked, std::memory_order_acquire);
    while (!ready()) state.wait(State::kParked, std::memory_order_acquire);
  }

 private:
  std::atomic<State> state{State::kPending};
};

}  // namespace detail

/// Ticket for one submitted request. Move-only; wait() is one-shot: it
/// forces dispatch of the request's batch if still coalescing, blocks until
/// the batch completed, and returns the Response (codec errors travel in
/// Response::status / Response::error — wait() itself only throws on
/// misuse). The ticket must not outlive the server.
class ServerTicket {
 public:
  ServerTicket() = default;
  ServerTicket(ServerTicket&&) noexcept = default;
  ServerTicket& operator=(ServerTicket&&) noexcept = default;
  ServerTicket(const ServerTicket&) = delete;
  ServerTicket& operator=(const ServerTicket&) = delete;

  /// Non-blocking: has the request completed (served, failed or rejected)?
  bool ready() const;
  /// Blocks until this request completed; one-shot.
  Response wait();

 private:
  friend class CodecServer;
  ServerTicket(CodecServer* server, StreamId stream, std::shared_ptr<detail::ServerRequest> req)
      : server_(server), stream_(stream), req_(std::move(req)) {}

  CodecServer* server_ = nullptr;
  StreamId stream_ = 0;
  std::shared_ptr<detail::ServerRequest> req_;
};

class CodecServer {
 public:
  struct Config {
    /// Engine batches run on; null picks CodecEngine::shared_default().
    std::shared_ptr<CodecEngine> engine;
    /// Coalescing target: a stream's pending requests dispatch as one engine
    /// job once they cover this many blocks (or on wait()/drain/timer).
    size_t batch_blocks = 256;
    /// Backpressure budget: a kBlock submit() waits while admitting the
    /// request would push dispatched-plus-queued blocks past this (a kReject
    /// submit() is shed instead). 0 = unbounded. Admission is FIFO (so no
    /// request can be starved); a request larger than the whole budget is
    /// admitted — and dispatched immediately — once the server drains empty,
    /// rather than deadlocking. Fairness has a flip side: while such an
    /// oversized request waits at the head of the admission queue, every
    /// younger submit (including a kLatency stream's) waits behind the drain
    /// — and every kReject submit is shed. Size the budget at or above the
    /// largest request you serve — priority preemption then applies from
    /// the moment of dispatch and admission never head-of-line blocks.
    size_t max_inflight_blocks = 16384;
    /// Upper bound on how long a parked request may coalesce before the
    /// timer thread force-dispatches its batch. A request with a deadline
    /// uses min(deadline/2, this) as its budget; one without uses this
    /// directly. 0 disables idle flush for deadline-free requests (they
    /// dispatch when full, waited or drained) — deadline-carrying requests
    /// always arm the timer.
    std::chrono::microseconds max_coalesce_delay{2000};
  };

  CodecServer();  ///< default Config (shared engine, default batching)
  explicit CodecServer(Config cfg);
  /// Stops the flush timer, drains every stream, then releases the engine.
  ~CodecServer();

  CodecServer(const CodecServer&) = delete;
  CodecServer& operator=(const CodecServer&) = delete;

  /// Opens a stream: resolves `cfg.codec` in the registry (throws
  /// std::out_of_range on an unknown name, std::invalid_argument when the
  /// scheme needs training data the options lack), wires the fingerprint
  /// cache per `cfg.cache_mode` and constructs its codec. Also throws
  /// std::invalid_argument when `cfg.options.fingerprint_cache` is already
  /// set (cache_mode is the one way in) or `cfg.options.mag_bytes` is not a
  /// positive divisor of kBlockBytes.
  StreamId open_stream(StreamConfig cfg);

  /// Throws std::out_of_range for an id open_stream never returned.
  const std::string& stream_name(StreamId s) const;

  /// Queues a typed request on `s` (input copied). kBlock streams may wait
  /// on backpressure; kReject streams never block. An empty request
  /// completes immediately. See Request/Response for the contract.
  ServerTicket submit(StreamId s, const Request& request);

  /// Barrier: dispatches every partial batch and blocks until all in-flight
  /// batches completed. Request errors stay with their tickets.
  void drain();

  /// Counters over completed requests. Call drain() first for run totals.
  StreamStats stream_stats(StreamId s) const;
  /// All streams' counters merged.
  StreamStats aggregate_stats() const;

  /// Dispatched-but-unfinished blocks (the backpressure level).
  size_t inflight_blocks() const;

  CodecEngine& engine() const { return *engine_; }

 private:
  friend class ServerTicket;
  struct Batch;
  struct Stream {
    StreamConfig cfg;
    std::shared_ptr<const Compressor> codec;
    int engine_priority = 0;
    /// The pending requests' blocks back to back, owned until dispatch;
    /// block i is pending_bytes[i * kBlockBytes, (i + 1) * kBlockBytes).
    std::vector<uint8_t> pending_bytes;
    std::vector<std::shared_ptr<detail::ServerRequest>> pending;
    /// Kind of the pending batch (a submit with a different kind dispatches
    /// the pending batch first — batches are kind-homogeneous).
    RequestKind pending_kind = RequestKind::kAnalyze;
    /// Earliest force-dispatch time over `pending` (meaningful only while
    /// `pending` is non-empty; time_point::max() = no timed flush armed).
    std::chrono::steady_clock::time_point flush_by{};
    /// Any pending request carries a deadline -> dispatch at
    /// CodecEngine::kPriorityDeadline.
    bool pending_has_deadline = false;
    /// Earliest absolute deadline over `pending` (kNoDeadline when none) —
    /// forwarded to the engine so same-band batches claim EDF.
    std::chrono::steady_clock::time_point pending_deadline = CodecEngine::kNoDeadline;
    StreamStats stats;
    /// Every batch this stream dispatched, in flight or spare; they live as
    /// long as the server (which drains before it is destroyed).
    std::vector<std::unique_ptr<Batch>> batches;
    /// Retired batches ready for reuse, linked through Batch::next.
    Batch* spare = nullptr;
  };
  /// Batches prepared under lock_, in dispatch order, to be handed to the
  /// engine once it is released.
  struct ReadyBatches;

  /// Dispatches `s`'s pending batch if it is still batch number `batch`
  /// (the one a waited request joined), so a waiter never flushes a later,
  /// unrelated partial batch.
  void flush_batch(StreamId s, uint64_t batch) SLC_EXCLUDES(lock_);
  /// Packages the stream's pending requests into one batch (a spare one
  /// when the stream has one) and appends it to `ready`; it counts as in
  /// flight from here. The caller hands `ready` to the engine after
  /// releasing lock_.
  void dispatch_locked(StreamId s, ReadyBatches& ready) SLC_REQUIRES(lock_);
  /// Submits each ready batch as one engine job at its stream's priority,
  /// with complete_batch as its on_done. A batch the engine refuses (it is
  /// stopping) is completed here with that exception.
  void hand_off(ReadyBatches& ready) SLC_EXCLUDES(lock_);
  /// Backpressure predicate: would admitting `n` more blocks fit the budget
  /// (or is the server drained empty — the oversized-request escape)?
  bool admit_fits_locked(size_t n) const SLC_REQUIRES(lock_);
  /// A batch's engine on_done: delivers every response (kError with `err`
  /// when set) and releases the batch's buffers and request references
  /// outside lock_, then retires the batch under it.
  void complete_batch(Batch& batch, std::exception_ptr err) SLC_EXCLUDES(lock_);
  /// Builds and publishes each request's response, dropping the batch's
  /// reference to it right after, and tallies what the batch adds to its
  /// stream's stats (commit counters, empty with `err`; latencies; deadline
  /// misses) in the same pass over its blocks.
  static void deliver_batch(Batch& batch, std::exception_ptr err,
                            std::chrono::steady_clock::time_point now);
  /// Folds the batch's tally into its stream's stats, releases its
  /// backpressure and drain debt and returns it to the stream's spare list.
  void retire_batch_locked(Batch& batch) SLC_REQUIRES(lock_);
  /// Body of the flush-timer thread: force-dispatches batches whose
  /// flush_by elapsed, sleeps until the next one (or until notified).
  void timer_loop() SLC_EXCLUDES(lock_);

  Config cfg_;
  std::shared_ptr<CodecEngine> engine_;

  /// Guards every field below. Streams are never removed and Stream objects
  /// are pointer-stable (unique_ptr), but the vector and all Stream contents
  /// (pending queues, stats) are only touched under this lock.
  mutable Mutex lock_;
  CondVar backpressure_cv_;  ///< signals: budget freed / turnstile advanced
  CondVar drain_cv_;         ///< signals: inflight_batches_ reached 0
  CondVar timer_cv_;         ///< signals: flush_by armed before timer_wake_ / stopping_
  /// When the timer thread next rescans (time_point::max() while it waits
  /// untimed). submit() notifies timer_cv_ only for a flush earlier than
  /// this, so the timer wakes once per coalescing window, not per batch.
  std::chrono::steady_clock::time_point timer_wake_ SLC_GUARDED_BY(lock_) =
      std::chrono::steady_clock::time_point::max();
  std::vector<std::unique_ptr<Stream>> streams_ SLC_GUARDED_BY(lock_);
  size_t inflight_blocks_ SLC_GUARDED_BY(lock_) = 0;
  size_t inflight_batches_ SLC_GUARDED_BY(lock_) = 0;
  /// Queued but not yet dispatched, all streams.
  size_t pending_blocks_total_ SLC_GUARDED_BY(lock_) = 0;
  uint64_t admit_head_ SLC_GUARDED_BY(lock_) = 0;  ///< turnstile: next turn to admit
  uint64_t admit_tail_ SLC_GUARDED_BY(lock_) = 0;  ///< next turn to hand out
  bool stopping_ SLC_GUARDED_BY(lock_) = false;    ///< ~CodecServer: timer must exit
  /// kCompress kernel output slots, one chunk per engine worker, indexed by
  /// the shard's worker_id. Not under lock_: a worker runs one shard at a
  /// time, so only worker w touches worker_slots_[w]. Reused across batches
  /// so the payload vectors keep their capacity.
  std::vector<std::array<CompressedBlock, CodecEngine::kMinShard>> worker_slots_;
  std::thread timer_;  ///< flush-timer thread; started in ctor, joined in dtor
};

}  // namespace slc
