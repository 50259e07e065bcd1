// Serving workloads: one TSLC-OPT CodecServer stream (32-block requests,
// 5 ms deadline, kReject admission) on a fresh CodecEngine(2) and server per
// measurement.
//
//   serve_compress      kCompress, memo off — the payload-writing path
//   serve_decide_fresh  kDecide, engine-shared memo, image-pool traffic whose
//                       only repeats are natural ones (zeroed outputs, ...)
//   serve_decide_dup    kDecide, engine-shared memo, 90% of blocks drawn
//                       from a seeded 4096-block working set (fits the memo)
//
// Two load shapes:
//
//   * Saturation (closed loop): one client keeps kWindowRequests requests
//     outstanding, waiting on the oldest before submitting the next, so the
//     engine workers stay busy and the client wakes about once per batch. The
//     untraced run spends its whole window here and reports the median
//     blocks served per CPU-second of kSegments equal segments, scaled by
//     the core speed read between them — the end-to-end number. It is the
//     serving measurement that repeats on a shared 4-vCPU host (see README
//     "Why the latency points are per-layer" and "Host-speed
//     normalization").
//   * Open loop (traced runs): this thread submits on a fixed Poisson
//     schedule; one collector thread wait()s tickets in submission order and
//     stamps completions, so wait() may dispatch a coalescing batch early, as
//     a client awaiting its reply does. Latency runs from the request's due
//     time, not from submit()'s return. A request fails when it is rejected,
//     errors or completes more than the 5 ms SLO after its due time. Two fixed
//     rates (lo ~20%, hi ~60% of a 4-vCPU Xeon VM's capacity, set once below
//     and never recalibrated — recalibrating would hide a faster kernel) and
//     a geometric bisection for the highest rate that meets the SLO without a
//     growing backlog.
//
// Sampled responses of every measurement are checked against the direct,
// uncached codec.
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common/rng.h"
#include "common/thread_safety.h"
#include "compress/codec_registry.h"
#include "core/fingerprint_cache.h"
#include "e2e.h"
#include "server/codec_server.h"
#include "trace.h"
#include "workloads/workload.h"

namespace slc::e2e {

namespace {

constexpr size_t kBlocksPerRequest = 32;
constexpr unsigned kEngineThreads = 2;
constexpr int64_t kSloNs = 5'000'000;  ///< the SLO, also each request's deadline
constexpr size_t kWorkingSetBlocks = 4096;
/// Saturation: requests kept outstanding — eight full coalescing batches
/// (CodecServer::Config::batch_blocks), so batches dispatch on filling and
/// the engine queue never runs dry between them.
constexpr size_t kWindowRequests = 64;
constexpr int kSegments = 40;              ///< saturation: median over these
constexpr double kProbeFloorKblk = 50.0;   ///< bisection bracket, kblk/s
constexpr double kProbeCeilKblk = 4000.0;
constexpr int kProbes = 7;
constexpr double kWarmupS = 0.5;           ///< untimed, per measurement
constexpr double kSmokeS = 0.5;
constexpr int64_t kMaxLagNs = 250'000'000; ///< generator this far behind: stop
constexpr int kMaxReruns = 2;              ///< per point with a late generator
constexpr int64_t kBacklogSlack = 64;      ///< requests
constexpr uint64_t kCheckEvery = 64;       ///< sampled output checks
constexpr int kKernelReps = 5;
constexpr size_t kKernelRequests = 512;
constexpr const char* kScheme = "TSLC-OPT";
constexpr const char* kTimedScheme = "TSLC-OPT.timed";

struct ServeSpec {
  const char* name;
  RequestKind kind;
  CacheMode cache;
  double dup_frac;   ///< share of blocks drawn from the working set
  double lo_kblk_s;  ///< open-loop fixed rates, kblk/s (README "Fixed rates")
  double hi_kblk_s;
};

const ServeSpec kSpecs[] = {
    {"serve_compress", RequestKind::kCompress, CacheMode::kOff, 0.0, 180.0, 540.0},
    {"serve_decide_fresh", RequestKind::kDecide, CacheMode::kShared, 0.0, 200.0, 600.0},
    {"serve_decide_dup", RequestKind::kDecide, CacheMode::kShared, 0.9, 250.0, 750.0},
};

// --- timed codec (traced runs) ----------------------------------------------

trace::CallCounter g_kernel_calls;

/// Forwards every call to the real TSLC-OPT compressor and times the batch
/// kernels on the calling engine worker. The server builds stream codecs by
/// registry name, so traced runs open their stream on kTimedScheme.
class TimedCompressor final : public Compressor {
 public:
  explicit TimedCompressor(std::shared_ptr<const Compressor> inner) : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  CompressedBlock compress(BlockView block) const override { return inner_->compress(block); }
  Block decompress(const CompressedBlock& cb, size_t block_bytes) const override {
    return inner_->decompress(cb, block_bytes);
  }
  BlockAnalysis analyze(BlockView block) const override { return inner_->analyze(block); }

  using Compressor::analyze_batch;
  using Compressor::compress_batch;
  void analyze_batch(std::span<const BlockView> blocks, BlockAnalysis* out) const override {
    const int64_t t0 = trace::now_ns();
    inner_->analyze_batch(blocks, out);
    g_kernel_calls.add(blocks.size(), trace::now_ns() - t0);
  }
  void compress_batch(std::span<const BlockView> blocks, CompressedBlock* out) const override {
    const int64_t t0 = trace::now_ns();
    inner_->compress_batch(blocks, out);
    g_kernel_calls.add(blocks.size(), trace::now_ns() - t0);
  }

 private:
  std::shared_ptr<const Compressor> inner_;
};

CodecInfo timed_info() {
  CodecInfo info;
  info.name = kTimedScheme;
  info.scheme = "TSLC-OPT with per-call kernel timing (benchmark instrumentation)";
  info.paper = "-";
  info.lossy = true;
  info.needs_training = true;
  info.make = [](const CodecOptions& opts) -> std::shared_ptr<const Compressor> {
    return std::make_shared<TimedCompressor>(CodecRegistry::instance().create(kScheme, opts));
  };
  return info;
}

const CodecRegistrar timed_registrar(timed_info());

// --- setup: block pool, model, traffic ---------------------------------------

struct Setup {
  std::vector<uint8_t> pool;  ///< whole blocks of the nine workload images
  std::vector<size_t> working_set;
  CodecOptions options;       ///< the stream's codec options (uncached)
  std::shared_ptr<const Compressor> direct;  ///< uncached oracle for the checks

  size_t pool_blocks() const { return pool.size() / kBlockBytes; }
};

Setup build_setup(uint64_t seed) {
  Setup s;
  for (const std::string& name : workload_names()) {
    trace::Span span("workloads.image");
    const std::vector<uint8_t> image = workload_memory_image(name);
    s.pool.insert(s.pool.end(), image.begin(),
                  image.begin() + static_cast<ptrdiff_t>(image.size() / kBlockBytes * kBlockBytes));
  }
  {
    // One model for the mixed stream, trained on every tenth pool block so
    // all nine images are represented (a prefix would see only the first).
    trace::Span span("compress.train");
    std::vector<uint8_t> sample;
    for (size_t b = 0; b < s.pool_blocks(); b += 10)
      sample.insert(sample.end(), s.pool.begin() + static_cast<ptrdiff_t>(b * kBlockBytes),
                    s.pool.begin() + static_cast<ptrdiff_t>((b + 1) * kBlockBytes));
    E2mcConfig cfg;
    cfg.sample_fraction = 1.0;
    s.options.trained_e2mc = E2mcCompressor::train(sample, cfg);
  }
  s.options.mag_bytes = kMagBytes;
  s.options.threshold_bytes = kThresholdBytes;
  s.direct = CodecRegistry::instance().create(kScheme, s.options);
  Rng rng(seed);
  for (size_t i = 0; i < kWorkingSetBlocks; ++i)
    s.working_set.push_back(rng.next_below(s.pool_blocks()));
  return s;
}

/// Writes request `i`'s blocks into `dst` (kBlocksPerRequest blocks): a
/// contiguous run at a random pool offset, or — for the dup workload — each
/// block from the working set with probability dup_frac. A pure function of
/// (stream_seed, i), so the checks can regenerate any request.
void request_blocks(const ServeSpec& spec, const Setup& s, uint64_t stream_seed, uint64_t i,
                    std::span<uint8_t> dst) {
  Rng rng(stream_seed + 0x9E3779B97F4A7C15ull * (i + 1));
  auto copy = [&](size_t j, size_t block) {
    std::copy_n(s.pool.begin() + static_cast<ptrdiff_t>(block * kBlockBytes), kBlockBytes,
                dst.begin() + static_cast<ptrdiff_t>(j * kBlockBytes));
  };
  if (spec.dup_frac == 0.0) {
    const size_t first = rng.next_below(s.pool_blocks() - kBlocksPerRequest + 1);
    for (size_t j = 0; j < kBlocksPerRequest; ++j) copy(j, first + j);
    return;
  }
  for (size_t j = 0; j < kBlocksPerRequest; ++j)
    copy(j, rng.chance(spec.dup_frac) ? s.working_set[rng.next_below(s.working_set.size())]
                                      : rng.next_below(s.pool_blocks()));
}

std::vector<BlockView> views_of(std::span<const uint8_t> bytes) {
  std::vector<BlockView> out;
  for (size_t off = 0; off + kBlockBytes <= bytes.size(); off += kBlockBytes)
    out.emplace_back(bytes.subspan(off, kBlockBytes));
  return out;
}

/// A fresh CodecEngine(kEngineThreads) and CodecServer with the workload's
/// one stream.
class ServerUnderTest {
 public:
  ServerUnderTest(const ServeSpec& spec, const Setup& s, bool timed)
      : spec_(spec), server_(config()) {
    StreamConfig sc;
    sc.name = spec.name;
    sc.codec = timed ? kTimedScheme : kScheme;
    sc.options = s.options;
    sc.cache_mode = spec.cache;
    sc.admission = AdmissionPolicy::kReject;
    stream_ = server_.open_stream(sc);
  }

  ServerTicket submit(std::span<const uint8_t> bytes, uint64_t tag) {
    trace::Span span("server.submit", tag + 1);
    return server_.submit(stream_, Request{.kind = spec_.kind,
                                           .bytes = bytes,
                                           .deadline = std::chrono::nanoseconds(kSloNs),
                                           .tag = tag});
  }
  void drain() { server_.drain(); }

 private:
  static CodecServer::Config config() {
    CodecServer::Config cfg;
    cfg.engine = std::make_shared<CodecEngine>(kEngineThreads);
    return cfg;
  }

  const ServeSpec& spec_;
  CodecServer server_;
  StreamId stream_ = 0;
};

/// Response aggregates folded over the measured requests of one measurement.
struct Served {
  CacheCounters cache;
  RatioAccumulator ratios{kMagBytes};
  uint64_t lossy_blocks = 0;

  void add(const Response& r) {
    cache.merge(r.analysis.cache);
    ratios.merge(r.analysis.ratios);
    lossy_blocks += r.analysis.lossy_blocks;
  }
  void merge(const Served& o) {
    cache.merge(o.cache);
    ratios.merge(o.ratios);
    lossy_blocks += o.lossy_blocks;
  }
};

/// Compares sampled responses with the direct, uncached codec; returns one
/// message per mismatch.
std::vector<std::string> check_responses(const ServeSpec& spec, const Setup& s,
                                         uint64_t stream_seed,
                                         const std::vector<std::pair<uint64_t, Response>>& kept) {
  std::vector<std::string> errors;
  std::vector<uint8_t> bytes(kBlocksPerRequest * kBlockBytes);
  for (const auto& [i, resp] : kept) {
    if (!resp.ok()) continue;  // already counted as a failure
    request_blocks(spec, s, stream_seed, i, bytes);
    const std::vector<BlockView> views = views_of(bytes);
    bool same = true;
    if (spec.kind == RequestKind::kCompress) {
      std::vector<CompressedBlock> want(views.size());
      s.direct->compress_batch(views, want.data());
      same = resp.payloads.size() == want.size();
      for (size_t j = 0; same && j < want.size(); ++j)
        same = resp.payloads[j].payload == want[j].payload &&
               resp.payloads[j].bit_size == want[j].bit_size &&
               resp.payloads[j].is_compressed == want[j].is_compressed;
    } else {
      std::vector<BlockAnalysis> want(views.size());
      s.direct->analyze_batch(views, want.data());
      RatioAccumulator ratios(kMagBytes);
      uint64_t lossy = 0;
      uint64_t truncated = 0;
      for (const BlockAnalysis& a : want) {
        ratios.add(kBlockBytes * 8, a.bit_size);
        lossy += a.lossy ? 1 : 0;
        truncated += a.truncated_symbols;
      }
      const auto& got = resp.analysis;
      same = got.blocks.empty() && got.ratios.blocks() == ratios.blocks() &&
             got.ratios.raw_ratio() == ratios.raw_ratio() &&
             got.ratios.effective_ratio() == ratios.effective_ratio() &&
             got.lossy_blocks == lossy && got.truncated_symbols == truncated;
    }
    if (!same)
      errors.push_back(std::string(spec.name) + ": request " + std::to_string(i) + " of stream " +
                       std::to_string(stream_seed) + " differs from the direct codec");
  }
  return errors;
}

// --- saturation (closed loop) -------------------------------------------------

struct Saturation {
  double kblk_s = 0.0;          ///< median served rate over kSegments segments
  double kblk_per_cpu_s = 0.0;  ///< median over the segments of served ÷ CPU time
  uint64_t requests = 0;        ///< completed inside the measured segments
  uint64_t failed = 0;          ///< rejected or errored
  HostSpeed speed;              ///< sampled before and after every segment
  Served served;
  std::vector<std::string> errors;

  double norm_kblk_per_cpu_s() const { return kblk_per_cpu_s * speed.slowdown(); }
};

/// Closed-loop saturation in kSegments segments. Each segment refills the
/// window, keeps it full for its share of `seconds` and then drains it; its
/// served blocks are divided by its wall time and by the CPU time of the
/// whole process. The core speed is read between segments, while the server
/// is idle.
Saturation saturate(const ServeSpec& spec, const Setup& s, double seconds, uint64_t stream_seed,
                    bool timed) {
  Saturation out;
  ServerUnderTest server(spec, s, timed);
  std::deque<std::pair<uint64_t, ServerTicket>> outstanding;
  std::vector<uint8_t> bytes(kBlocksPerRequest * kBlockBytes);
  std::vector<std::pair<uint64_t, Response>> kept;
  uint64_t next = 0;
  auto submit = [&] {
    request_blocks(spec, s, stream_seed, next, bytes);
    outstanding.emplace_back(next, server.submit(bytes, next));
    next += 1;
  };
  // Returns the requests served, counting them only when `measured`.
  auto run_until = [&](int64_t until, bool measured) {
    uint64_t served = 0;
    while (outstanding.size() < kWindowRequests) submit();
    while (!outstanding.empty()) {
      const uint64_t i = outstanding.front().first;
      Response resp = outstanding.front().second.wait();
      outstanding.pop_front();
      if (trace::now_ns() < until) submit();
      if (!measured) continue;
      out.requests += 1;
      if (!resp.ok()) {
        out.failed += 1;
        continue;
      }
      served += 1;
      out.served.add(resp);
      if (i % kCheckEvery == 0) kept.emplace_back(i, std::move(resp));
    }
    return served;
  };

  run_until(trace::now_ns() + static_cast<int64_t>(kWarmupS * 1e9), false);
  const int64_t segment_ns = static_cast<int64_t>(seconds * 1e9) / kSegments;
  std::vector<double> rates;
  std::vector<double> cpu_rates;
  for (int k = 0; k < kSegments; ++k) {
    out.speed.sample();
    const int64_t start = trace::now_ns();
    const double cpu0 = process_cpu_s();
    const double kblk = static_cast<double>(run_until(start + segment_ns, true)) *
                        kBlocksPerRequest / 1e3;
    cpu_rates.push_back(kblk / (process_cpu_s() - cpu0));
    rates.push_back(kblk / seconds_since(start));
  }
  out.speed.sample();
  server.drain();

  out.kblk_s = median(rates);
  out.kblk_per_cpu_s = median(cpu_rates);
  out.errors = check_responses(spec, s, stream_seed, kept);
  std::fprintf(stderr,
               "  %-18s saturation (%zu outstanding) %8.1f kblk/s, %6.1f kblk/cpu-s, reference "
               "kernel %.1f us: %6.1f kblk/cpu-s normalized  %llu req\n",
               spec.name, kWindowRequests, out.kblk_s, out.kblk_per_cpu_s, out.speed.median_us(),
               out.norm_kblk_per_cpu_s(), static_cast<unsigned long long>(out.requests));
  return out;
}

// --- open loop: one rate point -----------------------------------------------

struct Point {
  double rate_kblk_s = 0.0;
  uint64_t requests = 0;  ///< recorded (post-warm-up) requests
  uint64_t served = 0;
  uint64_t rejected = 0;
  uint64_t errored = 0;
  uint64_t late = 0;      ///< served, but more than the SLO after the due time
  uint64_t deadline_missed = 0;
  std::vector<double> latency_ms;  ///< from the due time; failures read +inf
  std::vector<double> submit_us;   ///< inside CodecServer::submit
  std::vector<double> service_us;  ///< submit() return -> collector stamp
  std::vector<double> lag_us;      ///< generator lateness at submit
  int64_t backlog_mid = 0;         ///< outstanding requests at mid-point
  int64_t backlog_end = 0;
  bool overran = false;            ///< the generator fell too far behind
  Served aggregates;
  std::vector<std::string> errors;

  double fail_frac() const {
    return share(static_cast<double>(rejected + errored + late), static_cast<double>(requests));
  }
  /// The load generator held its schedule: lag p99 within 10% of the SLO.
  bool valid() const { return !overran && percentile(lag_us, 99) * 1e3 <= 0.1 * kSloNs; }
  bool meets_slo() const {
    return requests > 0 && !overran && percentile(latency_ms, 99) * 1e6 <= kSloNs &&
           fail_frac() <= 0.01 && backlog_end <= backlog_mid + kBacklogSlack;
  }
};

struct Slot {
  ServerTicket ticket;
  int64_t due = 0;
  int64_t submit_start = 0;
  int64_t submit_end = 0;
  int64_t done = 0;
  ResponseStatus status = ResponseStatus::kOk;
  bool deadline_missed = false;
};

/// Sleeps until `t_ns`. The generator sleeps rather than spins: a spinning
/// generator is a fifth runnable thread beside the collector, two engine
/// workers and the server timer on a 4-core host, and the preemptions it
/// causes show up as multi-millisecond latency spikes. Run with minimal
/// timer slack (see run_serve), a sleep overshoots by a few microseconds.
void wait_until(int64_t t_ns) {
  const int64_t left = t_ns - trace::now_ns();
  if (left > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(left));
}

Point run_point(const ServeSpec& spec, const Setup& s, double rate_kblk_s, double seconds,
                uint64_t stream_seed, bool timed) {
  Point p;
  p.rate_kblk_s = rate_kblk_s;
  ServerUnderTest server(spec, s, timed);

  const double req_per_ns = rate_kblk_s * 1e3 / kBlocksPerRequest * 1e-9;
  const int64_t warm_ns = static_cast<int64_t>(kWarmupS * 1e9);
  const int64_t total_ns = warm_ns + static_cast<int64_t>(seconds * 1e9);
  std::vector<Slot> slots(static_cast<size_t>(req_per_ns * static_cast<double>(total_ns) * 1.25) +
                          1024);

  // Generator -> collector handoff: slot i is fully written before
  // `published` passes i, and only the collector touches it afterwards until
  // the join. `published` and `closed` are read and written under `m`.
  Mutex m;
  CondVar cv;
  size_t published = 0;
  bool closed = false;
  std::atomic<size_t> collected{0};
  std::vector<std::pair<uint64_t, Response>> kept;
  const int64_t t0 = trace::now_ns() + 1'000'000;
  const int64_t record_from = t0 + warm_ns;

  auto collect = [&] {
    for (size_t i = 0;; ++i) {
      {
        MutexLock lk(m);
        while (published <= i && !closed) cv.wait(m);
        if (published <= i) return;
      }
      Slot& sl = slots[i];
      Response resp = sl.ticket.wait();
      sl.done = trace::now_ns();
      sl.status = resp.status;
      sl.deadline_missed = resp.deadline_missed;
      if (sl.due >= record_from && resp.ok()) {
        p.aggregates.add(resp);
        if (i % kCheckEvery == 0) kept.emplace_back(i, std::move(resp));
      }
      collected.store(i + 1, std::memory_order_release);
    }
  };
  std::exception_ptr collector_error;
  std::thread collector([&] {
    try {
      collect();
    } catch (...) {
      collector_error = std::current_exception();
    }
  });
  auto close_and_join = [&] {
    {
      MutexLock lk(m);
      closed = true;
    }
    cv.notify_all();
    if (collector.joinable()) collector.join();
  };

  size_t n = 0;
  try {
    Rng gaps(stream_seed);
    std::vector<uint8_t> bytes(kBlocksPerRequest * kBlockBytes);
    bool mid_taken = false;
    double due = 0.0;
    while (n < slots.size()) {
      due += -std::log(1.0 - gaps.uniform()) / req_per_ns;
      if (due >= static_cast<double>(total_ns)) break;
      Slot& sl = slots[n];
      sl.due = t0 + static_cast<int64_t>(due);
      wait_until(sl.due);
      sl.submit_start = trace::now_ns();
      if (sl.submit_start - sl.due > kMaxLagNs) {
        p.overran = true;
        break;
      }
      if (!mid_taken && sl.due >= record_from + (total_ns - warm_ns) / 2) {
        p.backlog_mid = static_cast<int64_t>(n - collected.load(std::memory_order_acquire));
        mid_taken = true;
      }
      request_blocks(spec, s, stream_seed, n, bytes);
      sl.ticket = server.submit(bytes, n);
      sl.submit_end = trace::now_ns();
      {
        MutexLock lk(m);
        published = ++n;
      }
      cv.notify_one();
    }
    p.backlog_end = static_cast<int64_t>(n - collected.load(std::memory_order_acquire));
  } catch (...) {
    close_and_join();
    throw;
  }
  close_and_join();
  if (collector_error) std::rethrow_exception(collector_error);
  server.drain();

  for (size_t i = 0; i < n; ++i) {
    const Slot& sl = slots[i];
    if (sl.due < record_from) continue;
    p.requests += 1;
    p.lag_us.push_back(static_cast<double>(sl.submit_start - sl.due) * 1e-3);
    p.submit_us.push_back(static_cast<double>(sl.submit_end - sl.submit_start) * 1e-3);
    p.deadline_missed += sl.deadline_missed ? 1 : 0;
    if (sl.status != ResponseStatus::kOk) {
      p.rejected += sl.status == ResponseStatus::kRejected ? 1 : 0;
      p.errored += sl.status == ResponseStatus::kError ? 1 : 0;
      p.latency_ms.push_back(INFINITY);  // a failure misses every latency limit
      continue;
    }
    p.served += 1;
    p.late += sl.done - sl.due > kSloNs ? 1 : 0;
    p.latency_ms.push_back(static_cast<double>(sl.done - sl.due) * 1e-6);
    p.service_us.push_back(static_cast<double>(sl.done - sl.submit_end) * 1e-3);
  }
  p.errors = check_responses(spec, s, stream_seed, kept);
  std::fprintf(stderr,
               "  %-18s %8.1f kblk/s  %6llu req  p50 %7.3f ms  p99 %9.3f ms  fail %.4f  "
               "backlog %lld->%lld  lag p99 %.1f us%s\n",
               spec.name, rate_kblk_s, static_cast<unsigned long long>(p.requests),
               percentile(p.latency_ms, 50), percentile(p.latency_ms, 99), p.fail_frac(),
               static_cast<long long>(p.backlog_mid), static_cast<long long>(p.backlog_end),
               percentile(p.lag_us, 99), p.valid() ? "" : "  (invalid: generator late)");
  return p;
}

/// run_point, re-run up to kMaxReruns times while the generator could not
/// hold its schedule: such a point measures the host, not the server.
Point measure(const ServeSpec& spec, const Setup& s, double rate_kblk_s, double seconds,
              uint64_t stream_seed, bool timed, Outcome& out) {
  for (int attempt = 0;; ++attempt) {
    Point p = run_point(spec, s, rate_kblk_s, seconds, stream_seed, timed);
    if (p.valid() || attempt == kMaxReruns) return p;
    out.reruns += 1;
  }
}

/// Highest rate in [kProbeFloorKblk, kProbeCeilKblk] that meets the SLO,
/// by geometric bisection (the floor is assumed to pass).
double max_rate(const ServeSpec& spec, const Setup& s, double probe_s, uint64_t seed,
                Outcome& out) {
  double lo = kProbeFloorKblk;
  double hi = kProbeCeilKblk;
  for (int k = 0; k < kProbes; ++k) {
    const double mid = std::sqrt(lo * hi);
    const Point p = measure(spec, s, mid, probe_s, seed + 10 + static_cast<uint64_t>(k), false, out);
    out.errors.insert(out.errors.end(), p.errors.begin(), p.errors.end());
    (p.meets_slo() ? lo : hi) = mid;
  }
  return lo;
}

/// Median single-thread kernel time per 1000 blocks over this workload's
/// traffic: compress_batch for kCompress, analyze_batch with a fresh memo
/// (when the workload uses one) for kDecide.
double kernel_us_per_kblk(const ServeSpec& spec, const Setup& s, uint64_t seed) {
  std::vector<uint8_t> bytes(kKernelRequests * kBlocksPerRequest * kBlockBytes);
  for (size_t i = 0; i < kKernelRequests; ++i)
    request_blocks(spec, s, seed, i,
                   std::span(bytes).subspan(i * kBlocksPerRequest * kBlockBytes,
                                            kBlocksPerRequest * kBlockBytes));
  const std::vector<BlockView> views = views_of(bytes);
  std::vector<double> reps;
  for (int r = 0; r < kKernelReps; ++r) {
    CodecOptions opts = s.options;
    if (spec.cache != CacheMode::kOff) opts.fingerprint_cache = std::make_shared<FingerprintCache>();
    const auto codec = CodecRegistry::instance().create(kScheme, opts);
    const int64_t t0 = trace::now_ns();
    if (spec.kind == RequestKind::kCompress) {
      std::vector<CompressedBlock> out(views.size());
      codec->compress_batch(views, out.data());
    } else {
      std::vector<BlockAnalysis> out(views.size());
      codec->analyze_batch(views, out.data());
    }
    reps.push_back(seconds_since(t0));
  }
  return median(reps) / static_cast<double>(views.size()) * 1e9;
}

/// The measurements of a traced run.
struct TracedRun {
  Saturation reference;  ///< untraced, for the tracing overhead
  Saturation saturation;
  Point lo;
  Point hi;
  double max_rate_kblk_s = 0.0;
  int64_t setup0 = 0, setup1 = 0;  ///< setup interval
  int64_t w0 = 0, w1 = 0;          ///< traced window: saturation, lo, hi
};

void fill_layers(Outcome& out, const ServeSpec& spec, const Setup& s, const TracedRun& t,
                 uint64_t seed) {
  const std::vector<trace::Record> spans = trace::collect();
  const double wall = static_cast<double>(t.w1 - t.w0) * 1e-9;
  const double setup_wall = static_cast<double>(t.setup1 - t.setup0) * 1e-9;
  auto setup_total = [&](const char* name) {
    double sum = 0.0;
    for (double d : trace::durations(spans, name, t.setup0, t.setup1)) sum += d;
    return sum;
  };
  const trace::CallTotals kernel = g_kernel_calls.totals();
  const double kernel_s = static_cast<double>(kernel.busy_ns) * 1e-9;
  out.layer_self_s = trace::self_seconds(spans, t.w0, t.w1);
  out.layer_self_s["core"] += kernel_s;  // codec calls run on engine workers
  out.window_s = wall;

  const Point& lo = t.lo;
  const Point& hi = t.hi;
  auto both = [&](const std::vector<double>& a, const std::vector<double>& b) {
    std::vector<double> out_v = a;
    out_v.insert(out_v.end(), b.begin(), b.end());
    return out_v;
  };
  Served served = t.saturation.served;
  served.merge(lo.aggregates);
  served.merge(hi.aggregates);
  const double requests = static_cast<double>(lo.requests + hi.requests);

  auto& v = out.values;
  v["workloads.setup_frac"] = share(setup_total("workloads.image"), setup_wall);
  v["compress.train_frac"] = share(setup_total("compress.train"), setup_wall);
  v["core.busy_frac"] = share(kernel_s, wall);
  v["core.blocks"] = static_cast<double>(kernel.blocks);
  v["core.lossy_frac"] = spec.kind == RequestKind::kDecide
                             ? share(static_cast<double>(served.lossy_blocks),
                                     static_cast<double>(served.ratios.blocks()))
                             : 0.0;  // the payload path reports no decisions
  v["core.avg_bursts"] =
      share(static_cast<double>(kBlockBytes / kMagBytes), served.ratios.effective_ratio());
  v["core.kernel_us_per_kblk"] = kernel_us_per_kblk(spec, s, seed + 1000);
  v["core.memo_hit_rate"] = served.cache.hit_rate();
  v["core.memo_evictions"] = static_cast<double>(served.cache.evictions);
  v["engine.shards"] = static_cast<double>(kernel.calls);
  v["engine.blocks_per_shard"] =
      share(static_cast<double>(kernel.blocks), static_cast<double>(kernel.calls));
  v["engine.busy_frac"] = share(kernel_s, wall * kEngineThreads);
  v["server.submit_us_p50"] = percentile(both(lo.submit_us, hi.submit_us), 50);
  v["server.submit_us_p99"] = percentile(both(lo.submit_us, hi.submit_us), 99);
  v["server.service_us_p50"] = percentile(both(lo.service_us, hi.service_us), 50);
  v["server.service_us_p99"] = percentile(both(lo.service_us, hi.service_us), 99);
  v["server.requests"] = requests;
  v["server.rejected"] = static_cast<double>(lo.rejected + hi.rejected);
  v["server.deadline_missed"] = static_cast<double>(lo.deadline_missed + hi.deadline_missed);
  v["bench.p50_ms_lo"] = percentile(lo.latency_ms, 50);
  v["bench.p99_ms_lo"] = percentile(lo.latency_ms, 99);
  v["bench.p50_ms_hi"] = percentile(hi.latency_ms, 50);
  v["bench.p99_ms_hi"] = percentile(hi.latency_ms, 99);
  v["bench.max_rate_kblk_s"] = t.max_rate_kblk_s;
  v["bench.slo_miss_frac"] = share(
      static_cast<double>(lo.rejected + lo.errored + lo.late + hi.rejected + hi.errored + hi.late),
      requests);
  v["bench.gen_lag_us_p99"] = percentile(both(lo.lag_us, hi.lag_us), 99);
  v["bench.served_frac"] = share(static_cast<double>(lo.served + hi.served), requests);
  v["bench.trace_overhead_frac"] =
      share(t.reference.norm_kblk_per_cpu_s(), t.saturation.norm_kblk_per_cpu_s()) - 1.0;
  v["bench.wall_kblk_s"] = t.reference.kblk_s;
  v["bench.ref_kernel_us"] = t.reference.speed.median_us();
}

}  // namespace

bool is_serve_workload(const std::string& name) {
  return std::any_of(std::begin(kSpecs), std::end(kSpecs),
                     [&](const ServeSpec& s) { return name == s.name; });
}

Outcome run_serve(const Options& opt) {
  const ServeSpec& spec =
      *std::find_if(std::begin(kSpecs), std::end(kSpecs),
                    [&](const ServeSpec& s) { return opt.workload == s.name; });
  Outcome out;
  out.threads = {{"engine", kEngineThreads}, {"load", 2}, {"server_timer", 1}};
  const uint64_t seed = opt.seed * 1'000'003;  // stream seeds: seed + k

#ifdef __linux__
  // The open-loop generator sleeps to each due time; the default 50 us timer
  // slack would make it submit ~57 us late on every request.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif

  trace::set_enabled(opt.traced());
  const int setups = opt.traced() || opt.smoke ? 1 : kSetupRepeats;
  Setup setup;
  std::vector<double> setup_s;
  HostSpeed setup_speed;
  TracedRun t;
  t.setup0 = trace::now_ns();
  for (int i = 0; i < setups; ++i) {
    setup_speed.sample();
    setup = Setup{};
    const int64_t t0 = trace::now_ns();
    setup = build_setup(opt.seed);
    setup_s.push_back(seconds_since(t0));
  }
  setup_speed.sample();
  t.setup1 = trace::now_ns();
  trace::set_enabled(false);
  std::fprintf(stderr, "  %-18s setup %.3f s, reference kernel %.1f us\n", spec.name,
               median(setup_s), setup_speed.median_us());

  auto account = [&](uint64_t requests, uint64_t failed, const std::vector<std::string>& errors) {
    out.attempted += requests;
    out.failed += failed + errors.size();
    out.errors.insert(out.errors.end(), errors.begin(), errors.end());
  };
  auto fixed_point = [&](double rate, double seconds, uint64_t stream_seed, bool timed) {
    const Point p = measure(spec, setup, rate, seconds, stream_seed, timed, out);
    account(p.requests, p.rejected + p.errored, p.errors);
    if (p.served > p.requests)
      out.errors.push_back(std::string(spec.name) + ": served more requests than attempted");
    return p;
  };

  if (opt.smoke) {
    const Saturation sat = saturate(spec, setup, kSmokeS, seed + 1, false);
    account(sat.requests, sat.failed, sat.errors);
    fixed_point(spec.lo_kblk_s, kSmokeS, seed + 2, false);
    return out;
  }
  if (!opt.traced()) {
    const Saturation sat = saturate(spec, setup, opt.seconds, seed + 1, false);
    account(sat.requests, sat.failed, sat.errors);
    out.values["setup_s"] = median(setup_s) / setup_speed.slowdown();
    out.values["norm_kblk_per_cpu_s"] = sat.norm_kblk_per_cpu_s();
    out.values["peak_rss_mb"] = peak_rss_mb();
    return out;
  }

  // Traced: an untraced saturation is the overhead reference; saturation and
  // both fixed rates then run with spans and kernel timing on; the bisection
  // runs last, untraced (its probes feed only bench.max_rate_kblk_s, and at
  // overload rates they would dominate the span file).
  t.reference = saturate(spec, setup, 0.2 * opt.seconds, seed + 1, false);
  account(0, t.reference.failed, t.reference.errors);
  g_kernel_calls.reset();
  trace::set_enabled(true);
  t.w0 = trace::now_ns();
  t.saturation = saturate(spec, setup, 0.2 * opt.seconds, seed + 1, true);
  t.lo = fixed_point(spec.lo_kblk_s, 0.15 * opt.seconds, seed + 2, true);
  t.hi = fixed_point(spec.hi_kblk_s, 0.15 * opt.seconds, seed + 3, true);
  t.w1 = trace::now_ns();
  trace::set_enabled(false);
  account(t.saturation.requests, t.saturation.failed, t.saturation.errors);
  t.max_rate_kblk_s = max_rate(spec, setup, 0.3 * opt.seconds / kProbes, seed, out);
  fill_layers(out, spec, setup, t, seed);
  return out;
}

}  // namespace slc::e2e
