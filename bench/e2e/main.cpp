// slc_benchmark: the repo's end-to-end benchmark (see README.md beside this
// file). One workload per process:
//
//   slc_benchmark --workload=NAME [--seed=N] [--seconds=S] [--trace=FILE]
//   slc_benchmark --smoke                 every output check, cut-down schedule
//   slc_benchmark --write-expected=FILE   re-pin the fig7_sweep digests
//
// Prints every metric as `name value unit`, then one host-stamped JSON line.
// An untraced run reports the end-to-end metrics. A traced run (--trace)
// records spans around each call into a library layer, writes them to FILE
// in the Chrome trace-event format, prints per-layer self time and reports
// the per-layer metrics. Exits 1 when an output check fails.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <span>
#include <string>
#include <thread>

#include "compress/simd_dispatch.h"
#include "e2e.h"
#include "trace.h"

namespace slc::e2e {

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  const double n = static_cast<double>(xs.size());
  const size_t rank = std::clamp<size_t>(static_cast<size_t>(std::ceil(p / 100.0 * n)), 1,
                                         xs.size());
  std::nth_element(xs.begin(), xs.begin() + static_cast<ptrdiff_t>(rank - 1), xs.end());
  return xs[rank - 1];
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB on Linux
}

double seconds_since(int64_t start_ns) {
  return static_cast<double>(trace::now_ns() - start_ns) * 1e-9;
}

double share(double part, double total) { return total != 0.0 ? part / total : 0.0; }

namespace {

double clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

constexpr int kRefKernelReps = 3;  ///< kernel runs per HostSpeed::sample()
constexpr int kRefKernelIters = 100'000;
/// The reference kernel's median CPU time on a calm 4-vCPU Xeon VM. Pinned:
/// re-measuring it would rescale every normalized result.
constexpr double kRefKernelUs = 260.0;

std::atomic<uint64_t> g_ref_kernel_sink{0};

/// A fixed xorshift walk over a 32 KB table: integer work whose speed
/// follows the core's and never depends on the library. Timed in thread CPU
/// time, so a preemption or a stolen slice does not count.
double ref_kernel_us() {
  std::array<uint32_t, 8192> table{};
  for (size_t k = 0; k < table.size(); ++k) table[k] = static_cast<uint32_t>(k * 2654435761u);
  uint64_t x = 88172645463325252ull;
  uint64_t acc = 0;
  const double t0 = clock_s(CLOCK_THREAD_CPUTIME_ID);
  for (int k = 0; k < kRefKernelIters; ++k) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += table[x & 8191] * (x >> 40);
    table[(x >> 20) & 8191] ^= static_cast<uint32_t>(acc);
  }
  const double t1 = clock_s(CLOCK_THREAD_CPUTIME_ID);
  g_ref_kernel_sink.store(acc, std::memory_order_relaxed);  // keeps the loop
  return (t1 - t0) * 1e6;
}

}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

void HostSpeed::sample() {
  for (int i = 0; i < kRefKernelReps; ++i) us_.push_back(ref_kernel_us());
}

double HostSpeed::median_us() const { return median(us_); }

double HostSpeed::slowdown() const { return median_us() / kRefKernelUs; }

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metric lists of BENCHMARK.json; compare.py reads the bounds there.
// Every workload reports every metric. A per-layer metric whose layer a
// workload never calls reads 0 (README "Per-layer metrics" says which).
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"norm_kblk_per_cpu_s", "kblk/cpu-s"},
};

const MetricDef kPerLayer[] = {
    {"sim.busy_frac", "frac"},
    {"sim.host_ns_per_access", "ns/access"},
    {"sim.cycles", "count"},
    {"sim.l2_hit_rate", "frac"},
    {"sim.mdc_hit_rate", "frac"},
    {"sim.row_hit_rate", "frac"},
    {"sim.dram_bursts", "count"},
    {"sim.stream_chunk_hwm", "count"},
    {"sim.stream_access_hwm", "count"},
    {"workloads.init_frac", "frac"},
    {"workloads.run_frac", "frac"},
    {"workloads.drain_frac", "frac"},
    {"workloads.setup_frac", "frac"},
    {"workloads.accesses", "count"},
    {"compress.busy_frac", "frac"},
    {"compress.train_frac", "frac"},
    {"core.busy_frac", "frac"},
    {"core.blocks", "count"},
    {"core.lossy_frac", "frac"},
    {"core.avg_bursts", "bursts/blk"},
    {"core.kernel_us_per_kblk", "us/kblk"},
    {"core.memo_hit_rate", "frac"},
    {"core.memo_evictions", "count"},
    {"engine.shards", "count"},
    {"engine.blocks_per_shard", "blk/shard"},
    {"engine.busy_frac", "frac"},
    {"server.submit_us_p50", "us/req"},
    {"server.submit_us_p99", "us/req"},
    {"server.service_us_p50", "us/req"},
    {"server.service_us_p99", "us/req"},
    {"server.requests", "count"},
    {"server.rejected", "count"},
    {"server.deadline_missed", "count"},
    {"metrics.busy_frac", "frac"},
    {"bench.p50_ms_lo", "ms/req"},
    {"bench.p99_ms_lo", "ms/req"},
    {"bench.p50_ms_hi", "ms/req"},
    {"bench.p99_ms_hi", "ms/req"},
    {"bench.max_rate_kblk_s", "kblk/s"},
    {"bench.slo_miss_frac", "frac"},
    {"bench.gen_lag_us_p99", "us/req"},
    {"bench.served_frac", "frac"},
    {"bench.trace_overhead_frac", "frac"},
    {"bench.wall_kblk_s", "kblk/s"},
    {"bench.ref_kernel_us", "us"},
};

const char* const kWorkloads[] = {"fig7_sweep", "serve_compress", "serve_decide_fresh",
                                  "serve_decide_dup"};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

std::string host_json() {
  return std::string("{\"nproc\": ") + std::to_string(std::thread::hardware_concurrency()) +
         ", \"simd\": \"" + simd::active_level_name() + "\", \"compiler\": \"" +
         json_escape(compiler()) + "\", \"build_type\": \"" + SLC_E2E_BUILD_TYPE +
         "\", \"git_sha\": \"" + SLC_E2E_GIT_SHA + "\"}";
}

Outcome run_workload_named(const Options& opt) {
  return opt.workload == "fig7_sweep" ? run_fig7_sweep(opt) : run_serve(opt);
}

void print_self_time(const Outcome& o) {
  std::printf("per-layer self time over the %.3f s traced window:\n", o.window_s);
  for (const auto& [layer, s] : o.layer_self_s)
    std::printf("  %-10s %10.4f s  %7.2f%%\n", layer.c_str(), s, 100.0 * share(s, o.window_s));
}

/// Prints the metric lines and the final JSON line; returns the exit code.
int report(const Options& opt, const Outcome& o) {
  std::string metrics;
  for (const MetricDef& m : opt.traced() ? std::span<const MetricDef>(kPerLayer)
                                         : std::span<const MetricDef>(kEndToEnd)) {
    const auto it = o.values.find(m.name);
    double v = it == o.values.end() ? 0.0 : it->second;
    if (!opt.traced() && it == o.values.end()) {
      std::fprintf(stderr, "slc_benchmark: %s did not report %s\n", opt.workload.c_str(), m.name);
      return 2;
    }
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "warning: %s is not finite (too many failed requests); reporting 1e9\n",
                   m.name);
      v = 1e9;
    }
    std::printf("%s %.9g %s\n", m.name, v, m.unit);
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + m.name + "\": {\"value\": " +
               num(v) + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::string threads;
  for (const auto& [role, n] : o.threads)
    threads += std::string(threads.empty() ? "" : ", ") + "\"" + role + "\": " + std::to_string(n);
  std::string errors;
  for (const std::string& e : o.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
    errors += std::string(errors.empty() ? "" : ", ") + "\"" + json_escape(e) + "\"";
  }
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, \"traced\": %s, \"host\": %s, "
      "\"threads\": {%s}, \"reruns\": %llu, \"correct\": %s, \"attempted\": %llu, "
      "\"failed\": %llu, \"errors\": [%s], \"metrics\": {%s}}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), num(opt.seconds).c_str(),
      opt.traced() ? "true" : "false", host_json().c_str(), threads.c_str(),
      static_cast<unsigned long long>(o.reruns), o.correct() ? "true" : "false",
      static_cast<unsigned long long>(o.attempted), static_cast<unsigned long long>(o.failed),
      errors.c_str(), metrics.c_str());
  return o.correct() ? 0 : 1;
}

int smoke(Options opt) {
  bool ok = true;
  opt.smoke = true;
  for (const char* w : kWorkloads) {
    opt.workload = w;
    const Outcome o = run_workload_named(opt);
    for (const std::string& e : o.errors) std::printf("  CHECK FAILED: %s\n", e.c_str());
    std::printf("smoke %-18s attempted %6llu failed %llu  %s\n", w,
                static_cast<unsigned long long>(o.attempted),
                static_cast<unsigned long long>(o.failed), o.correct() ? "ok" : "FAIL");
    ok = ok && o.correct();
  }
  return ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: slc_benchmark --workload=NAME [--seed=N] [--seconds=S] [--trace=FILE] "
               "[--expected=FILE]\n"
               "       slc_benchmark --smoke [--expected=FILE]\n"
               "       slc_benchmark --write-expected=FILE\n"
               "workloads: fig7_sweep serve_compress serve_decide_fresh serve_decide_dup\n");
  return 2;
}

}  // namespace

}  // namespace slc::e2e

int main(int argc, char** argv) try {
  using namespace slc::e2e;
  Options opt;
  bool smoke_run = false;
  std::string write_expected;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (const size_t eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (arg != "--smoke" && i + 1 < argc) {
      value = argv[++i];
    }
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace_path = value;
    } else if (arg == "--expected") {
      opt.expected_path = value;
    } else if (arg == "--write-expected") {
      write_expected = value;
    } else if (arg == "--smoke") {
      smoke_run = true;
    } else {
      return usage();
    }
  }
  if (!write_expected.empty()) return write_expected_fig7(write_expected);
  if (smoke_run) return smoke(opt);
  if (opt.workload != "fig7_sweep" && !is_serve_workload(opt.workload)) return usage();
  if (!(opt.seconds > 0.0)) return usage();

  const Outcome o = run_workload_named(opt);
  if (opt.traced()) {
    if (!trace::write_chrome_json(opt.trace_path, trace::collect())) {
      std::fprintf(stderr, "slc_benchmark: cannot write %s\n", opt.trace_path.c_str());
      return 2;
    }
    std::printf("spans written to %s\n", opt.trace_path.c_str());
    print_self_time(o);
  }
  return report(opt, o);
} catch (const std::exception& e) {
  std::fprintf(stderr, "slc_benchmark: %s\n", e.what());
  return 2;
}
