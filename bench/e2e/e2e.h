// Shared declarations of slc_benchmark, the repo's end-to-end benchmark
// (README.md next to this file). It calls only the library's public API and
// nothing from bench/bench_util, so the legacy bench drivers can change
// without moving it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace slc::e2e {

/// The paper's defaults (Fig. 7): MAG 32 B, lossy threshold 16 B.
inline constexpr size_t kMagBytes = 32;
inline constexpr size_t kThresholdBytes = 16;
/// setup_s is the median of this many set-ups in an untraced run.
inline constexpr int kSetupRepeats = 3;

/// Core speed, read from the benchmark's own fixed reference kernel while
/// the program under test is idle. On a shared VM the same code runs up to
/// ~40% slower for minutes at a time (README "Host-speed normalization"), so
/// setup_s and norm_kblk_per_cpu_s are scaled by how much slower than a
/// pinned reference time this kernel ran. The kernel lives outside the
/// library, so no change to the library can move it.
class HostSpeed {
 public:
  /// Times the reference kernel a few times. Call only while no other
  /// thread of this process is busy.
  void sample();
  /// Median kernel CPU time over every sample, in microseconds.
  double median_us() const;
  /// median_us() over the pinned reference time: above 1 on a slower host.
  double slowdown() const;

 private:
  std::vector<double> us_;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;    ///< length of the measurement window
  std::string trace_path;   ///< non-empty: traced run, spans written here
  bool smoke = false;       ///< cut-down schedule that still runs every check
  std::string expected_path = SLC_E2E_EXPECTED_FIG7;

  bool traced() const { return !trace_path.empty(); }
};

/// What one workload run reports. `values` holds the end-to-end metrics of
/// an untraced run or the per-layer metrics of a traced one, keyed by the
/// names in main.cpp's metric tables (a per-layer metric a workload does not
/// exercise is absent and reads 0).
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t reruns = 0;  ///< serving points re-measured because the generator ran late
  std::vector<std::string> errors;  ///< output-check failures; empty = correct
  std::map<std::string, double> values;
  std::vector<std::pair<std::string, unsigned>> threads;  ///< role -> count used
  /// Traced runs: layer -> self time (spans plus timed codec calls) over
  /// the traced window of `window_s` seconds.
  std::map<std::string, double> layer_self_s;
  double window_s = 0.0;

  bool correct() const { return errors.empty(); }
};

bool is_serve_workload(const std::string& name);
Outcome run_fig7_sweep(const Options& opt);
Outcome run_serve(const Options& opt);

/// Runs the 36 fig7_sweep chains, checks each streaming digest against the
/// materialized replay (run_workload + GpuSim::run(vector), the path
/// bench/fig7_speedup_error reports), and writes the pinned digests to
/// `path`. Returns a process exit code.
int write_expected_fig7(const std::string& path);

// --- small helpers shared by the workloads ---------------------------------

/// Nearest-rank percentile, p in [0, 100]; 0 for an empty sample.
double percentile(std::vector<double> xs, double p);
double median(std::vector<double> xs);
/// Peak resident set size of this process, in MB.
double peak_rss_mb();
double seconds_since(int64_t start_ns);
/// CPU time used so far by every thread of this process, in seconds. In a
/// guest with paravirtual steal-time accounting (KVM), time the hypervisor
/// steals from a vCPU does not count.
double process_cpu_s();
/// part / total, or 0 when total is 0.
double share(double part, double total);

}  // namespace slc::e2e
