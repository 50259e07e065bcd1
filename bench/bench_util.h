// Shared harness for the per-figure/table bench binaries: per-benchmark E2MC
// training, registry-driven codec construction, full functional+timing runs,
// and table formatting.
//
// Codecs are referred to by their CodecRegistry names everywhere ("RAW",
// "BDI", "E2MC", "TSLC-OPT", ...). Sweeping another scheme in a bench is a
// one-line change: add its name to the list (or iterate the registry).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "compress/codec_registry.h"
#include "engine/codec_engine.h"
#include "sim/energy.h"
#include "sim/gpu_sim.h"
#include "workloads/workload.h"

namespace slc::bench {

/// Memoized copy of workload_memory_image() — the training sample / ratio
/// study input for a benchmark. Stable storage, so spans over it stay valid.
const std::vector<uint8_t>& workload_image_cached(const std::string& benchmark,
                                                  WorkloadScale scale = WorkloadScale::kDefault);

/// Trains the per-benchmark E2MC compressor the way the paper's online
/// sampling does: evenly spaced blocks covering the benchmark's resident
/// data (inputs and outputs). Results are memoized per (name, scale).
std::shared_ptr<const E2mcCompressor> trained_e2mc(const std::string& benchmark,
                                                   WorkloadScale scale = WorkloadScale::kDefault);

/// Registry options for a benchmark: trained E2MC model + training image +
/// MAG/threshold, ready for CodecRegistry::create()/create_block_codec().
CodecOptions codec_options_for(const std::string& benchmark, size_t mag_bytes,
                               size_t threshold_bytes,
                               WorkloadScale scale = WorkloadScale::kDefault);

/// One full run: functional (error) + timing (cycles) + energy.
struct FullRunResult {
  double error_pct = 0.0;
  ErrorMetric metric = ErrorMetric::kMre;
  SimStats sim;
  EnergyBreakdown energy;
  CommitStats commit;
  double seconds = 0.0;
  double edp = 0.0;
};

/// Simulator configuration for a registry scheme at a MAG (pipeline
/// latencies come from the scheme's CodecInfo: E2MC 46/20, TSLC 60/20,
/// RAW 0/0 — Sec. IV-A).
GpuSimConfig sim_config_for(const std::string& scheme, size_t mag_bytes);

/// Builds the BlockCodec for a scheme/MAG/threshold triple via the registry.
std::shared_ptr<const BlockCodec> make_codec(const std::string& scheme,
                                             const std::string& benchmark, size_t mag_bytes,
                                             size_t threshold_bytes,
                                             WorkloadScale scale = WorkloadScale::kDefault);

/// Runs benchmark functionally + through the timing simulator.
FullRunResult full_run(const std::string& benchmark, const std::string& scheme,
                       size_t mag_bytes, size_t threshold_bytes,
                       WorkloadScale scale = WorkloadScale::kDefault);

// --- throughput measurements -----------------------------------------------
// One struct per measured configuration, shared by the human TextTable and
// the machine-readable BENCH_*.json output, so the two can never report
// different numbers (and the perf trajectory in CI diffs exactly what the
// table shows).

/// One measured kernel configuration.
struct Measurement {
  std::string scheme;   ///< registry codec name ("BDI", "E2MC", ...)
  std::string kernel;   ///< what ran ("analyze", "compress", "commit", ...)
  std::string path;     ///< implementation/config ("scalar", "batch", "threads=4")
  size_t blocks = 0;    ///< blocks processed per repetition
  size_t reps = 0;      ///< timed repetitions
  double blocks_per_sec = 0.0;
  double gbps = 0.0;    ///< uncompressed bytes/s, in GB/s
  double p50_ms = 0.0;  ///< per-repetition wall time percentiles
  double p99_ms = 0.0;
  double speedup = 0.0; ///< vs this scheme's baseline path; 0 = not applicable
};

/// Collects Measurements and renders them both ways.
class BenchReport {
 public:
  /// The report is stamped with host/dispatch metadata at construction:
  /// simd_compiled, cpu_avx2, simd_active and force_scalar_env (from
  /// slc::simd), hardware_concurrency, compiler (name and version),
  /// build_type and git_sha (the commit built, stamped at build time). So
  /// BENCH_*.json records which host and kernel variant produced the numbers,
  /// and tools/bench_compare.py can warn when a baseline came from another
  /// host class.
  explicit BenchReport(std::string bench_name);

  Measurement& add(Measurement m);
  const std::vector<Measurement>& measurements() const { return rows_; }

  /// Adds/overrides one metadata entry (emitted in the JSON "meta" object).
  void set_meta(const std::string& key, std::string value);
  const std::map<std::string, std::string>& meta() const { return meta_; }

  /// Human form: one TextTable row per measurement.
  TextTable table() const;
  /// Machine form consumed by tools/bench_compare.py:
  /// {"bench": ..., "block_bytes": 128, "meta": {...},
  ///  "measurements": [{...}, ...]}.
  std::string to_json() const;
  /// Writes to_json() to `path`. Returns false (and prints to stderr) on
  /// failure.
  bool write_json(const std::string& path) const;

 private:
  std::string name_;
  std::map<std::string, std::string> meta_;
  std::vector<Measurement> rows_;
};

/// Times `fn` (one call = one repetition over `blocks` blocks) `reps` times
/// after one untimed warmup call; fills the rate and percentile fields.
Measurement measure_kernel(std::string scheme, std::string kernel, std::string path,
                           size_t blocks, size_t reps, const std::function<void()>& fn);

/// Picks a repetition count so `reps * seconds_per_rep` lands near
/// `target_seconds` (clamped to [min_reps, max_reps]); `probe_seconds` is one
/// measured repetition.
size_t reps_for_target(double probe_seconds, double target_seconds, size_t min_reps = 5,
                       size_t max_reps = 200);

/// Strips a `--json[=path]` flag from argv (adjusting argc). Returns the
/// output path — `default_path` for a bare `--json` — or "" when absent.
std::string parse_json_flag(int& argc, char** argv, const std::string& default_path);

/// Prints the standard bench banner (paper reference + configuration).
void print_banner(const std::string& title, const std::string& paper_ref);

/// Prints Table II / Table III summaries (used by fig7's header).
void print_table2(const GpuSimConfig& cfg);
void print_table3();

}  // namespace slc::bench
