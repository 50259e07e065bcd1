#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/block.h"
#include "compress/simd_dispatch.h"
#include "slc_bench_git_sha.h"  // generated at build time by git_stamp.cmake

namespace slc::bench {

namespace {
std::map<std::string, std::vector<uint8_t>> g_image_cache;
std::map<std::string, std::shared_ptr<const E2mcCompressor>> g_e2mc_cache;
std::mutex g_mutex;

std::string cache_key(const std::string& benchmark, WorkloadScale scale) {
  return benchmark + (scale == WorkloadScale::kDefault ? "/default" : "/tiny");
}
}  // namespace

const std::vector<uint8_t>& workload_image_cached(const std::string& benchmark,
                                                  WorkloadScale scale) {
  std::lock_guard<std::mutex> lock(g_mutex);
  const std::string key = cache_key(benchmark, scale);
  auto it = g_image_cache.find(key);
  if (it == g_image_cache.end())
    it = g_image_cache.emplace(key, workload_memory_image(benchmark, scale)).first;
  return it->second;
}

std::shared_ptr<const E2mcCompressor> trained_e2mc(const std::string& benchmark,
                                                   WorkloadScale scale) {
  const std::vector<uint8_t>& image = workload_image_cached(benchmark, scale);
  std::lock_guard<std::mutex> lock(g_mutex);
  const std::string key = cache_key(benchmark, scale);
  auto it = g_e2mc_cache.find(key);
  if (it != g_e2mc_cache.end()) return it->second;
  auto comp = E2mcCompressor::train(image, E2mcConfig{});
  g_e2mc_cache[key] = comp;
  return comp;
}

CodecOptions codec_options_for(const std::string& benchmark, size_t mag_bytes,
                               size_t threshold_bytes, WorkloadScale scale) {
  CodecOptions opts;
  opts.mag_bytes = mag_bytes;
  opts.threshold_bytes = threshold_bytes;
  opts.training_data = workload_image_cached(benchmark, scale);
  opts.trained_e2mc = trained_e2mc(benchmark, scale);
  return opts;
}

GpuSimConfig sim_config_for(const std::string& scheme, size_t mag_bytes) {
  const CodecInfo& info = CodecRegistry::instance().at(scheme);
  GpuSimConfig cfg;
  cfg.mag_bytes = mag_bytes;
  cfg.compress_latency = info.compress_latency;
  cfg.decompress_latency = info.decompress_latency;
  return cfg;
}

std::shared_ptr<const BlockCodec> make_codec(const std::string& scheme,
                                             const std::string& benchmark, size_t mag_bytes,
                                             size_t threshold_bytes, WorkloadScale scale) {
  return CodecRegistry::instance().create_block_codec(
      scheme, codec_options_for(benchmark, mag_bytes, threshold_bytes, scale));
}

FullRunResult full_run(const std::string& benchmark, const std::string& scheme,
                       size_t mag_bytes, size_t threshold_bytes, WorkloadScale scale) {
  FullRunResult out;
  auto codec = make_codec(scheme, benchmark, mag_bytes, threshold_bytes, scale);
  const WorkloadRunResult wr = run_workload(benchmark, codec, scale);
  out.error_pct = wr.error_pct;
  out.metric = wr.metric;
  out.commit = wr.stats;

  const GpuSimConfig cfg = sim_config_for(scheme, mag_bytes);
  GpuSim sim(cfg);
  out.sim = sim.run(wr.trace);
  out.energy = compute_energy(out.sim, cfg);
  out.seconds = out.sim.exec_seconds(cfg);
  out.edp = out.energy.edp(out.seconds);
  return out;
}

// --- throughput measurements -------------------------------------------------

namespace {
const char* compiler_name() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}
}  // namespace

BenchReport::BenchReport(std::string bench_name) : name_(std::move(bench_name)) {
  meta_["simd_compiled"] = simd::avx2_compiled() ? "avx2" : "none";
  meta_["cpu_avx2"] = simd::avx2_supported() ? "yes" : "no";
  meta_["simd_active"] = simd::active_level_name();
  meta_["force_scalar_env"] = simd::force_scalar_env() ? "1" : "0";
  meta_["hardware_concurrency"] = std::to_string(std::thread::hardware_concurrency());
  meta_["compiler"] = compiler_name();
  meta_["build_type"] = SLC_BENCH_BUILD_TYPE;
  meta_["git_sha"] = SLC_BENCH_GIT_SHA;
}

Measurement& BenchReport::add(Measurement m) {
  rows_.push_back(std::move(m));
  return rows_.back();
}

void BenchReport::set_meta(const std::string& key, std::string value) {
  meta_[key] = std::move(value);
}

TextTable BenchReport::table() const {
  TextTable t({"Scheme", "Kernel", "Path", "Blocks", "Reps", "Mblk/s", "GB/s", "p50 (ms)",
               "p99 (ms)", "Speedup"});
  for (const Measurement& m : rows_) {
    t.add_row({m.scheme, m.kernel, m.path, std::to_string(m.blocks), std::to_string(m.reps),
               TextTable::fmt(m.blocks_per_sec / 1e6, 3), TextTable::fmt(m.gbps, 2),
               TextTable::fmt(m.p50_ms, 3), TextTable::fmt(m.p99_ms, 3),
               m.speedup > 0.0 ? TextTable::fmt(m.speedup, 2) + "x" : "-"});
  }
  return t;
}

namespace {
// Minimal JSON string escaping; measurement names are plain identifiers but
// quoting/backslashes must not be able to break the document.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;  // drop control chars
    out.push_back(c);
  }
  return out;
}

std::string json_num(double v, int prec = 6) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}
}  // namespace

std::string BenchReport::to_json() const {
  std::ostringstream os;
  os << "{\n  \"bench\": \"" << json_escape(name_) << "\",\n  \"block_bytes\": " << kBlockBytes
     << ",\n  \"meta\": {";
  bool first = true;
  for (const auto& [key, value] : meta_) {
    os << (first ? "" : ", ") << "\"" << json_escape(key) << "\": \"" << json_escape(value)
       << "\"";
    first = false;
  }
  os << "},\n  \"measurements\": [\n";
  for (size_t i = 0; i < rows_.size(); ++i) {
    const Measurement& m = rows_[i];
    os << "    {\"scheme\": \"" << json_escape(m.scheme) << "\", \"kernel\": \""
       << json_escape(m.kernel) << "\", \"path\": \"" << json_escape(m.path)
       << "\", \"blocks\": " << m.blocks << ", \"reps\": " << m.reps
       << ", \"blocks_per_sec\": " << json_num(m.blocks_per_sec, 1)
       << ", \"gbps\": " << json_num(m.gbps, 4) << ", \"p50_ms\": " << json_num(m.p50_ms, 4)
       << ", \"p99_ms\": " << json_num(m.p99_ms, 4)
       << ", \"speedup\": " << json_num(m.speedup, 3) << "}"
       << (i + 1 < rows_.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

bool BenchReport::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
    return false;
  }
  const std::string body = to_json();
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "error: short write to %s\n", path.c_str());
  return ok;
}

Measurement measure_kernel(std::string scheme, std::string kernel, std::string path,
                           size_t blocks, size_t reps, const std::function<void()>& fn) {
  Measurement m;
  m.scheme = std::move(scheme);
  m.kernel = std::move(kernel);
  m.path = std::move(path);
  m.blocks = blocks;
  m.reps = reps;

  fn();  // warmup (code paths touched, branch predictors and caches primed)
  PercentileTracker times;
  double total = 0.0;
  for (size_t r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    times.record(s);
    total += s;
  }
  if (total > 0.0) {
    m.blocks_per_sec = static_cast<double>(blocks) * static_cast<double>(reps) / total;
    m.gbps = m.blocks_per_sec * static_cast<double>(kBlockBytes) / 1e9;
  }
  m.p50_ms = times.percentile(50) * 1e3;
  m.p99_ms = times.percentile(99) * 1e3;
  return m;
}

size_t reps_for_target(double probe_seconds, double target_seconds, size_t min_reps,
                       size_t max_reps) {
  if (probe_seconds <= 0.0) return max_reps;
  const double reps = target_seconds / probe_seconds;
  return std::clamp(static_cast<size_t>(reps + 0.5), min_reps, max_reps);
}

std::string parse_json_flag(int& argc, char** argv, const std::string& default_path) {
  std::string out;
  int w = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      out = default_path;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      out = argv[i] + 7;
      if (out.empty()) out = default_path;
    } else {
      argv[w++] = argv[i];
    }
  }
  argc = w;
  return out;
}

void print_banner(const std::string& title, const std::string& paper_ref) {
  std::printf("================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("Paper: Lal, Lucas, Juurlink. \"SLC: Memory Access Granularity\n");
  std::printf("       Aware Selective Lossy Compression for GPUs\", DATE 2019\n");
  std::printf("================================================================\n\n");
}

void print_table2(const GpuSimConfig& cfg) {
  std::printf("Table II: baseline simulator configuration\n");
  TextTable t({"Parameter", "Value", "Parameter", "Value"});
  t.add_row({"#SMs", std::to_string(cfg.num_sms), "L1 $/SM",
             std::to_string(cfg.l1_bytes / 1024) + " KB"});
  t.add_row({"SM freq", TextTable::fmt(cfg.sm_clock_ghz * 1000, 0) + " MHz", "L2 $",
             std::to_string(cfg.l2_bytes / 1024) + " KB"});
  t.add_row({"Memory type", "GDDR5", "#Memory controllers", std::to_string(cfg.num_mcs)});
  t.add_row({"Memory clock", TextTable::fmt(cfg.mem_clock_ghz * 1000, 0) + " MHz",
             "Memory bandwidth", TextTable::fmt(cfg.bandwidth_gbps(), 1) + " GB/s"});
  t.add_row({"Bus width", "32-bit", "Burst length", "8"});
  t.add_row({"MAG", std::to_string(cfg.mag_bytes) + " B", "Max outstanding/SM",
             std::to_string(cfg.max_outstanding_per_sm)});
  std::printf("%s\n", t.to_string().c_str());
}

void print_table3() {
  std::printf("Table III: benchmarks\n");
  TextTable t({"Name", "Description", "Metric", "#AR"});
  for (const std::string& name : workload_names()) {
    auto wl = make_workload(name);
    ApproxMemory mem;
    wl->init(mem);
    t.add_row({name, wl->description(), std::string(to_string(wl->metric())),
               std::to_string(mem.safe_region_count())});
  }
  std::printf("%s\n", t.to_string().c_str());
}

}  // namespace slc::bench
