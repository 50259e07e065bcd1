// fig7_sweep: the paper's Fig. 7 experiment — the nine AXBENCH workloads x
// {E2MC, TSLC-SIMP, TSLC-PRED, TSLC-OPT} at MAG 32 B, threshold 16 B —
// timed through the whole chain the library runs:
//
//   Workload::init -> ApproxMemory::commit_all -> set_trace_sink(TraceStream)
//   -> Workload::run (this thread) | GpuSim::run(TraceStream&) (consumer
//   thread) -> end_trace/flush -> error against a golden run made in setup.
//
// Library defaults throughout: the shared CodecEngine and a GpuSimConfig
// carrying the scheme's registry latencies. The AXBENCH inputs are pinned in
// src/workloads, so the seed changes nothing here. Every run's digest —
// simulator counters, commit counters and error — must equal the one pinned
// in expected_fig7.json, traced or not.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "compress/codec_registry.h"
#include "e2e.h"
#include "engine/codec_engine.h"
#include "sim/gpu_sim.h"
#include "sim/trace_stream.h"
#include "trace.h"
#include "workloads/workload.h"

namespace slc::e2e {

namespace {

// Named here rather than read from the registry, so registering another
// scheme never changes what this workload measures.
const std::vector<std::string> kSchemes = {"E2MC", "TSLC-SIMP", "TSLC-PRED", "TSLC-OPT"};
const std::vector<std::string> kSmokeBenchmarks = {"DCT", "TP"};

// Codec-kernel time of traced runs: E2MC commits are the compress layer's,
// TSLC-* commits the core layer's.
trace::CallCounter g_e2mc_calls;
trace::CallCounter g_tslc_calls;

/// Forwards every call to the wrapped policy and times it on the calling
/// engine worker (installed in traced runs only).
class TimedBlockCodec final : public BlockCodec {
 public:
  TimedBlockCodec(std::shared_ptr<const BlockCodec> inner, trace::CallCounter& calls)
      : inner_(std::move(inner)), calls_(calls) {}

  BlockCodecResult process(BlockView block, bool safe_to_approx,
                           size_t threshold_bytes) const override {
    const int64_t t0 = trace::now_ns();
    BlockCodecResult r = inner_->process(block, safe_to_approx, threshold_bytes);
    calls_.add(1, trace::now_ns() - t0);
    return r;
  }
  void process_batch(std::span<const BlockView> blocks, bool safe_to_approx,
                     size_t threshold_bytes, BlockCodecResult* out) const override {
    const int64_t t0 = trace::now_ns();
    inner_->process_batch(blocks, safe_to_approx, threshold_bytes, out);
    calls_.add(blocks.size(), trace::now_ns() - t0);
  }
  size_t mag_bytes() const override { return inner_->mag_bytes(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<const BlockCodec> inner_;
  trace::CallCounter& calls_;
};

/// Per-benchmark state built in setup: the E2MC training image and model
/// (trained as bench/fig7_speedup_error trains them) and the golden output.
struct Prepared {
  std::string name;
  std::vector<uint8_t> image;
  std::shared_ptr<const E2mcCompressor> e2mc;
  std::vector<float> golden;
  std::vector<uint8_t> golden_bool;
};

Prepared prepare(const std::string& name) {
  Prepared p;
  p.name = name;
  {
    trace::Span s("workloads.image");
    p.image = workload_memory_image(name);
  }
  {
    trace::Span s("compress.train");
    p.e2mc = E2mcCompressor::train(p.image, E2mcConfig{});
  }
  trace::Span s("workloads.golden");
  auto wl = make_workload(name);
  ApproxMemory mem;
  wl->init(mem);
  mem.commit_all();
  wl->run(mem);
  p.golden = wl->output(mem);
  p.golden_bool = wl->bool_output(mem);
  return p;
}

std::vector<Prepared> prepare_all(const std::vector<std::string>& names) {
  std::vector<Prepared> out;
  for (const std::string& n : names) out.push_back(prepare(n));
  return out;
}

CodecOptions codec_options(const Prepared& p) {
  CodecOptions opts;
  opts.mag_bytes = kMagBytes;
  opts.threshold_bytes = kThresholdBytes;
  opts.training_data = p.image;
  opts.trained_e2mc = p.e2mc;
  return opts;
}

GpuSimConfig sim_config(const std::string& scheme) {
  const CodecInfo& info = CodecRegistry::instance().at(scheme);
  GpuSimConfig cfg;
  cfg.mag_bytes = kMagBytes;
  cfg.compress_latency = info.compress_latency;
  cfg.decompress_latency = info.decompress_latency;
  return cfg;
}

double error_pct(ErrorMetric metric, const Prepared& p, const std::vector<float>& approx,
                 const std::vector<uint8_t>& approx_bool) {
  switch (metric) {
    case ErrorMetric::kMissRate:
      return miss_rate_pct(p.golden_bool, approx_bool);
    case ErrorMetric::kMre:
      return mean_relative_error_pct(p.golden, approx);
    case ErrorMetric::kImageDiff:
      return image_diff_pct(p.golden, approx);
    case ErrorMetric::kNrmse:
      return nrmse_pct(p.golden, approx);
  }
  return 0.0;
}

// --- digests ---------------------------------------------------------------

struct Digest {
  SimStats sim;
  CommitStats commit;
  double error_pct = 0.0;
};

struct Field {
  const char* key;
  uint64_t (*get)(const Digest&);
};

// Every SimStats::same_counters field and every CommitStats field.
const Field kFields[] = {
    {"sim.cycles", [](const Digest& d) { return d.sim.cycles; }},
    {"sim.kernels", [](const Digest& d) { return d.sim.kernels; }},
    {"sim.accesses", [](const Digest& d) { return d.sim.accesses; }},
    {"sim.reads", [](const Digest& d) { return d.sim.reads; }},
    {"sim.writes", [](const Digest& d) { return d.sim.writes; }},
    {"sim.l1_hits", [](const Digest& d) { return d.sim.l1_hits; }},
    {"sim.l1_misses", [](const Digest& d) { return d.sim.l1_misses; }},
    {"sim.l2_hits", [](const Digest& d) { return d.sim.l2_hits; }},
    {"sim.l2_misses", [](const Digest& d) { return d.sim.l2_misses; }},
    {"sim.l2_writebacks", [](const Digest& d) { return d.sim.l2_writebacks; }},
    {"sim.dram_read_bursts", [](const Digest& d) { return d.sim.dram_read_bursts; }},
    {"sim.dram_write_bursts", [](const Digest& d) { return d.sim.dram_write_bursts; }},
    {"sim.metadata_bursts", [](const Digest& d) { return d.sim.metadata_bursts; }},
    {"sim.mdc_hits", [](const Digest& d) { return d.sim.mdc_hits; }},
    {"sim.mdc_misses", [](const Digest& d) { return d.sim.mdc_misses; }},
    {"sim.row_hits", [](const Digest& d) { return d.sim.row_hits; }},
    {"sim.row_misses", [](const Digest& d) { return d.sim.row_misses; }},
    {"sim.decompressions", [](const Digest& d) { return d.sim.decompressions; }},
    {"sim.compressions", [](const Digest& d) { return d.sim.compressions; }},
    {"commit.blocks", [](const Digest& d) { return d.commit.blocks; }},
    {"commit.lossy_blocks", [](const Digest& d) { return d.commit.lossy_blocks; }},
    {"commit.uncompressed_blocks", [](const Digest& d) { return d.commit.uncompressed_blocks; }},
    {"commit.bursts", [](const Digest& d) { return d.commit.bursts; }},
    {"commit.truncated_symbols", [](const Digest& d) { return d.commit.truncated_symbols; }},
    {"commit.original_bits", [](const Digest& d) { return d.commit.original_bits; }},
    {"commit.lossless_bits", [](const Digest& d) { return d.commit.lossless_bits; }},
    {"commit.final_bits", [](const Digest& d) { return d.commit.final_bits; }},
    {"commit.cache_hits", [](const Digest& d) { return d.commit.cache.hits; }},
    {"commit.cache_misses", [](const Digest& d) { return d.commit.cache.misses; }},
    {"commit.cache_evictions", [](const Digest& d) { return d.commit.cache.evictions; }},
    {"commit.cache_collisions", [](const Digest& d) { return d.commit.cache.collisions; }},
};

using FieldMap = std::map<std::string, std::string>;
/// "bench/scheme" -> pinned fields.
using Expected = std::map<std::string, FieldMap>;

std::string run_key(const std::string& bench, const std::string& scheme) {
  return bench + "/" + scheme;
}

FieldMap to_fields(const Digest& d) {
  FieldMap out;
  for (const Field& f : kFields) out[f.key] = std::to_string(f.get(d));
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", d.error_pct);
  out["error_pct"] = buf;
  return out;
}

/// Empty when `got` matches `want`; otherwise the differing fields.
std::string diff_digest(const FieldMap& want, const Digest& got) {
  std::ostringstream diff;
  for (const Field& f : kFields) {
    const auto it = want.find(f.key);
    if (it == want.end()) {
      diff << " " << f.key << " not pinned;";
    } else if (std::strtoull(it->second.c_str(), nullptr, 10) != f.get(got)) {
      diff << " " << f.key << " want " << it->second << " got " << f.get(got) << ";";
    }
  }
  const auto it = want.find("error_pct");
  const double w = it == want.end() ? NAN : std::strtod(it->second.c_str(), nullptr);
  if (!(std::fabs(w - got.error_pct) <= 1e-9 * std::max(std::fabs(w), std::fabs(got.error_pct))))
    diff << " error_pct want " << (it == want.end() ? "nothing" : it->second) << " got "
         << to_fields(got)["error_pct"] << ";";
  return diff.str();
}

/// Reads the one-object-per-line file write_expected_fig7 emits: each line
/// holding a "bench" key is a flat object of string or number values.
Expected read_expected(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read expected digests " + path);
  Expected out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"bench\"") == std::string::npos) continue;
    FieldMap kv;
    size_t pos = line.find('{');
    while ((pos = line.find('"', pos)) != std::string::npos) {
      const size_t key_end = line.find('"', pos + 1);
      const size_t colon = key_end == std::string::npos ? key_end : line.find(':', key_end);
      const size_t v = colon == std::string::npos ? colon : line.find_first_not_of(' ', colon + 1);
      if (v == std::string::npos) throw std::runtime_error("malformed line in " + path + ": " + line);
      const std::string key = line.substr(pos + 1, key_end - pos - 1);
      const bool quoted = line[v] == '"';
      const size_t end = quoted ? line.find('"', v + 1) : line.find_first_of(",}", v);
      if (end == std::string::npos) throw std::runtime_error("malformed line in " + path + ": " + line);
      kv[key] = quoted ? line.substr(v + 1, end - v - 1) : line.substr(v, end - v);
      pos = quoted ? end + 1 : end;
    }
    out[run_key(kv["bench"], kv["scheme"])] = std::move(kv);
  }
  return out;
}

// --- one chain run ---------------------------------------------------------

/// Runs the simulator on its own thread and joins it on every exit path:
/// cancelling the stream first releases a consumer still waiting for
/// kernels a failed producer will never publish.
class ConsumerThread {
 public:
  ConsumerThread(TraceStream& stream, std::function<void()> body)
      : stream_(stream), thread_([this, body = std::move(body)] {
          try {
            body();
          } catch (...) {
            error_ = std::current_exception();
          }
        }) {}
  ~ConsumerThread() {
    if (!thread_.joinable()) return;
    stream_.cancel();
    thread_.join();
  }
  ConsumerThread(const ConsumerThread&) = delete;
  ConsumerThread& operator=(const ConsumerThread&) = delete;

  void join() {
    thread_.join();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  TraceStream& stream_;
  std::exception_ptr error_;
  std::thread thread_;  ///< last: starts once the members it uses exist
};

struct ChainRun {
  Digest digest;
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< CPU time of every thread of the process
};

ChainRun run_chain(const Prepared& p, const std::string& scheme, bool timed) {
  const int64_t t0 = trace::now_ns();
  const double cpu0 = process_cpu_s();
  ChainRun out;
  {
    trace::Span whole("bench.chain");
    const bool lossless = !CodecRegistry::instance().at(scheme).lossy;
    std::shared_ptr<const BlockCodec> codec;
    {
      trace::Span s(lossless ? "compress.make_codec" : "core.make_codec");
      codec = CodecRegistry::instance().create_block_codec(scheme, codec_options(p));
    }
    if (timed)
      codec = std::make_shared<TimedBlockCodec>(std::move(codec),
                                                lossless ? g_e2mc_calls : g_tslc_calls);

    GpuSim sim(sim_config(scheme));
    auto stream = std::make_shared<TraceStream>(sim.config().stream_chunk_budget);
    SimStats sim_stats;
    ConsumerThread consumer(*stream, [&] {
      trace::Span s("sim.run");
      sim_stats = sim.run(*stream);
    });

    auto wl = make_workload(p.name);
    ApproxMemory mem;
    mem.set_codec(std::move(codec));
    {
      trace::Span s("workloads.init");
      wl->init(mem);
      mem.commit_all();
    }
    mem.set_trace_sink(stream);
    {
      trace::Span s("workloads.run");
      wl->run(mem);
    }
    {
      trace::Span s("workloads.drain");
      mem.end_trace();
      mem.flush();
    }
    std::vector<float> approx;
    std::vector<uint8_t> approx_bool;
    {
      trace::Span s("workloads.output");
      approx = wl->output(mem);
      if (wl->metric() == ErrorMetric::kMissRate) approx_bool = wl->bool_output(mem);
    }
    consumer.join();  // the producer's wait here is the sim's unoverlapped tail
    {
      trace::Span s("metrics.error");
      out.digest.error_pct = error_pct(wl->metric(), p, approx, approx_bool);
    }
    out.digest.sim = sim_stats;
    out.digest.commit = mem.stats();
  }
  out.wall_s = seconds_since(t0);
  out.cpu_s = process_cpu_s() - cpu0;
  return out;
}

// --- sweeps ----------------------------------------------------------------

/// Sum over the configs of each config's median.
double sum_of_medians(const std::vector<std::vector<double>>& per_config) {
  double s = 0.0;
  for (const auto& runs : per_config) s += median(runs);
  return s;
}

struct Sweeps {
  std::vector<std::string> configs;          ///< "bench/scheme", sweep order
  std::vector<std::vector<double>> wall_s;   ///< per config, one per sweep
  std::vector<std::vector<double>> cpu_s;    ///< per config, one per sweep
  std::vector<Digest> digests;               ///< per config, first sweep
  size_t sweeps = 0;
  HostSpeed speed;                           ///< sampled between chains

  double sweep_s() const { return sum_of_medians(wall_s); }
  /// CPU time of one sweep at the reference core speed.
  double norm_sweep_cpu_s() const { return sum_of_medians(cpu_s) / speed.slowdown(); }
  uint64_t blocks_per_sweep() const {
    uint64_t b = 0;
    for (const Digest& d : digests) b += d.commit.blocks;
    return b;
  }
};

/// Repeats whole sweeps until `min_seconds` have passed (at least one),
/// checking every run against `expected`. The core speed is read before
/// every chain and after the last, while nothing else runs.
Sweeps run_sweeps(const std::vector<Prepared>& prepared, double min_seconds, bool timed,
                  const Expected& expected, Outcome& out) {
  Sweeps st;
  const int64_t t0 = trace::now_ns();
  do {
    size_t c = 0;
    for (const Prepared& p : prepared) {
      for (const std::string& scheme : kSchemes) {
        st.speed.sample();
        const ChainRun r = run_chain(p, scheme, timed);
        const std::string key = run_key(p.name, scheme);
        if (st.sweeps == 0) {
          st.configs.push_back(key);
          st.wall_s.emplace_back();
          st.cpu_s.emplace_back();
          st.digests.push_back(r.digest);
        }
        st.wall_s[c].push_back(r.wall_s);
        st.cpu_s[c++].push_back(r.cpu_s);
        out.attempted += 1;
        const auto want = expected.find(key);
        const std::string diff =
            want == expected.end() ? " no pinned digest" : diff_digest(want->second, r.digest);
        if (!diff.empty()) {
          out.failed += 1;
          out.errors.push_back(key + ":" + diff);
        }
      }
    }
    st.sweeps += 1;
  } while (seconds_since(t0) < min_seconds);
  st.speed.sample();
  return st;
}

/// Per-layer metrics of the traced sweeps [w0, w1) plus the setup shares.
void fill_layers(Outcome& out, const Sweeps& ref, const Sweeps& traced, int64_t setup0,
                 int64_t setup1, int64_t w0, int64_t w1) {
  const std::vector<trace::Record> spans = trace::collect();
  const double wall = static_cast<double>(w1 - w0) * 1e-9;
  const double setup_wall = static_cast<double>(setup1 - setup0) * 1e-9;
  auto total = [&](const char* name, int64_t from, int64_t to) {
    double s = 0.0;
    for (double d : trace::durations(spans, name, from, to)) s += d;
    return s;
  };
  const trace::CallTotals e2mc = g_e2mc_calls.totals();
  const trace::CallTotals tslc = g_tslc_calls.totals();
  const double e2mc_s = static_cast<double>(e2mc.busy_ns) * 1e-9;
  const double tslc_s = static_cast<double>(tslc.busy_ns) * 1e-9;
  const double sweeps = static_cast<double>(traced.sweeps);
  const unsigned engine_threads = CodecEngine::shared_default()->num_threads();

  out.layer_self_s = trace::self_seconds(spans, w0, w1);
  out.layer_self_s["compress"] += e2mc_s;  // codec calls run on engine workers
  out.layer_self_s["core"] += tslc_s;
  out.window_s = wall;

  // Simulated counters of one sweep: identical on every sweep and every
  // host, so a speed-only change must leave them untouched.
  SimStats sim;
  CommitStats tslc_commit;
  for (size_t i = 0; i < traced.digests.size(); ++i) {
    sim.merge(traced.digests[i].sim);  // merge() keeps the max of cycles ...
    if (traced.configs[i].find("/TSLC-") != std::string::npos)
      tslc_commit.merge(traced.digests[i].commit);
  }
  uint64_t cycles = 0;  // ... so the sweep's total is summed here
  for (const Digest& d : traced.digests) cycles += d.sim.cycles;
  auto rate = [](uint64_t hits, uint64_t misses) {
    return share(static_cast<double>(hits), static_cast<double>(hits + misses));
  };

  auto& v = out.values;
  v["sim.busy_frac"] = share(out.layer_self_s["sim"], wall);
  v["sim.host_ns_per_access"] =
      share(total("sim.run", w0, w1) * 1e9, static_cast<double>(sim.accesses) * sweeps);
  v["sim.cycles"] = static_cast<double>(cycles);
  v["sim.l2_hit_rate"] = rate(sim.l2_hits, sim.l2_misses);
  v["sim.mdc_hit_rate"] = rate(sim.mdc_hits, sim.mdc_misses);
  v["sim.row_hit_rate"] = rate(sim.row_hits, sim.row_misses);
  v["sim.dram_bursts"] = static_cast<double>(sim.dram_bursts_total());
  v["sim.stream_chunk_hwm"] = static_cast<double>(sim.stream_chunk_hwm);
  v["sim.stream_access_hwm"] = static_cast<double>(sim.stream_access_hwm);
  v["workloads.init_frac"] = share(total("workloads.init", w0, w1), wall);
  v["workloads.run_frac"] = share(total("workloads.run", w0, w1), wall);
  v["workloads.drain_frac"] = share(total("workloads.drain", w0, w1), wall);
  v["workloads.setup_frac"] = share(total("workloads.image", setup0, setup1) +
                                        total("workloads.golden", setup0, setup1),
                                    setup_wall);
  v["workloads.accesses"] = static_cast<double>(sim.accesses);
  v["compress.busy_frac"] = share(e2mc_s, wall);
  v["compress.train_frac"] = share(total("compress.train", setup0, setup1), setup_wall);
  v["core.busy_frac"] = share(tslc_s, wall);
  v["core.blocks"] = static_cast<double>(tslc.blocks) / sweeps;
  v["core.lossy_frac"] = tslc_commit.lossy_fraction();
  v["core.avg_bursts"] = tslc_commit.avg_bursts();
  v["core.kernel_us_per_kblk"] =
      share(static_cast<double>(tslc.busy_ns), static_cast<double>(tslc.blocks));
  v["engine.shards"] = static_cast<double>(e2mc.calls + tslc.calls) / sweeps;
  v["engine.blocks_per_shard"] = share(static_cast<double>(e2mc.blocks + tslc.blocks),
                                       static_cast<double>(e2mc.calls + tslc.calls));
  v["engine.busy_frac"] = share(e2mc_s + tslc_s, wall * engine_threads);
  v["metrics.busy_frac"] = share(out.layer_self_s["metrics"], wall);
  v["bench.served_frac"] = 1.0;  // every attempted chain ran to completion
  v["bench.trace_overhead_frac"] = share(traced.norm_sweep_cpu_s(), ref.norm_sweep_cpu_s()) - 1.0;
  v["bench.wall_kblk_s"] = share(static_cast<double>(ref.blocks_per_sweep()) / 1e3, ref.sweep_s());
  v["bench.ref_kernel_us"] = ref.speed.median_us();
}

}  // namespace

Outcome run_fig7_sweep(const Options& opt) {
  Outcome out;
  out.threads = {{"engine", CodecEngine::shared_default()->num_threads()},
                 {"sim_workers", GpuSimConfig{}.sim_workers},
                 {"load", 2}};  // producer + simulator consumer
  const std::vector<std::string> names = opt.smoke ? kSmokeBenchmarks : workload_names();
  const Expected expected = read_expected(opt.expected_path);

  // Setup is repeated and reported as its median, at the reference core
  // speed; a traced run sets up once with spans on, for the setup shares.
  trace::set_enabled(opt.traced());
  const int setups = opt.traced() || opt.smoke ? 1 : kSetupRepeats;
  std::vector<Prepared> prepared;
  std::vector<double> setup_s;
  HostSpeed setup_speed;
  const int64_t setup0 = trace::now_ns();
  for (int i = 0; i < setups; ++i) {
    setup_speed.sample();
    prepared.clear();
    const int64_t t0 = trace::now_ns();
    prepared = prepare_all(names);
    setup_s.push_back(seconds_since(t0));
  }
  setup_speed.sample();
  const int64_t setup1 = trace::now_ns();
  trace::set_enabled(false);

  const Sweeps untraced =
      run_sweeps(prepared, opt.smoke ? 0.0 : opt.seconds, false, expected, out);
  const double blocks_k = static_cast<double>(untraced.blocks_per_sweep()) / 1e3;
  std::fprintf(stderr,
               "  fig7_sweep setup %.3f s, reference kernel %.1f us\n"
               "  fig7_sweep (%zu sweeps) %.2f kblk/s, reference kernel %.1f us: %.2f kblk/cpu-s "
               "normalized\n",
               median(setup_s), setup_speed.median_us(), untraced.sweeps,
               share(blocks_k, untraced.sweep_s()), untraced.speed.median_us(),
               share(blocks_k, untraced.norm_sweep_cpu_s()));
  if (!opt.traced()) {
    out.values["setup_s"] = median(setup_s) / setup_speed.slowdown();
    out.values["norm_kblk_per_cpu_s"] = share(blocks_k, untraced.norm_sweep_cpu_s());
    out.values["peak_rss_mb"] = peak_rss_mb();
    return out;
  }

  g_e2mc_calls.reset();
  g_tslc_calls.reset();
  trace::set_enabled(true);
  const int64_t w0 = trace::now_ns();
  const Sweeps traced = run_sweeps(prepared, opt.seconds, true, expected, out);
  const int64_t w1 = trace::now_ns();
  trace::set_enabled(false);
  fill_layers(out, untraced, traced, setup0, setup1, w0, w1);
  return out;
}

int write_expected_fig7(const std::string& path) {
  const std::vector<Prepared> prepared = prepare_all(workload_names());
  std::ostringstream body;
  body << "{\"mag_bytes\": " << kMagBytes << ", \"threshold_bytes\": " << kThresholdBytes
       << ", \"runs\": [\n";
  bool ok = true;
  bool first = true;
  for (const Prepared& p : prepared) {
    for (const std::string& scheme : kSchemes) {
      const Digest streamed = run_chain(p, scheme, false).digest;
      // The materialized reference: exactly what bench/fig7_speedup_error's
      // full_run computes (run_workload, then GpuSim::run over the vector).
      Digest materialized;
      {
        const WorkloadRunResult wr = run_workload(
            p.name, CodecRegistry::instance().create_block_codec(scheme, codec_options(p)));
        GpuSim sim(sim_config(scheme));
        materialized.sim = sim.run(wr.trace);
        materialized.commit = wr.stats;
        materialized.error_pct = wr.error_pct;
      }
      const std::string diff = diff_digest(to_fields(materialized), streamed);
      std::printf("%-6s %-10s cycles %12llu  error %.6f%%  %s\n", p.name.c_str(), scheme.c_str(),
                  static_cast<unsigned long long>(streamed.sim.cycles), streamed.error_pct,
                  diff.empty() ? "streamed == materialized" : ("MISMATCH:" + diff).c_str());
      ok = ok && diff.empty();
      body << (first ? "" : ",\n") << "{\"bench\": \"" << p.name << "\", \"scheme\": \"" << scheme
           << "\"";
      for (const auto& [key, value] : to_fields(streamed)) body << ", \"" << key << "\": " << value;
      body << "}";
      first = false;
    }
  }
  body << "\n]}\n";
  if (!ok) {
    std::fprintf(stderr, "write-expected: streaming and materialized digests differ; %s untouched\n",
                 path.c_str());
    return 1;
  }
  std::ofstream f(path);
  f << body.str();
  if (!f.good()) {
    std::fprintf(stderr, "write-expected: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace slc::e2e
