#include "workloads/workload.h"

#include <map>
#include <stdexcept>
#include <utility>

#include "common/thread_safety.h"
#include "workloads/workload_factories.h"

namespace slc {

namespace {

// Golden outputs depend only on (name, scale) — every codec comparison
// reuses them, so cache the exact run.
struct GoldenResult {
  std::vector<float> output;
  std::vector<uint8_t> bool_output;
};

const GoldenResult& golden_run(const std::string& name, WorkloadScale scale) {
  // The returned reference stays valid past the lock: entries are never
  // erased and std::map nodes are pointer-stable across later inserts.
  static std::map<std::string, GoldenResult> cache;
  static Mutex mutex;
  MutexLock lock(mutex);
  const std::string key = name + (scale == WorkloadScale::kDefault ? "/d" : "/t");
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;

  auto wl = make_workload(name, scale);
  ApproxMemory mem;
  wl->init(mem);
  mem.commit_all();
  wl->run(mem);
  GoldenResult g;
  g.output = wl->output(mem);
  g.bool_output = wl->bool_output(mem);
  return cache.emplace(key, std::move(g)).first->second;
}

struct InputMemo {
  Mutex mutex;
  std::map<std::pair<std::string, WorkloadScale>, InputCodes> entries SLC_GUARDED_BY(mutex);
};

InputMemo& input_memo() {
  static InputMemo memo;
  return memo;
}

}  // namespace

const InputCodes& memoized_input(const std::string& workload, WorkloadScale scale,
                                 const std::function<InputCodes()>& make) {
  // As in golden_run: entries are never erased and std::map nodes are
  // pointer-stable across later inserts.
  InputMemo& memo = input_memo();
  MutexLock lock(memo.mutex);
  const auto key = std::make_pair(workload, scale);
  auto it = memo.entries.find(key);
  if (it == memo.entries.end()) it = memo.entries.emplace(key, make()).first;
  return it->second;
}

InputMemoStats input_memo_stats(WorkloadScale scale) {
  InputMemo& memo = input_memo();
  MutexLock lock(memo.mutex);
  InputMemoStats stats;
  for (const auto& [key, codes] : memo.entries) {
    if (key.second != scale) continue;
    ++stats.entries;
    stats.bytes += std::visit([](const auto& v) { return v.size() * sizeof(v[0]); }, codes);
  }
  return stats;
}

std::vector<std::string> workload_names() {
  return {"JM", "BS", "DCT", "FWT", "TP", "BP", "NN", "SRAD1", "SRAD2"};
}

std::unique_ptr<Workload> make_workload(const std::string& name, WorkloadScale scale) {
  if (name == "JM") return make_jmeint(scale);
  if (name == "BS") return make_blackscholes(scale);
  if (name == "DCT") return make_dct(scale);
  if (name == "FWT") return make_fwt(scale);
  if (name == "TP") return make_transpose(scale);
  if (name == "BP") return make_backprop(scale);
  if (name == "NN") return make_nn(scale);
  if (name == "SRAD1") return make_srad1(scale);
  if (name == "SRAD2") return make_srad2(scale);
  throw std::invalid_argument("unknown workload: " + name);
}

WorkloadRunResult run_workload(const std::string& name,
                               std::shared_ptr<const BlockCodec> codec, WorkloadScale scale) {
  WorkloadRunResult result;

  // Golden run: exact memory (cached per benchmark/scale).
  const GoldenResult& g = golden_run(name, scale);
  const std::vector<float>& golden = g.output;
  const std::vector<uint8_t>& golden_bool = g.bool_output;

  // Approximate run: identical inputs, codec installed. commit_all() models
  // the host upload (cudaMemcpy) compressing inputs on the way to DRAM; the
  // upload commits queue asynchronously and overlap the first kernel's trace
  // capture — every read settles the region it observes, so results are
  // byte-identical to the serial path. flush() is the end-of-run barrier:
  // after it, the trace's burst counts and the commit stats are final.
  auto approx_wl = make_workload(name, scale);
  ApproxMemory approx_mem;
  approx_mem.set_codec(codec);
  approx_wl->init(approx_mem);
  approx_mem.commit_all();
  approx_wl->run(approx_mem);
  approx_mem.flush();
  const std::vector<float> approx = approx_wl->output(approx_mem);

  result.metric = approx_wl->metric();
  switch (result.metric) {
    case ErrorMetric::kMissRate: {
      const std::vector<uint8_t> approx_bool = approx_wl->bool_output(approx_mem);
      result.error_pct = miss_rate_pct(golden_bool, approx_bool);
      break;
    }
    case ErrorMetric::kMre:
      result.error_pct = mean_relative_error_pct(golden, approx);
      break;
    case ErrorMetric::kImageDiff:
      result.error_pct = image_diff_pct(golden, approx);
      break;
    case ErrorMetric::kNrmse:
      result.error_pct = nrmse_pct(golden, approx);
      break;
  }
  result.trace = approx_mem.take_trace();
  result.stats = approx_mem.stats();
  return result;
}

std::vector<uint8_t> workload_memory_image(const std::string& name, WorkloadScale scale) {
  // The compression-ratio studies weigh blocks the way execution moves them:
  // traffic includes the freshly uploaded inputs (and zero-initialized
  // outputs) early on and the computed data later, so the image concatenates
  // the post-init and post-run snapshots of every safe region.
  auto wl = make_workload(name, scale);
  ApproxMemory mem;
  wl->init(mem);
  std::vector<uint8_t> image;
  auto append_safe_regions = [&] {
    for (RegionId r = 0; r < mem.num_regions(); ++r) {
      if (!mem.region_safe(r)) continue;
      const auto bytes = mem.span<const uint8_t>(r);
      image.insert(image.end(), bytes.begin(), bytes.end());
    }
  };
  append_safe_regions();  // host upload: inputs + zeroed outputs
  wl->run(mem);
  append_safe_regions();  // steady state: computed outputs
  return image;
}

}  // namespace slc
