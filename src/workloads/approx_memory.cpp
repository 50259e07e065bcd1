#include "workloads/approx_memory.h"

#include <algorithm>
#include <stdexcept>

#include "sim/trace_stream.h"

namespace slc {

namespace {

/// The commit kernel, shared by the inline and the engine paths. Works on
/// raw buffer pointers (stable across regions_ reallocation, so an in-flight
/// job survives a concurrent alloc()); every write (burst slot, lossy
/// mutation) is block-disjoint and each block's outcome depends only on its
/// own pre-commit contents, so sharding cannot change results. The whole
/// [begin, end) range goes through the policy's process_batch kernel (SLC's
/// staged mode decision, the lossless schemes' batched size probes), so each
/// policy gets the shard at once.
void process_blocks(const BlockCodec& codec, uint8_t* data, uint32_t* bursts, bool safe,
                    size_t threshold_bytes, size_t begin, size_t end, CommitStats& ws) {
  const size_t n = end - begin;
  std::vector<BlockView> views;
  views.reserve(n);
  for (size_t b = begin; b < end; ++b)
    views.push_back(BlockView(std::span<const uint8_t>(data + b * kBlockBytes, kBlockBytes)));
  std::vector<BlockCodecResult> results(n);
  codec.process_batch(views, safe, threshold_bytes, results.data());
  for (size_t i = 0; i < n; ++i) {
    const BlockCodecResult& res = results[i];
    const size_t b = begin + i;
    bursts[b] = static_cast<uint32_t>(res.bursts);
    ++ws.blocks;
    ws.lossy_blocks += res.lossy ? 1 : 0;
    ws.uncompressed_blocks += res.stored_uncompressed ? 1 : 0;
    ws.bursts += res.bursts;
    ws.truncated_symbols += res.truncated_symbols;
    ws.original_bits += kBlockBytes * 8;
    ws.lossless_bits += res.lossless_bits;
    ws.final_bits += res.final_bits;
    ws.cache.record(res.cache);
    if (res.decoded) {
      const auto src = res.decoded->bytes();
      std::copy(src.begin(), src.end(), data + b * kBlockBytes);
    }
  }
}

}  // namespace

ApproxMemory::~ApproxMemory() {
  // A forgotten sink is closed but NOT published: push() may block on
  // backpressure, and a destructor must not hang on a consumer that
  // stopped popping. The consumer sees a clean (if short) end of stream.
  if (trace_sink_) trace_sink_->close();
  for (RegionId r = 0; r < regions_.size(); ++r) {
    try {
      settle(r);
    } catch (...) {
      // Job exceptions are reportable via flush(); during teardown the only
      // obligation is to drain jobs targeting our buffers before they free.
    }
  }
}

RegionId ApproxMemory::alloc(std::string name, size_t bytes, bool safe_to_approx,
                             size_t threshold_bytes) {
  // Pad to whole blocks (cudaMalloc returns 256 B-aligned sizes anyway).
  const size_t padded = (bytes + kBlockBytes - 1) / kBlockBytes * kBlockBytes;
  Region reg;
  reg.name = std::move(name);
  reg.data.assign(padded, 0);
  reg.safe = safe_to_approx;
  reg.threshold_bytes = threshold_bytes;
  reg.base_addr = next_addr_;
  reg.bursts.assign(padded / kBlockBytes, kUncommittedBursts);
  next_addr_ += padded;
  regions_.push_back(std::move(reg));
  return static_cast<RegionId>(regions_.size() - 1);
}

size_t ApproxMemory::safe_region_count() const {
  return static_cast<size_t>(
      std::count_if(regions_.begin(), regions_.end(), [](const Region& r) { return r.safe; }));
}

uint32_t ApproxMemory::current_bursts(const Region& reg, size_t block) const {
  if (reg.bursts[block] != kUncommittedBursts) return reg.bursts[block];
  // Never committed (exact/golden run): full cost.
  const size_t mag = codec_ ? codec_->mag_bytes() : kDefaultMagBytes;
  return static_cast<uint32_t>(kBlockBytes / mag);
}

void ApproxMemory::settle(RegionId r) {
  Region& reg = regions_[r];
  if (!reg.pending.valid()) return;
  reg.pending.wait();  // one-shot: clears pending; rethrows a codec exception
  // Per-worker integer counters merge exactly in any order, so the settled
  // stats match the inline path for every thread count.
  for (const CommitStats& ws : reg.worker_stats) {
    stats_.merge(ws);
    reg.stats.merge(ws);
  }
}

void ApproxMemory::commit(RegionId r) {
  commit_async(r);
  settle(r);
}

void ApproxMemory::commit_async(RegionId r) {
  settle(r);  // commits of the same region serialize
  Region& reg = regions_[r];
  const size_t n_blocks = reg.data.size() / kBlockBytes;
  if (!codec_) {
    // Exact memory: all blocks cost max bursts, contents untouched.
    const auto maxb = static_cast<uint32_t>(kBlockBytes / kDefaultMagBytes);
    std::fill(reg.bursts.begin(), reg.bursts.end(), maxb);
    return;
  }
  if (!engine_) {
    // Inline path: run the commit on the caller thread.
    CommitStats ws;
    process_blocks(*codec_, reg.data.data(), reg.bursts.data(), reg.safe, reg.threshold_bytes, 0,
                   n_blocks, ws);
    stats_.merge(ws);
    reg.stats.merge(ws);
    return;
  }
  // Queue one engine job for the whole region. The body captures raw buffer
  // pointers and a codec reference-count, never `this` or a Region& — the
  // buffers (per-worker stats slots included) survive regions_ growth and an
  // ApproxMemory move while the job runs.
  reg.worker_stats.assign(engine_->num_threads(), CommitStats{});
  CommitStats* worker_stats = reg.worker_stats.data();
  uint8_t* data = reg.data.data();
  uint32_t* bursts = reg.bursts.data();
  const bool safe = reg.safe;
  const size_t threshold = reg.threshold_bytes;
  std::shared_ptr<const BlockCodec> codec = codec_;
  reg.pending = engine_->submit(
      n_blocks, [worker_stats, data, bursts, safe, threshold, codec](size_t begin, size_t end,
                                                                     unsigned worker) {
        process_blocks(*codec, data, bursts, safe, threshold, begin, end, worker_stats[worker]);
      });
}

void ApproxMemory::flush() {
  // Settle everything even when a commit failed: the barrier guarantee
  // (no region left in flight, completed stats merged) must hold for
  // callers that catch the rethrown codec exception.
  std::exception_ptr first;
  for (RegionId r = 0; r < regions_.size(); ++r) {
    try {
      settle(r);
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

void ApproxMemory::commit_all() {
  for (RegionId r = 0; r < regions_.size(); ++r) commit_async(r);
}

void ApproxMemory::set_trace_sink(std::shared_ptr<TraceStream> sink) {
  if (trace_sink_) end_trace();
  trace_sink_ = std::move(sink);
}

void ApproxMemory::publish_completed_kernels() {
  while (!trace_.empty() && trace_sink_) {
    auto chunk = std::make_shared<const KernelTrace>(std::move(trace_.front()));
    trace_.erase(trace_.begin());
    if (!trace_sink_->push(std::move(chunk))) {
      // Consumer cancelled mid-stream: detach and stop publishing. Later
      // kernels materialize into trace_ as if no sink were installed.
      trace_sink_.reset();
    }
  }
}

void ApproxMemory::end_trace() {
  if (!trace_sink_) return;
  publish_completed_kernels();
  if (trace_sink_) {
    trace_sink_->close();
    trace_sink_.reset();
  }
}

void ApproxMemory::begin_kernel(std::string name, double compute_per_access,
                                uint32_t accesses_per_cta) {
  // Streaming: everything captured so far is complete — publish it before
  // opening the next kernel (blocking here is the backpressure that bounds
  // the trace footprint to the stream's chunk budget).
  if (trace_sink_) publish_completed_kernels();
  KernelTrace k;
  k.name = std::move(name);
  k.compute_per_access = compute_per_access;
  k.accesses_per_cta = accesses_per_cta;
  trace_.push_back(std::move(k));
}

void ApproxMemory::require_kernel(const char* who) const {
  if (trace_.empty())
    throw std::logic_error(std::string(who) + ": begin_kernel() must precede trace calls");
}

void ApproxMemory::trace_block(RegionId r, size_t block, bool write) {
  require_kernel("ApproxMemory::trace_block");
  settle(r);  // bursts must reflect the latest commit, async or not
  const Region& reg = regions_[r];
  TraceAccess a;
  a.addr = reg.base_addr + block * kBlockBytes;
  a.bursts = current_bursts(reg, block);
  a.write = write;
  trace_.back().accesses.push_back(a);
}

void ApproxMemory::trace_read(RegionId r) {
  require_kernel("ApproxMemory::trace_read");
  const size_t n = region_blocks(r);
  for (size_t b = 0; b < n; ++b) trace_block(r, b, false);
}

void ApproxMemory::trace_zip(std::span<const RegionId> reads, std::span<const RegionId> writes) {
  require_kernel("ApproxMemory::trace_zip");
  size_t max_blocks = 0;
  for (RegionId r : reads) max_blocks = std::max(max_blocks, region_blocks(r));
  for (RegionId r : writes) max_blocks = std::max(max_blocks, region_blocks(r));
  for (size_t b = 0; b < max_blocks; ++b) {
    for (RegionId r : reads)
      if (b < region_blocks(r)) trace_block(r, b, false);
    for (RegionId r : writes)
      if (b < region_blocks(r)) trace_block(r, b, true);
  }
}

const CommitStats& ApproxMemory::stats() {
  flush();
  return stats_;
}

CommitStats ApproxMemory::region_stats(RegionId r) const {
  // Settling materializes lazily-deferred state; logically const.
  const_cast<ApproxMemory*>(this)->settle(r);
  return regions_[r].stats;
}

}  // namespace slc
