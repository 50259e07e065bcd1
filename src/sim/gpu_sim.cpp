#include "sim/gpu_sim.h"

#include <algorithm>
#include <cassert>

namespace slc {

GpuSim::McState::McState(const GpuSimConfig& cfg)
    : l2(cfg.l2_bytes / cfg.num_mcs, cfg.l2_ways, cfg.line_bytes),
      mdc(cfg.mdc_lines * 64, 4, 64),
      dram(cfg, stats) {}

uint64_t GpuSim::McState::alloc_tag(const InFlight& f) {
  if (free_tags.empty()) {
    inflight_reads.push_back(f);
    return inflight_reads.size() - 1;
  }
  const uint64_t t = free_tags.back();
  free_tags.pop_back();
  inflight_reads[t] = f;
  return t;
}

GpuSim::GpuSim(GpuSimConfig cfg) : cfg_(cfg) {
  sms_.resize(cfg_.num_sms);
  for (unsigned i = 0; i < cfg_.num_sms; ++i)
    l1_.emplace_back(cfg_.l1_bytes, cfg_.l1_ways, cfg_.line_bytes);
  mcs_.reserve(cfg_.num_mcs);
  for (unsigned i = 0; i < cfg_.num_mcs; ++i) mcs_.push_back(std::make_unique<McState>(cfg_));
}

size_t GpuSim::mc_index(uint64_t addr) const {
  // 256 B chunks interleave across memory partitions (GPGPU-Sim style).
  return (addr >> 8) % cfg_.num_mcs;
}

uint64_t GpuSim::channel_local(uint64_t addr) const {
  return ((addr >> 8) / cfg_.num_mcs) * 256 + (addr & 255);
}

void GpuSim::sm_issue(uint16_t sm_id, double compute_scale) {
  SmState& sm = sms_[sm_id];
  if (sm.next >= sm.queue.size()) return;
  if (sm.credit >= 1.0) return;
  const TraceAccess& a = sm.queue[sm.next];
  if (!a.write && sm.outstanding >= cfg_.max_outstanding_per_sm) return;

  sm.next++;
  sm.credit += compute_scale;
  ++stats_.accesses;

  if (a.write) {
    ++stats_.writes;
    // Write-through L1 without allocation; invalidate a stale copy is
    // approximated by a write_hit update when present.
    l1_[sm_id].write_hit(a.addr, a.bursts);
    InFlight f{a, sm_id, cycle_ + cfg_.icnt_latency};
    mcs_[mc_index(a.addr)]->arrivals.push(f);
    return;
  }

  ++stats_.reads;
  if (l1_[sm_id].lookup(a.addr)) {
    ++stats_.l1_hits;
    return;  // hit latency does not occupy an MSHR
  }
  ++stats_.l1_misses;
  ++sm.outstanding;
  InFlight f{a, sm_id, cycle_ + cfg_.icnt_latency};
  mcs_[mc_index(a.addr)]->arrivals.push(f);
}

// Runs on whichever shard owns mc_id during the parallel phase: touches only
// this McState (its caches, channel, queues, tag pool and private stats) plus
// driver-written-between-barriers cycle_/cfg_, so shards never race and the
// channel's evolution is a pure function of its own request sequence —
// identical for any worker count.
void GpuSim::mc_process(size_t mc_id) {
  McState& mc = *mcs_[mc_id];

  // Requests arriving from the interconnect.
  while (!mc.arrivals.empty() && mc.arrivals.top().ready <= cycle_) {
    InFlight f = mc.arrivals.top();
    mc.arrivals.pop();
    const TraceAccess& a = f.access;
    if (a.write) {
      // L2 write path: full-line streaming store -> allocate without fetch.
      if (!mc.l2.write_hit(a.addr, a.bursts)) {
        auto ev = mc.l2.fill(a.addr, /*dirty=*/true, a.bursts);
        if (ev) {
          ++mc.stats.l2_writebacks;
          ++mc.stats.compressions;
          TraceAccess wb;
          wb.addr = ev->addr;
          wb.bursts = ev->bursts;
          wb.write = true;
          mc.staged.push(InFlight{wb, f.sm, cycle_ + cfg_.compress_latency});
        }
      }
      continue;
    }
    // Read path.
    if (mc.l2.lookup(a.addr)) {
      ++mc.stats.l2_hits;
      InFlight resp = f;
      resp.ready = cycle_ + cfg_.l2_latency + cfg_.icnt_latency;
      mc.responses.push(resp);
      continue;
    }
    ++mc.stats.l2_misses;
    // Metadata cache: the 2-bit burst count must be known before the fetch.
    const uint64_t meta_line = a.addr / (cfg_.line_bytes * cfg_.mdc_line_coverage_blocks);
    uint64_t extra_delay = 0;
    if (mc.mdc.lookup(meta_line * 64)) {
      ++mc.stats.mdc_hits;
    } else {
      ++mc.stats.mdc_misses;
      mc.mdc.fill(meta_line * 64, /*dirty=*/false, 1);
      // Charge a one-burst metadata fetch (bandwidth) and serialize the data
      // fetch behind its approximate service time.
      DramRequest meta;
      meta.addr = 0x8'0000'0000ull + meta_line * 64;
      meta.bursts = 1;
      meta.metadata = true;
      meta.enqueue_cycle = cycle_;
      meta.tag = UINT64_MAX;  // fire-and-forget
      mc.dram.push_read(meta);
      extra_delay = cfg_.t_rcd + cfg_.t_cl + 1;
    }
    DramRequest req;
    req.addr = channel_local(a.addr);
    req.bursts = std::max<uint32_t>(a.bursts, 1);
    req.enqueue_cycle = cycle_ + extra_delay;
    req.tag = mc.alloc_tag(f);
    mc.dram.push_read(req);
  }

  // Writebacks whose compression pipeline completed.
  while (!mc.staged.empty() && mc.staged.top().ready <= cycle_) {
    const InFlight f = mc.staged.top();
    mc.staged.pop();
    DramRequest req;
    req.addr = channel_local(f.access.addr);
    req.bursts = std::max<uint32_t>(f.access.bursts, 1);
    req.write = true;
    req.enqueue_cycle = cycle_;
    req.tag = UINT64_MAX;
    mc.dram.push_write(req);
  }

  mc.dram.tick(cycle_);

  // DRAM completions: fill L2, start decompression, respond to the SM.
  auto& comps = mc.dram.completions();
  while (!comps.empty() && comps.front().finish_cycle <= cycle_) {
    const DramCompletion c = comps.front();
    comps.pop_front();
    if (c.write || c.metadata || c.tag == UINT64_MAX) continue;
    InFlight f = mc.inflight_reads[c.tag];
    mc.free_tags.push_back(c.tag);
    auto ev = mc.l2.fill(f.access.addr, /*dirty=*/false, f.access.bursts);
    if (ev) {
      ++mc.stats.l2_writebacks;
      ++mc.stats.compressions;
      TraceAccess wb;
      wb.addr = ev->addr;
      wb.bursts = ev->bursts;
      wb.write = true;
      mc.staged.push(InFlight{wb, f.sm, cycle_ + cfg_.compress_latency});
    }
    uint64_t lat = cfg_.icnt_latency;
    if (f.access.bursts < cfg_.max_bursts()) {
      ++mc.stats.decompressions;
      lat += cfg_.decompress_latency;
    }
    f.ready = cycle_ + lat;
    mc.responses.push(f);
  }
}

// Body of one extra shard thread. The epoch/done handshake is the only
// cross-thread communication: an acquire-load of epoch_ sees every
// driver-side write made before the matching release-increment (SM pushes
// into arrivals, the cycle_ advance), and the driver's acquire-spin on done_
// sees every MC mutation made before the worker's release-increment.
void GpuSim::worker_loop(unsigned shard, unsigned num_shards) {
  uint64_t seen = 0;
  for (;;) {
    while (epoch_.load(std::memory_order_acquire) == seen) {
      if (stop_.load(std::memory_order_acquire)) return;
      std::this_thread::yield();
    }
    ++seen;
    for (size_t m = shard; m < mcs_.size(); m += num_shards) mc_process(m);
    done_.fetch_add(1, std::memory_order_release);
  }
}

void GpuSim::mc_phase() {
  if (workers_.empty()) {
    for (size_t m = 0; m < mcs_.size(); ++m) mc_process(m);
    return;
  }
  const unsigned num_shards = active_workers_ + 1;  // driver is shard 0
  const uint64_t step = epoch_.fetch_add(1, std::memory_order_release) + 1;
  for (size_t m = 0; m < mcs_.size(); m += num_shards) mc_process(m);
  const uint64_t target = step * active_workers_;
  while (done_.load(std::memory_order_acquire) < target) std::this_thread::yield();
}

void GpuSim::deliver_responses() {
  // Fixed channel order: which MC's response fills L1 first on a shared
  // cycle is part of the deterministic schedule, not a thread-timing
  // artifact.
  for (auto& mcp : mcs_) {
    InFlightQueue& responses = mcp->responses;
    while (!responses.empty() && responses.top().ready <= cycle_) {
      const InFlight f = responses.top();
      responses.pop();
      SmState& sm = sms_[f.sm];
      assert(sm.outstanding > 0);
      --sm.outstanding;
      l1_[f.sm].fill(f.access.addr, /*dirty=*/false, f.access.bursts);
    }
  }
}

bool GpuSim::drained() const {
  for (const SmState& sm : sms_)
    if (sm.next < sm.queue.size() || sm.outstanding > 0) return false;
  for (const auto& mcp : mcs_) {
    const McState& mc = *mcp;
    if (!mc.arrivals.empty() || !mc.staged.empty() || !mc.responses.empty() || mc.dram.busy())
      return false;
  }
  return true;
}

uint64_t GpuSim::next_event_cycle() const {
  uint64_t nxt = UINT64_MAX;
  auto consider = [&](uint64_t c) { nxt = std::min(nxt, c); };
  for (const SmState& sm : sms_) {
    if (sm.next < sm.queue.size()) {
      if (sm.credit < 1.0 || sm.queue[sm.next].write ||
          sm.outstanding < cfg_.max_outstanding_per_sm) {
        // Either issueable now/soon (credit drains 1/cycle)...
        consider(cycle_ + std::max<uint64_t>(1, static_cast<uint64_t>(sm.credit)));
      }
      // ...or blocked on a response (covered by the MC responses below).
    }
  }
  for (const auto& mcp : mcs_) {
    const McState& mc = *mcp;
    if (!mc.arrivals.empty()) consider(mc.arrivals.top().ready);
    if (!mc.staged.empty()) consider(mc.staged.top().ready);
    if (!mc.responses.empty()) consider(mc.responses.top().ready);
    if (!mc.dram.completions().empty()) consider(mc.dram.completions().front().finish_cycle);
    consider(mc.dram.next_event_cycle(cycle_));
  }
  return nxt == UINT64_MAX ? cycle_ + 1 : std::max(nxt, cycle_ + 1);
}

void GpuSim::run_kernel(const KernelTrace& kernel) {
  ++stats_.kernels;
  // Distribute CTAs round-robin over SMs.
  for (SmState& sm : sms_) {
    sm.queue.clear();
    sm.next = 0;
    sm.credit = 0.0;
  }
  const uint32_t per_cta = std::max<uint32_t>(kernel.accesses_per_cta, 1);
  for (size_t i = 0; i < kernel.accesses.size(); ++i) {
    const size_t cta = i / per_cta;
    sms_[cta % cfg_.num_sms].queue.push_back(kernel.accesses[i]);
  }
  // L1s do not persist across kernel launches.
  for (Cache& c : l1_) c.clear();

  const double compute_scale = kernel.compute_per_access * cfg_.sm_cycle_scale();
  while (!drained()) {
    for (uint16_t s = 0; s < cfg_.num_sms; ++s) sm_issue(s, compute_scale);
    mc_phase();
    deliver_responses();

    const uint64_t nxt = next_event_cycle();
    const uint64_t step = nxt - cycle_;
    for (SmState& sm : sms_) sm.credit = std::max(0.0, sm.credit - static_cast<double>(step));
    cycle_ = nxt;
  }
}

void GpuSim::start_workers() {
  unsigned shards = cfg_.sim_workers != 0 ? cfg_.sim_workers : std::thread::hardware_concurrency();
  shards = std::clamp<unsigned>(shards, 1, cfg_.num_mcs);
  active_workers_ = shards - 1;
  if (active_workers_ == 0) return;
  stop_.store(false, std::memory_order_relaxed);
  epoch_.store(0, std::memory_order_relaxed);
  done_.store(0, std::memory_order_relaxed);
  workers_.reserve(active_workers_);
  for (unsigned i = 0; i < active_workers_; ++i)
    workers_.emplace_back([this, i, shards] { worker_loop(i + 1, shards); });
}

void GpuSim::stop_workers() {
  if (workers_.empty()) return;
  stop_.store(true, std::memory_order_release);
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  active_workers_ = 0;
}

void GpuSim::begin_run() {
  stats_ = SimStats{};
  cycle_ = 0;
  for (auto& mcp : mcs_) {
    mcp->stats = SimStats{};
    mcp->inflight_reads.clear();
    mcp->free_tags.clear();
  }
  start_workers();
}

SimStats GpuSim::end_run() {
  stop_workers();
  stats_.cycles = cycle_;
  // Drain-barrier reconciliation: per-channel accumulators fold into the
  // driver's stats in fixed channel order. merge() is associative with
  // identity, so the totals cannot depend on the worker count.
  for (const auto& mcp : mcs_) stats_.merge(mcp->stats);
  return stats_;
}

SimStats GpuSim::run(TraceStream& stream) {
  struct WorkerGuard {  // exception safety: never leak spinning shard threads
    GpuSim& sim;
    ~WorkerGuard() { sim.stop_workers(); }
  };
  begin_run();
  WorkerGuard guard{*this};
  while (std::shared_ptr<const KernelTrace> chunk = stream.pop()) run_kernel(*chunk);
  SimStats out = end_run();
  out.stream_chunk_hwm = stream.chunk_high_water();
  out.stream_access_hwm = stream.access_high_water();
  return out;
}

SimStats GpuSim::run(const std::vector<KernelTrace>& trace) {
  // Thin adapter per the streaming contract: wrap the materialized vector
  // in an already-closed, unbounded stream of borrowed chunks (aliasing
  // shared_ptrs — no copy; the vector outlives the run).
  TraceStream stream(0);
  for (const KernelTrace& k : trace)
    stream.push(std::shared_ptr<const KernelTrace>(std::shared_ptr<const void>(), &k));
  stream.close();
  return run(stream);
}

SimStats GpuSim::run(ApproxMemory& mem) {
  mem.flush();
  return run(mem.trace());
}

}  // namespace slc
