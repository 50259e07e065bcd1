#include "sim/gpu_sim.h"

#include <algorithm>
#include <cassert>
#include <memory>

namespace slc {

GpuSim::McState::McState(const GpuSimConfig& cfg, SimStats& stats)
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
    mcs_[mc_index(a.addr)].arrivals.push(f);
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
  mcs_[mc_index(a.addr)].arrivals.push(f);
}

// One channel's share of an event step: interconnect arrivals, finished
// writeback compressions, one DRAM scheduling tick, then completed fetches.
void GpuSim::mc_process(McState& mc) {
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
          ++stats_.l2_writebacks;
          ++stats_.compressions;
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
      ++stats_.l2_hits;
      InFlight resp = f;
      resp.ready = cycle_ + cfg_.l2_latency + cfg_.icnt_latency;
      mc.responses.push(resp);
      continue;
    }
    ++stats_.l2_misses;
    // Metadata cache: the 2-bit burst count must be known before the fetch.
    const uint64_t meta_line = a.addr / (cfg_.line_bytes * cfg_.mdc_line_coverage_blocks);
    uint64_t extra_delay = 0;
    if (mc.mdc.lookup(meta_line * 64)) {
      ++stats_.mdc_hits;
    } else {
      ++stats_.mdc_misses;
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
      ++stats_.l2_writebacks;
      ++stats_.compressions;
      TraceAccess wb;
      wb.addr = ev->addr;
      wb.bursts = ev->bursts;
      wb.write = true;
      mc.staged.push(InFlight{wb, f.sm, cycle_ + cfg_.compress_latency});
    }
    uint64_t lat = cfg_.icnt_latency;
    if (f.access.bursts < cfg_.max_bursts()) {
      ++stats_.decompressions;
      lat += cfg_.decompress_latency;
    }
    f.ready = cycle_ + lat;
    mc.responses.push(f);
  }
}

void GpuSim::deliver_responses() {
  // Fixed channel order: which MC's response fills L1 first on a shared
  // cycle is part of the schedule.
  for (McState& mc : mcs_) {
    InFlightQueue& responses = mc.responses;
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
  for (const McState& mc : mcs_) {
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
  for (const McState& mc : mcs_) {
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
    for (McState& mc : mcs_) mc_process(mc);
    deliver_responses();

    const uint64_t nxt = next_event_cycle();
    const uint64_t step = nxt - cycle_;
    for (SmState& sm : sms_) sm.credit = std::max(0.0, sm.credit - static_cast<double>(step));
    cycle_ = nxt;
  }
}

SimStats GpuSim::run(TraceStream& stream) {
  // Cold machine: a run never inherits cache contents, bank or bus timing,
  // counters or the clock from an earlier run.
  stats_ = SimStats{};
  cycle_ = 0;
  sms_.assign(cfg_.num_sms, SmState{});
  l1_.assign(cfg_.num_sms, Cache(cfg_.l1_bytes, cfg_.l1_ways, cfg_.line_bytes));
  mcs_.clear();
  mcs_.reserve(cfg_.num_mcs);
  for (unsigned i = 0; i < cfg_.num_mcs; ++i) mcs_.emplace_back(cfg_, stats_);

  while (std::shared_ptr<const KernelTrace> chunk = stream.pop()) run_kernel(*chunk);
  stats_.cycles = cycle_;
  stats_.stream_chunk_hwm = stream.chunk_high_water();
  stats_.stream_access_hwm = stream.access_high_water();
  return stats_;
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
