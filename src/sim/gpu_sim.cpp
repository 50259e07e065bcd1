#include "sim/gpu_sim.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

namespace slc {

namespace {

void require(bool ok, const std::string& what) {
  if (!ok) throw std::invalid_argument("GpuSim: " + what);
}

void require_cache(size_t total_bytes, unsigned ways, size_t line_bytes, const char* which) {
  try {
    Cache::sets_for(total_bytes, ways, line_bytes);
  } catch (const std::invalid_argument& e) {
    require(false, std::string(which) + ": " + e.what());
  }
}

// Scaled compute cycles per access above this are rejected, so credits
// convert to cycle counts exactly and no cycle count can overflow.
constexpr double kMaxComputeCycles = 4294967296.0;  // 2^32

}  // namespace

GpuSim::GpuSim(GpuSimConfig cfg) : cfg_(cfg) {
  require(cfg_.num_sms >= 1 && cfg_.num_sms <= UINT16_MAX, "num_sms must be in [1, 65535]");
  require(cfg_.num_mcs >= 1, "num_mcs must be nonzero");
  require(cfg_.banks_per_mc >= 1, "banks_per_mc must be nonzero");
  require(cfg_.row_bytes >= 1, "row_bytes must be nonzero");
  require(cfg_.beats_per_cycle >= 1, "beats_per_cycle must be nonzero");
  require(cfg_.mag_bytes >= 1, "mag_bytes must be nonzero");
  require(cfg_.scheduler_window >= 1, "scheduler_window must be nonzero");
  require(cfg_.max_outstanding_per_sm >= 1, "max_outstanding_per_sm must be nonzero");
  require(cfg_.mdc_line_coverage_blocks >= 1, "mdc_line_coverage_blocks must be nonzero");
  require(cfg_.sm_clock_ghz > 0 && cfg_.mem_clock_ghz > 0 && std::isfinite(cfg_.sm_cycle_scale()),
          "clocks must be positive and finite");
  require_cache(cfg_.l1_bytes, cfg_.l1_ways, cfg_.line_bytes, "L1");
  require_cache(cfg_.l2_bytes / cfg_.num_mcs, cfg_.l2_ways, cfg_.line_bytes, "L2 slice");
  require_cache(cfg_.mdc_lines * 64, 4, 64, "metadata cache");
}

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

void GpuSim::start_cta(SmState& sm) const {
  const std::vector<TraceAccess>& accesses = kernel_->accesses;
  const size_t first = sm.cta * per_cta_;
  if (first >= accesses.size()) {
    sm.next = sm.cta_end = nullptr;
    return;
  }
  sm.next = accesses.data() + first;
  sm.cta_end = accesses.data() + std::min(first + per_cta_, accesses.size());
  // This SM's next CTA starts num_sms CTAs further on; fetch it early, as
  // the SMs' interleaved walks defeat the hardware prefetcher.
  const size_t following = first + cfg_.num_sms * per_cta_;
  if (following < accesses.size()) __builtin_prefetch(accesses.data() + following);
}

GpuSim::Stall GpuSim::stall_of(const SmState& sm) const {
  if (sm.next == nullptr) return Stall::kDone;
  if (!sm.next->write && sm.outstanding >= cfg_.max_outstanding_per_sm) return Stall::kMshrFull;
  return Stall::kNone;
}

// Called only for an SM that can issue: it has an access left, owes less
// than one compute cycle, and its next access is a write or an MSHR is free.
void GpuSim::sm_issue(uint16_t sm_id, double compute_scale) {
  SmState& sm = sms_[sm_id];
  const TraceAccess a = *sm.next;
  ++sm.next;
  if (sm.next == sm.cta_end) {
    sm.cta += cfg_.num_sms;
    start_cta(sm);
  }
  credit_[sm_id] += compute_scale;
  ++stats_.accesses;

  InFlight f{a, sm_id, cycle_ + cfg_.icnt_latency};
  bool l1_hit = false;
  if (a.write) {
    ++stats_.writes;
    // Write-through L1 without allocation; invalidate a stale copy is
    // approximated by a write_hit update when present.
    l1_[sm_id].write_hit(a.addr, a.bursts);
  } else {
    ++stats_.reads;
    l1_hit = l1_[sm_id].lookup(a.addr);
    if (l1_hit) {
      ++stats_.l1_hits;  // hit latency does not occupy an MSHR
    } else {
      ++stats_.l1_misses;
      ++sm.outstanding;
    }
  }
  stall_[sm_id] = stall_of(sm);
  if (l1_hit) return;
  McState& mc = mcs_[mc_index(a.addr)];
  mc.arrivals.push(f);
  mc.wake = std::min(mc.wake, f.ready);
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

  mc.wake = mc.dram.next_event_cycle(cycle_);
  if (!mc.arrivals.empty()) mc.wake = std::min(mc.wake, mc.arrivals.top().ready);
  if (!mc.staged.empty()) mc.wake = std::min(mc.wake, mc.staged.top().ready);
  if (!comps.empty()) mc.wake = std::min(mc.wake, comps.front().finish_cycle);
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
      stall_[f.sm] = stall_of(sm);
      l1_[f.sm].fill(f.access.addr, /*dirty=*/false, f.access.bursts);
    }
  }
}

uint64_t GpuSim::next_event_cycle() const {
  uint64_t nxt = UINT64_MAX;
  for (size_t s = 0; s < sms_.size(); ++s) {
    if (stall_[s] == Stall::kDone) continue;
    // An SM owing less than a cycle is due next cycle even while its MSHRs
    // are full, and nothing can be due sooner.
    if (credit_[s] < 1.0) return cycle_ + 1;
    // Otherwise it is due when its credit drains, unless it is blocked on a
    // response (covered by the MC responses below).
    if (stall_[s] == Stall::kNone)
      nxt = std::min(nxt, cycle_ + static_cast<uint64_t>(credit_[s]));
  }
  for (const McState& mc : mcs_) {
    nxt = std::min(nxt, mc.wake);
    if (!mc.responses.empty()) nxt = std::min(nxt, mc.responses.top().ready);
  }
  return nxt;
}

void GpuSim::run_kernel(const KernelTrace& kernel) {
  ++stats_.kernels;
  // Distribute CTAs round-robin over SMs.
  kernel_ = &kernel;
  per_cta_ = std::max<uint32_t>(kernel.accesses_per_cta, 1);
  bool live = false;
  for (size_t s = 0; s < sms_.size(); ++s) {
    sms_[s].cta = s;
    start_cta(sms_[s]);
    stall_[s] = stall_of(sms_[s]);
    live = live || stall_[s] != Stall::kDone;
  }
  std::fill(credit_.begin(), credit_.end(), 0.0);
  // L1s do not persist across kernel launches.
  for (Cache& c : l1_) c.clear();
  // The previous kernel drained every channel, so an empty kernel is done.
  if (!live) return;

  // Each event step visits only the components with work due, in the fixed
  // order SMs, channels, responses; the skipped visits would do nothing.
  const double compute_scale = kernel.compute_per_access * cfg_.sm_cycle_scale();
  for (;;) {
    for (size_t s = 0; s < sms_.size(); ++s)
      if (stall_[s] == Stall::kNone && credit_[s] < 1.0)
        sm_issue(static_cast<uint16_t>(s), compute_scale);
    for (McState& mc : mcs_)
      if (mc.wake <= cycle_) mc_process(mc);
    deliver_responses();

    const uint64_t nxt = next_event_cycle();
    const uint64_t to = nxt == UINT64_MAX ? cycle_ + 1 : std::max(nxt, cycle_ + 1);
    const double step = static_cast<double>(to - cycle_);
    for (double& credit : credit_) credit = std::max(0.0, credit - step);
    cycle_ = to;
    if (nxt == UINT64_MAX) break;  // drained
  }
}

SimStats GpuSim::run(TraceStream& stream) {
  // Cold machine: a run never inherits cache contents, bank or bus timing,
  // counters or the clock from an earlier run.
  stats_ = SimStats{};
  cycle_ = 0;
  sms_.assign(cfg_.num_sms, SmState{});
  credit_.assign(cfg_.num_sms, 0.0);
  stall_.assign(cfg_.num_sms, Stall::kDone);
  l1_.assign(cfg_.num_sms, Cache(cfg_.l1_bytes, cfg_.l1_ways, cfg_.line_bytes));
  mcs_.clear();
  mcs_.reserve(cfg_.num_mcs);
  for (unsigned i = 0; i < cfg_.num_mcs; ++i) mcs_.emplace_back(cfg_, stats_);

  while (std::shared_ptr<const KernelTrace> chunk = stream.pop()) {
    const double compute = chunk->compute_per_access * cfg_.sm_cycle_scale();
    if (!(compute >= 0.0 && compute <= kMaxComputeCycles)) {
      stream.cancel();
      throw std::invalid_argument("GpuSim: kernel '" + chunk->name +
                                  "' has a negative, non-finite or oversized compute_per_access");
    }
    run_kernel(*chunk);
  }
  kernel_ = nullptr;
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
