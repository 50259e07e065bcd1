// Reference simulator: the cache model and event loop that sim/cache.cpp
// and sim/gpu_sim.cpp replaced, kept as test oracles.
//
// RefCache keeps each way as one struct and finds a victim with a second
// scan of the set. RefGpuSim copies every access into per-SM queues at
// kernel start and polls every SM and every channel at every event step,
// on test::RefDramChannel's scan-based scheduler. Both are slow but
// obviously faithful to the model; GpuSim and Cache must agree with them
// exactly (GpuSimDifferential, CacheDifferential).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "dram_reference.h"
#include "sim/sim_config.h"
#include "sim/trace_stream.h"
#include "workloads/approx_memory.h"

namespace slc::test {

class RefCache {
 public:
  RefCache(size_t total_bytes, unsigned ways, size_t line_bytes) : ways_(ways) {
    assert(line_bytes && (line_bytes & (line_bytes - 1)) == 0);
    line_shift_ = 0;
    for (size_t v = line_bytes; v > 1; v >>= 1) ++line_shift_;
    sets_ = total_bytes / line_bytes / ways;
    assert(sets_ >= 1);
    lines_.assign(sets_ * ways_, LineInfo{});
  }

  struct LineInfo {
    uint64_t tag = 0;
    bool valid = false;
    bool dirty = false;
    uint32_t bursts = 0;
    uint64_t lru = 0;
  };

  bool lookup(uint64_t addr) {
    LineInfo* li = find(addr);
    if (li == nullptr) return false;
    li->lru = ++tick_;
    return true;
  }

  struct Eviction {
    uint64_t addr = 0;
    uint32_t bursts = 0;
  };

  std::optional<Eviction> fill(uint64_t addr, bool dirty, uint32_t bursts) {
    if (LineInfo* hit = find(addr)) {
      hit->dirty = hit->dirty || dirty;
      hit->bursts = bursts;
      hit->lru = ++tick_;
      return std::nullopt;
    }
    LineInfo* v = victim(addr);
    std::optional<Eviction> evicted;
    if (v->valid && v->dirty) {
      evicted = Eviction{v->tag << line_shift_, v->bursts};
    }
    v->valid = true;
    v->dirty = dirty;
    v->tag = tag_of(addr);
    v->bursts = bursts;
    v->lru = ++tick_;
    return evicted;
  }

  bool write_hit(uint64_t addr, uint32_t bursts) {
    LineInfo* li = find(addr);
    if (li == nullptr) return false;
    li->dirty = true;
    li->bursts = bursts;
    li->lru = ++tick_;
    return true;
  }

  void clear() {
    for (auto& li : lines_) li = LineInfo{};
  }

  size_t num_sets() const { return sets_; }
  unsigned ways() const { return ways_; }

 private:
  size_t sets_;
  unsigned ways_;
  unsigned line_shift_;
  std::vector<LineInfo> lines_;
  uint64_t tick_ = 0;

  size_t set_index(uint64_t addr) const { return (addr >> line_shift_) % sets_; }
  uint64_t tag_of(uint64_t addr) const { return addr >> line_shift_; }

  LineInfo* find(uint64_t addr) {
    const size_t set = set_index(addr);
    const uint64_t tag = tag_of(addr);
    for (unsigned w = 0; w < ways_; ++w) {
      LineInfo& li = lines_[set * ways_ + w];
      if (li.valid && li.tag == tag) return &li;
    }
    return nullptr;
  }

  LineInfo* victim(uint64_t addr) {
    const size_t set = set_index(addr);
    LineInfo* best = &lines_[set * ways_];
    for (unsigned w = 0; w < ways_; ++w) {
      LineInfo& li = lines_[set * ways_ + w];
      if (!li.valid) return &li;
      if (li.lru < best->lru) best = &li;
    }
    return best;
  }
};

class RefGpuSim {
 public:
  explicit RefGpuSim(GpuSimConfig cfg) : cfg_(cfg) {}
  RefGpuSim(const RefGpuSim&) = delete;
  RefGpuSim& operator=(const RefGpuSim&) = delete;

  SimStats run(const std::vector<KernelTrace>& trace) {
    TraceStream stream(0);
    for (const KernelTrace& k : trace)
      stream.push(std::shared_ptr<const KernelTrace>(std::shared_ptr<const void>(), &k));
    stream.close();
    return run(stream);
  }

  SimStats run(TraceStream& stream) {
    stats_ = SimStats{};
    cycle_ = 0;
    sms_.assign(cfg_.num_sms, SmState{});
    l1_.assign(cfg_.num_sms, RefCache(cfg_.l1_bytes, cfg_.l1_ways, cfg_.line_bytes));
    mcs_.clear();
    mcs_.reserve(cfg_.num_mcs);
    for (unsigned i = 0; i < cfg_.num_mcs; ++i) mcs_.emplace_back(cfg_, stats_);

    while (std::shared_ptr<const KernelTrace> chunk = stream.pop()) run_kernel(*chunk);
    stats_.cycles = cycle_;
    stats_.stream_chunk_hwm = stream.chunk_high_water();
    stats_.stream_access_hwm = stream.access_high_water();
    return stats_;
  }

 private:
  struct SmState {
    std::vector<TraceAccess> queue;
    size_t next = 0;
    double credit = 0.0;
    unsigned outstanding = 0;
  };

  struct InFlight {
    TraceAccess access;
    uint16_t sm = 0;
    uint64_t ready = 0;
  };
  struct ReadyOrder {
    bool operator()(const InFlight& a, const InFlight& b) const { return a.ready > b.ready; }
  };
  using InFlightQueue = std::priority_queue<InFlight, std::vector<InFlight>, ReadyOrder>;

  struct McState {
    RefCache l2;
    RefCache mdc;
    RefDramChannel dram;
    InFlightQueue arrivals;
    InFlightQueue staged;
    InFlightQueue responses;
    std::vector<InFlight> inflight_reads;
    std::vector<uint64_t> free_tags;
    McState(const GpuSimConfig& cfg, SimStats& stats)
        : l2(cfg.l2_bytes / cfg.num_mcs, cfg.l2_ways, cfg.line_bytes),
          mdc(cfg.mdc_lines * 64, 4, 64),
          dram(cfg, stats) {}
    uint64_t alloc_tag(const InFlight& f) {
      if (free_tags.empty()) {
        inflight_reads.push_back(f);
        return inflight_reads.size() - 1;
      }
      const uint64_t t = free_tags.back();
      free_tags.pop_back();
      inflight_reads[t] = f;
      return t;
    }
  };

  GpuSimConfig cfg_;
  SimStats stats_;
  std::vector<SmState> sms_;
  std::vector<RefCache> l1_;
  std::vector<McState> mcs_;
  uint64_t cycle_ = 0;

  size_t mc_index(uint64_t addr) const { return (addr >> 8) % cfg_.num_mcs; }

  uint64_t channel_local(uint64_t addr) const {
    return ((addr >> 8) / cfg_.num_mcs) * 256 + (addr & 255);
  }

  void sm_issue(uint16_t sm_id, double compute_scale) {
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
      l1_[sm_id].write_hit(a.addr, a.bursts);
      InFlight f{a, sm_id, cycle_ + cfg_.icnt_latency};
      mcs_[mc_index(a.addr)].arrivals.push(f);
      return;
    }

    ++stats_.reads;
    if (l1_[sm_id].lookup(a.addr)) {
      ++stats_.l1_hits;
      return;
    }
    ++stats_.l1_misses;
    ++sm.outstanding;
    InFlight f{a, sm_id, cycle_ + cfg_.icnt_latency};
    mcs_[mc_index(a.addr)].arrivals.push(f);
  }

  void mc_process(McState& mc) {
    while (!mc.arrivals.empty() && mc.arrivals.top().ready <= cycle_) {
      InFlight f = mc.arrivals.top();
      mc.arrivals.pop();
      const TraceAccess& a = f.access;
      if (a.write) {
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
      if (mc.l2.lookup(a.addr)) {
        ++stats_.l2_hits;
        InFlight resp = f;
        resp.ready = cycle_ + cfg_.l2_latency + cfg_.icnt_latency;
        mc.responses.push(resp);
        continue;
      }
      ++stats_.l2_misses;
      const uint64_t meta_line = a.addr / (cfg_.line_bytes * cfg_.mdc_line_coverage_blocks);
      uint64_t extra_delay = 0;
      if (mc.mdc.lookup(meta_line * 64)) {
        ++stats_.mdc_hits;
      } else {
        ++stats_.mdc_misses;
        mc.mdc.fill(meta_line * 64, /*dirty=*/false, 1);
        DramRequest meta;
        meta.addr = 0x8'0000'0000ull + meta_line * 64;
        meta.bursts = 1;
        meta.metadata = true;
        meta.enqueue_cycle = cycle_;
        meta.tag = UINT64_MAX;
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

  void deliver_responses() {
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

  bool drained() const {
    for (const SmState& sm : sms_)
      if (sm.next < sm.queue.size() || sm.outstanding > 0) return false;
    for (const McState& mc : mcs_) {
      if (!mc.arrivals.empty() || !mc.staged.empty() || !mc.responses.empty() ||
          mc.dram.busy())
        return false;
    }
    return true;
  }

  uint64_t next_event_cycle() const {
    uint64_t nxt = UINT64_MAX;
    auto consider = [&](uint64_t c) { nxt = std::min(nxt, c); };
    for (const SmState& sm : sms_) {
      if (sm.next < sm.queue.size()) {
        if (sm.credit < 1.0 || sm.queue[sm.next].write ||
            sm.outstanding < cfg_.max_outstanding_per_sm) {
          consider(cycle_ + std::max<uint64_t>(1, static_cast<uint64_t>(sm.credit)));
        }
      }
    }
    for (const McState& mc : mcs_) {
      if (!mc.arrivals.empty()) consider(mc.arrivals.top().ready);
      if (!mc.staged.empty()) consider(mc.staged.top().ready);
      if (!mc.responses.empty()) consider(mc.responses.top().ready);
      if (!mc.dram.completions().empty())
        consider(mc.dram.completions().front().finish_cycle);
      consider(mc.dram.next_event_cycle(cycle_));
    }
    return nxt == UINT64_MAX ? cycle_ + 1 : std::max(nxt, cycle_ + 1);
  }

  void run_kernel(const KernelTrace& kernel) {
    ++stats_.kernels;
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
    for (RefCache& c : l1_) c.clear();

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
};

}  // namespace slc::test
