#include "sim/dram.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace slc {

DramChannel::DramChannel(const GpuSimConfig& cfg, SimStats& stats) : cfg_(cfg), stats_(stats) {
  banks_.assign(cfg_.banks_per_mc, Bank{});
  reads_.window_per_bank.assign(cfg_.banks_per_mc, 0);
  writes_.window_per_bank.assign(cfg_.banks_per_mc, 0);
}

void DramChannel::push(Queue& q, const DramRequest& r) {
  // Channel selection happens upstream; here `addr` is already channel-local
  // enough for bank/row purposes (we hash the full address). Consecutive
  // rows interleave across banks so streams get row locality and bank
  // parallelism.
  const uint64_t chunk = r.addr / cfg_.row_bytes;
  Pending p;
  p.bank = static_cast<uint32_t>(chunk % cfg_.banks_per_mc);
  p.row = chunk / cfg_.banks_per_mc;
  p.tag = r.tag;
  p.bursts = r.bursts;
  p.write = r.write;
  p.metadata = r.metadata;
  q.pending.push_back(p);
  if (q.pending.size() <= cfg_.scheduler_window) {
    ++q.window_per_bank[p.bank];
    q.wake = std::min(q.wake, banks_[p.bank].ready_cycle);
  }
}

void DramChannel::update_wake(Queue& q) {
  q.wake = UINT64_MAX;
  for (size_t b = 0; b < banks_.size(); ++b)
    if (q.window_per_bank[b] != 0) q.wake = std::min(q.wake, banks_[b].ready_cycle);
}

bool DramChannel::try_issue(Queue& q, uint64_t cycle) {
  // Nothing in the window can issue until a bank it targets is ready; once
  // one is, the scan below is sure to find a candidate (pick < window).
  if (q.wake > cycle) return false;

  // FR-FCFS over the scheduler window in one pass: the oldest row hit on a
  // ready bank, else the oldest request whose bank is ready.
  const size_t window = std::min(q.pending.size(), cfg_.scheduler_window);
  size_t pick = window;
  for (size_t i = 0; i < window; ++i) {
    const Pending& p = q.pending[i];
    const Bank& bank = banks_[p.bank];
    if (bank.ready_cycle > cycle) continue;
    if (bank.row_open && bank.open_row == p.row) {
      pick = i;
      break;
    }
    if (pick == window) pick = i;
  }
  const Pending p = q.pending[pick];
  // Dequeue; the oldest request beyond the window (if any) slides into it.
  --q.window_per_bank[p.bank];
  q.pending.erase(q.pending.begin() + static_cast<std::ptrdiff_t>(pick));
  if (q.pending.size() >= cfg_.scheduler_window)
    ++q.window_per_bank[q.pending[cfg_.scheduler_window - 1].bank];

  Bank& bank = banks_[p.bank];

  uint64_t cmd_done = cycle;
  if (bank.row_open && bank.open_row == p.row) {
    // Row hit: the column command issues immediately; hits stream at bus
    // rate (tCCD is hidden inside the transfer time).
    ++stats_.row_hits;
  } else {
    if (bank.row_open) {
      // Row conflict: precharge may not start before tRAS has elapsed since
      // the activate, then tRP + tRCD for the new row.
      const uint64_t pre_start = std::max(cycle, bank.act_cycle + cfg_.t_ras);
      cmd_done = pre_start + cfg_.t_rp + cfg_.t_rcd;
      bank.act_cycle = pre_start + cfg_.t_rp;
    } else {
      cmd_done = cycle + cfg_.t_rcd;
      bank.act_cycle = cycle;
    }
    bank.row_open = true;
    bank.open_row = p.row;
    ++stats_.row_misses;
  }
  const uint64_t data_ready = cmd_done + cfg_.t_cl;

  // Bus occupancy in beats (16 B each).
  const uint64_t beats =
      std::max<uint64_t>(1, static_cast<uint64_t>(p.bursts) * (cfg_.mag_bytes / 16));
  const uint64_t xfer_cycles = (beats + cfg_.beats_per_cycle - 1) / cfg_.beats_per_cycle;
  const uint64_t start = std::max(data_ready, bus_free_cycle_);
  const uint64_t finish = start + xfer_cycles;
  bus_free_cycle_ = finish;
  // The bank is busy until its data phase ends.
  bank.ready_cycle = finish;

  if (p.metadata) {
    stats_.metadata_bursts += p.bursts;
  } else if (p.write) {
    stats_.dram_write_bursts += p.bursts;
  } else {
    stats_.dram_read_bursts += p.bursts;
  }

  completions_.push_back(DramCompletion{p.tag, p.write, p.metadata, finish});
  // The window and this bank's ready cycle changed.
  update_wake(reads_);
  update_wake(writes_);
  return true;
}

void DramChannel::tick(uint64_t cycle) {
  // Reads have priority; writes drain when no read can issue or the write
  // queue is past the watermark.
  bool issued = try_issue(reads_, cycle);
  if (!issued || writes_.pending.size() > cfg_.write_drain_watermark) {
    try_issue(writes_, cycle);
  }
}

uint64_t DramChannel::next_event_cycle(uint64_t now) const {
  if (reads_.pending.empty() && writes_.pending.empty()) return UINT64_MAX;
  // Earliest cycle at which try_issue could schedule something: the first
  // ready cycle among the banks *targeted* by queued requests (within the
  // FR-FCFS window — banks no queued request addresses cannot unblock the
  // channel, and an idle bank's ready_cycle of 0 must not pin the skip to
  // now + 1). The bus-free cycle bounds the skip too: a transfer ending
  // frees the pins even when every targeted bank is busy longer.
  uint64_t nxt = std::min(reads_.wake, writes_.wake);
  if (nxt != UINT64_MAX) nxt = std::max(nxt, now + 1);
  if (bus_free_cycle_ > now) nxt = std::min(nxt, bus_free_cycle_);
  return nxt;
}

}  // namespace slc
