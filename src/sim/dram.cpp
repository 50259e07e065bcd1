#include "sim/dram.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace slc {

DramChannel::DramChannel(const GpuSimConfig& cfg, SimStats& stats) : cfg_(cfg), stats_(stats) {
  banks_.assign(cfg_.banks_per_mc, Bank{});
  reads_.banks.assign(cfg_.banks_per_mc, BankList{});
  writes_.banks.assign(cfg_.banks_per_mc, BankList{});
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
  p.seq = q.next_seq++;
  p.bursts = r.bursts;
  p.write = r.write;
  p.metadata = r.metadata;
  if (q.in_window < cfg_.scheduler_window) {
    enter_window(q, p);
    q.wake = std::min(q.wake, banks_[p.bank].ready_cycle);
  } else {
    q.overflow.push_back(p);
  }
}

void DramChannel::enter_window(Queue& q, const Pending& p) {
  // Slots are recycled; the pool only grows while the window is deeper than
  // it has ever been, so a large scheduler_window costs nothing up front.
  uint32_t s;
  if (q.free_slots.empty()) {
    s = static_cast<uint32_t>(q.slots.size());
    q.slots.emplace_back();
  } else {
    s = q.free_slots.back();
    q.free_slots.pop_back();
  }
  BankList& bl = q.banks[p.bank];
  q.slots[s] = Slot{p, bl.tail, kNil};
  if (bl.tail == kNil) {
    bl.head = s;
    bl.active_pos = static_cast<uint32_t>(q.active.size());
    q.active.push_back(p.bank);
  } else {
    q.slots[bl.tail].next = s;
  }
  bl.tail = s;
  ++q.in_window;
}

void DramChannel::leave_window(Queue& q, uint32_t s) {
  const Slot& slot = q.slots[s];
  BankList& bl = q.banks[slot.p.bank];
  if (slot.prev == kNil) {
    bl.head = slot.next;
  } else {
    q.slots[slot.prev].next = slot.next;
  }
  if (slot.next == kNil) {
    bl.tail = slot.prev;
  } else {
    q.slots[slot.next].prev = slot.prev;
  }
  if (bl.head == kNil) {
    // Swap-remove the bank from the active list.
    const uint32_t last = q.active.back();
    q.active[bl.active_pos] = last;
    q.banks[last].active_pos = bl.active_pos;
    q.active.pop_back();
    bl.active_pos = kNil;
  }
  q.free_slots.push_back(s);
  --q.in_window;
}

void DramChannel::update_wake(Queue& q) {
  q.wake = UINT64_MAX;
  for (const uint32_t b : q.active) q.wake = std::min(q.wake, banks_[b].ready_cycle);
}

bool DramChannel::try_issue(Queue& q, uint64_t cycle) {
  // Nothing in the window can issue until a bank it targets is ready; once
  // one is, that bank's head is a candidate.
  if (q.wake > cycle) return false;

  // FR-FCFS over the window: the oldest row hit on a ready bank, else the
  // oldest request whose bank is ready. A bank's oldest request is its list
  // head and its oldest row hit the first list entry on the open row, so
  // only those two per ready bank compete, by arrival sequence.
  uint32_t hit = kNil, head = kNil;
  uint64_t hit_seq = UINT64_MAX, head_seq = UINT64_MAX;
  for (const uint32_t b : q.active) {
    const Bank& bank = banks_[b];
    if (bank.ready_cycle > cycle) continue;
    const uint32_t h = q.banks[b].head;
    const uint64_t seq = q.slots[h].p.seq;
    const bool older = seq < head_seq;
    head = older ? h : head;
    head_seq = older ? seq : head_seq;
    if (!bank.row_open) continue;
    for (uint32_t s = h; s != kNil && q.slots[s].p.seq < hit_seq; s = q.slots[s].next) {
      if (q.slots[s].p.row == bank.open_row) {
        hit = s;
        hit_seq = q.slots[s].p.seq;
        break;
      }
    }
  }
  const uint32_t pick = hit != kNil ? hit : head;
  const Pending p = q.slots[pick].p;
  leave_window(q, pick);
  // The oldest request beyond the window (if any) slides into it.
  if (!q.overflow.empty()) {
    enter_window(q, q.overflow.front());
    q.overflow.pop_front();
  }

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
  const uint64_t was_ready = bank.ready_cycle;
  bank.ready_cycle = finish;

  if (p.metadata) {
    stats_.metadata_bursts += p.bursts;
  } else if (p.write) {
    stats_.dram_write_bursts += p.bursts;
  } else {
    stats_.dram_read_bursts += p.bursts;
  }

  completions_.push_back(DramCompletion{p.tag, p.write, p.metadata, finish});
  // This queue's window changed. The bank's ready cycle only rose, so the
  // other queue's wake moves only if this bank is in its window and set it.
  update_wake(q);
  Queue& other = &q == &reads_ ? writes_ : reads_;
  if (other.banks[p.bank].head != kNil && other.wake == was_ready) update_wake(other);
  return true;
}

void DramChannel::tick(uint64_t cycle) {
  // Reads have priority; writes drain when no read can issue or the write
  // queue is past the watermark.
  bool issued = try_issue(reads_, cycle);
  if (!issued || writes_.size() > cfg_.write_drain_watermark) {
    try_issue(writes_, cycle);
  }
}

uint64_t DramChannel::next_event_cycle(uint64_t now) const {
  if (reads_.size() == 0 && writes_.size() == 0) return UINT64_MAX;
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
