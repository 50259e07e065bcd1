// Reference GDDR5 channel: the scan-based FR-FCFS scheduler that
// sim/dram.cpp's DramChannel replaced. Every scheduling step decodes each
// request in the window from its address and scans the window again, so it
// is slow but obviously faithful to the policy: reads first, writes when no
// read issued or the write queue is past the drain watermark; within a
// queue the oldest row hit on a ready bank, else the oldest request whose
// bank is ready, among the oldest `scheduler_window` requests. The
// differential test in test_dram.cpp drives it beside DramChannel.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/dram.h"

namespace slc::test {

class RefDramChannel {
 public:
  RefDramChannel(const GpuSimConfig& cfg, SimStats& stats) : cfg_(cfg), stats_(stats) {
    banks_.assign(cfg_.banks_per_mc, Bank{});
  }

  void push_read(const DramRequest& r) { reads_.push_back(r); }
  void push_write(const DramRequest& r) { writes_.push_back(r); }

  void tick(uint64_t cycle) {
    bool issued = try_issue(reads_, cycle);
    if (!issued || writes_.size() > cfg_.write_drain_watermark) try_issue(writes_, cycle);
  }

  std::deque<DramCompletion>& completions() { return completions_; }

  uint64_t next_event_cycle(uint64_t now) const {
    if (reads_.empty() && writes_.empty()) return UINT64_MAX;
    const uint64_t floor_cycle = now + 1;
    uint64_t nxt = UINT64_MAX;
    auto consider_queue = [&](const std::deque<DramRequest>& q) {
      size_t scanned = 0;
      for (auto it = q.begin(); it != q.end() && scanned < cfg_.scheduler_window;
           ++it, ++scanned) {
        size_t b;
        uint64_t row;
        locate(it->addr, &b, &row);
        nxt = std::min(nxt, std::max(banks_[b].ready_cycle, floor_cycle));
      }
    };
    consider_queue(reads_);
    consider_queue(writes_);
    if (bus_free_cycle_ > now) nxt = std::min(nxt, bus_free_cycle_);
    return nxt;
  }

 private:
  struct Bank {
    bool row_open = false;
    uint64_t open_row = 0;
    uint64_t ready_cycle = 0;
    uint64_t act_cycle = 0;
  };

  const GpuSimConfig& cfg_;
  SimStats& stats_;
  std::vector<Bank> banks_;
  uint64_t bus_free_cycle_ = 0;
  std::deque<DramRequest> reads_;
  std::deque<DramRequest> writes_;
  std::deque<DramCompletion> completions_;

  void locate(uint64_t addr, size_t* bank, uint64_t* row) const {
    const uint64_t chunk = addr / cfg_.row_bytes;
    *bank = chunk % cfg_.banks_per_mc;
    *row = chunk / cfg_.banks_per_mc;
  }

  bool try_issue(std::deque<DramRequest>& q, uint64_t cycle) {
    if (q.empty()) return false;
    auto pick = [&](bool require_hit) -> std::deque<DramRequest>::iterator {
      size_t scanned = 0;
      for (auto it = q.begin(); it != q.end() && scanned < cfg_.scheduler_window;
           ++it, ++scanned) {
        size_t b;
        uint64_t row;
        locate(it->addr, &b, &row);
        const Bank& bank = banks_[b];
        if (bank.ready_cycle > cycle) continue;
        if (require_hit && !(bank.row_open && bank.open_row == row)) continue;
        return it;
      }
      return q.end();
    };
    auto it = pick(true);
    if (it == q.end()) it = pick(false);
    if (it == q.end()) return false;

    size_t b;
    uint64_t row;
    locate(it->addr, &b, &row);
    Bank& bank = banks_[b];

    uint64_t cmd_done = cycle;
    if (bank.row_open && bank.open_row == row) {
      ++stats_.row_hits;
    } else {
      if (bank.row_open) {
        const uint64_t pre_start = std::max(cycle, bank.act_cycle + cfg_.t_ras);
        cmd_done = pre_start + cfg_.t_rp + cfg_.t_rcd;
        bank.act_cycle = pre_start + cfg_.t_rp;
      } else {
        cmd_done = cycle + cfg_.t_rcd;
        bank.act_cycle = cycle;
      }
      bank.row_open = true;
      bank.open_row = row;
      ++stats_.row_misses;
    }
    const uint64_t data_ready = cmd_done + cfg_.t_cl;

    const uint64_t beats =
        std::max<uint64_t>(1, static_cast<uint64_t>(it->bursts) * (cfg_.mag_bytes / 16));
    const uint64_t xfer_cycles = (beats + cfg_.beats_per_cycle - 1) / cfg_.beats_per_cycle;
    const uint64_t start = std::max(data_ready, bus_free_cycle_);
    const uint64_t finish = start + xfer_cycles;
    bus_free_cycle_ = finish;
    bank.ready_cycle = finish;

    if (it->metadata) {
      stats_.metadata_bursts += it->bursts;
    } else if (it->write) {
      stats_.dram_write_bursts += it->bursts;
    } else {
      stats_.dram_read_bursts += it->bursts;
    }

    completions_.push_back(DramCompletion{it->tag, it->write, it->metadata, finish});
    q.erase(it);
    return true;
  }
};

}  // namespace slc::test
