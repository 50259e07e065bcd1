// GDDR5 channel model: banks with open-row policy, FR-FCFS scheduling
// (row hits first, then oldest), and a data bus tracked in 16 B beats so any
// MAG (16/32/64 B) occupies the pins for exactly its transfer share.
//
// A burst of MAG bytes takes mag/16 beats; the bus moves `beats_per_cycle`
// (2 by default -> 32 B per memory cycle per channel, Table II's 192.4 GB/s
// across six channels).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/sim_config.h"

namespace slc {

/// One pending DRAM command (a whole compressed-block fetch/write of
/// `bursts` consecutive MAG bursts, plus metadata fills of one burst).
struct DramRequest {
  uint64_t addr = 0;
  uint32_t bursts = 1;
  bool write = false;
  bool metadata = false;
  uint64_t enqueue_cycle = 0;
  uint64_t tag = 0;  ///< caller cookie to match completions
};

struct DramCompletion {
  uint64_t tag = 0;
  bool write = false;
  bool metadata = false;
  uint64_t finish_cycle = 0;
};

class DramChannel {
 public:
  DramChannel(const GpuSimConfig& cfg, SimStats& stats);

  void push_read(const DramRequest& r) { push(reads_, r); }
  void push_write(const DramRequest& r) { push(writes_, r); }

  /// Schedules at `cycle`: issues at most one read, plus one write when no
  /// read issued or the write queue is past the drain watermark. Issued
  /// requests appear in completions() with the cycle their data phase ends.
  void tick(uint64_t cycle);

  bool busy() const {
    return !reads_.pending.empty() || !writes_.pending.empty() || !completions_.empty();
  }
  size_t read_queue_depth() const { return reads_.pending.size(); }
  size_t write_queue_depth() const { return writes_.pending.size(); }

  std::deque<DramCompletion>& completions() { return completions_; }
  const std::deque<DramCompletion>& completions() const { return completions_; }

  /// Next cycle at which this channel can possibly make progress (for the
  /// simulator's idle fast-forward).
  uint64_t next_event_cycle(uint64_t now) const;

 private:
  struct Bank {
    bool row_open = false;
    uint64_t open_row = 0;
    uint64_t ready_cycle = 0;  ///< earliest next column command
    uint64_t act_cycle = 0;    ///< when the open row was activated (tRAS)
  };

  /// A queued request with its bank and row decoded once, at push.
  struct Pending {
    uint64_t row = 0;
    uint64_t tag = 0;
    uint32_t bank = 0;
    uint32_t bursts = 1;
    bool write = false;
    bool metadata = false;
  };

  /// One request queue, oldest first. Its FR-FCFS window is the oldest
  /// `scheduler_window` entries: window_per_bank[b] counts the window's
  /// entries on bank b, and `wake` is the earliest ready_cycle among the
  /// banks with a nonzero count (UINT64_MAX for an empty window), so "can
  /// anything in the window issue?" is one compare instead of a scan. A push
  /// can only lower `wake`; an issue changes the window and a bank's ready
  /// cycle, so it recomputes both queues' `wake` from the counts.
  struct Queue {
    std::deque<Pending> pending;
    std::vector<uint32_t> window_per_bank;
    uint64_t wake = UINT64_MAX;
  };

  const GpuSimConfig& cfg_;
  SimStats& stats_;
  std::vector<Bank> banks_;
  uint64_t bus_free_cycle_ = 0;
  Queue reads_;
  Queue writes_;
  std::deque<DramCompletion> completions_;

  void push(Queue& q, const DramRequest& r);
  void update_wake(Queue& q);
  /// Issues one request if a bank + the bus can take it; returns true if
  /// something was scheduled.
  bool try_issue(Queue& q, uint64_t cycle);
};

}  // namespace slc
