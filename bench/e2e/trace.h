// Span and call-counter recording for slc_benchmark's --trace mode.
//
// Spans are recorded from the benchmark's own files around each call into a
// library layer (workloads, sim, server, metrics, ...), never from inside the
// library. A span names its layer as the prefix before the first '.', e.g.
// "sim.run". Spans nest per thread: a span's parent is the innermost span
// still open on the same thread, and a layer's self time is its spans'
// durations minus the part their children cover.
//
// Codec kernel calls are too frequent for one span each (a 32-block server
// batch runs as 16 engine shards), so the timed codec wrappers feed a
// CallCounter instead: per-thread call/block/busy totals, merged on read.
//
// Recording is off until set_enabled(true); a disabled Span costs one
// relaxed atomic load. Every thread appends only to its own buffer.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace slc::e2e::trace {

void set_enabled(bool on);

/// Steady-clock nanoseconds since the first call in this process.
int64_t now_ns();

struct Record {
  const char* name = "";  ///< "<layer>.<op>", a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;        ///< unique per span
  uint64_t parent = 0;    ///< 0 = root on its thread
  uint32_t tid = 0;       ///< benchmark-local thread index
  uint64_t request = 0;   ///< serving request id (0 = none)
};

/// RAII span over [construction, destruction) on the calling thread.
class Span {
 public:
  explicit Span(const char* name, uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  size_t slot_ = SIZE_MAX;  ///< index in the thread's buffer; SIZE_MAX = not recorded
};

/// Every span recorded so far, across threads, sorted by start time. Call
/// after the threads that record have finished their spans.
std::vector<Record> collect();

/// Layer ("sim", "workloads", ...) -> summed self time in seconds of the
/// spans that start inside [from_ns, to_ns).
std::map<std::string, double> self_seconds(const std::vector<Record>& spans, int64_t from_ns,
                                           int64_t to_ns);

/// Durations in seconds of the spans named `name` inside [from_ns, to_ns).
std::vector<double> durations(const std::vector<Record>& spans, const char* name,
                              int64_t from_ns, int64_t to_ns);

/// Writes spans in the Chrome trace-event format (chrome://tracing,
/// Perfetto). Returns false on an I/O error.
bool write_chrome_json(const std::string& path, const std::vector<Record>& spans);

/// Per-thread call, block and busy-time totals of one instrumented layer.
struct CallTotals {
  uint64_t calls = 0;
  uint64_t blocks = 0;
  int64_t busy_ns = 0;
};

class CallCounter {
 public:
  /// Adds one call over `blocks` blocks that took `busy_ns` on this thread.
  void add(uint64_t blocks, int64_t busy_ns);
  CallTotals totals() const;
  void reset();

 private:
  // One slot per thread index (modulo the array), each on its own cache
  // line; two threads sharing a slot stay correct through the atomics.
  struct alignas(64) Slot {
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> blocks{0};
    std::atomic<int64_t> busy_ns{0};
  };
  std::array<Slot, 64> slots_;
};

}  // namespace slc::e2e::trace
