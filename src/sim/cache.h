// Set-associative cache model with LRU replacement, used for the per-SM L1
// (write-through, no write-allocate — GPU global stores bypass L1), the
// sliced L2 (write-back, write-allocate; full-line streaming stores allocate
// without a fill fetch), and the memory controller's metadata cache.
//
// The model is timing-free: it answers hit/miss and eviction questions; the
// caller owns all latency accounting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace slc {

class Cache {
 public:
  /// Throws std::invalid_argument unless `line_bytes` is a power of two of
  /// at least 2 B, `ways` is nonzero and `total_bytes` holds at least one
  /// full set (see sets_for()).
  Cache(size_t total_bytes, unsigned ways, size_t line_bytes);

  /// Number of sets in a cache of this geometry; throws std::invalid_argument
  /// for a geometry the constructor would reject.
  static size_t sets_for(size_t total_bytes, unsigned ways, size_t line_bytes);

  /// Read lookup; updates LRU on hit.
  bool lookup(uint64_t addr);

  /// Evicted dirty line (address + bursts), if any.
  struct Eviction {
    uint64_t addr = 0;
    uint32_t bursts = 0;
  };

  /// Fills a line (read response or store allocate). Returns the dirty line
  /// it displaced, if any. The victim is the first empty way of the set, or
  /// else its least recently used way.
  std::optional<Eviction> fill(uint64_t addr, bool dirty, uint32_t bursts);

  /// Store hit path: marks the line dirty and refreshes its burst count.
  /// Returns false on miss (caller then decides to allocate or bypass).
  bool write_hit(uint64_t addr, uint32_t bursts);

  /// Invalidates everything (kernel boundary flushes for L1).
  void clear();

 private:
  /// Tag of an empty way. A line tag is an address shifted right by at
  /// least one bit, so it never reaches this value.
  static constexpr uint64_t kEmpty = UINT64_MAX;

  size_t sets_;
  unsigned ways_;
  unsigned line_shift_;
  bool sets_pow2_;
  // One entry per way, set-major (sets_ x ways_). An empty way has tag
  // kEmpty and age 0; a filled way's age is the tick of its last use, so
  // ages of filled ways are distinct and nonzero.
  std::vector<uint64_t> tags_;
  std::vector<uint64_t> lru_;
  std::vector<uint32_t> bursts_;
  std::vector<uint8_t> dirty_;
  uint64_t tick_ = 0;

  uint64_t tag_of(uint64_t addr) const { return addr >> line_shift_; }
  /// Index of the set's first way.
  size_t set_base(uint64_t tag) const {
    return (sets_pow2_ ? (tag & (sets_ - 1)) : (tag % sets_)) * ways_;
  }
  /// Index of the way holding `tag`, or SIZE_MAX.
  size_t find(uint64_t tag) const;
};

}  // namespace slc
