#include "sim/cache.h"

#include <algorithm>
#include <stdexcept>

namespace slc {

size_t Cache::sets_for(size_t total_bytes, unsigned ways, size_t line_bytes) {
  if (line_bytes < 2 || (line_bytes & (line_bytes - 1)) != 0)
    throw std::invalid_argument("Cache: line_bytes must be a power of two of at least 2");
  if (ways == 0) throw std::invalid_argument("Cache: ways must be nonzero");
  const size_t sets = total_bytes / line_bytes / ways;
  if (sets == 0) throw std::invalid_argument("Cache: capacity smaller than one set");
  return sets;
}

Cache::Cache(size_t total_bytes, unsigned ways, size_t line_bytes)
    : sets_(sets_for(total_bytes, ways, line_bytes)), ways_(ways), line_shift_(0) {
  for (size_t v = line_bytes; v > 1; v >>= 1) ++line_shift_;
  sets_pow2_ = (sets_ & (sets_ - 1)) == 0;
  tags_.assign(sets_ * ways_, kEmpty);
  lru_.assign(sets_ * ways_, 0);
  bursts_.assign(sets_ * ways_, 0);
  dirty_.assign(sets_ * ways_, 0);
}

size_t Cache::find(uint64_t tag) const {
  const size_t base = set_base(tag);
  for (size_t i = base; i < base + ways_; ++i)
    if (tags_[i] == tag) return i;
  return SIZE_MAX;
}

bool Cache::lookup(uint64_t addr) {
  const size_t i = find(tag_of(addr));
  if (i == SIZE_MAX) return false;
  lru_[i] = ++tick_;
  return true;
}

std::optional<Cache::Eviction> Cache::fill(uint64_t addr, bool dirty, uint32_t bursts) {
  const uint64_t tag = tag_of(addr);
  const size_t base = set_base(tag);
  // One pass finds a resident copy or the victim. Empty ways have age 0 and
  // filled ways distinct nonzero ages, so the first way of least age is the
  // first empty way, or else the least recently used one.
  size_t victim = base;
  uint64_t victim_age = lru_[base];
  for (size_t i = base; i < base + ways_; ++i) {
    if (tags_[i] == tag) {
      // Refill of a resident line (e.g. racing fills): just refresh state.
      dirty_[i] = dirty_[i] || dirty;
      bursts_[i] = bursts;
      lru_[i] = ++tick_;
      return std::nullopt;
    }
    // Select without a branch: which way is older is data, not a pattern.
    const uint64_t age = lru_[i];
    const bool older = age < victim_age;
    victim = older ? i : victim;
    victim_age = older ? age : victim_age;
  }
  std::optional<Eviction> evicted;
  if (tags_[victim] != kEmpty && dirty_[victim]) {
    evicted = Eviction{tags_[victim] << line_shift_, bursts_[victim]};
  }
  tags_[victim] = tag;
  dirty_[victim] = dirty;
  bursts_[victim] = bursts;
  lru_[victim] = ++tick_;
  return evicted;
}

bool Cache::write_hit(uint64_t addr, uint32_t bursts) {
  const size_t i = find(tag_of(addr));
  if (i == SIZE_MAX) return false;
  dirty_[i] = 1;
  bursts_[i] = bursts;
  lru_[i] = ++tick_;
  return true;
}

void Cache::clear() {
  std::fill(tags_.begin(), tags_.end(), kEmpty);
  std::fill(lru_.begin(), lru_.end(), 0);
  std::fill(bursts_.begin(), bursts_.end(), 0);
  std::fill(dirty_.begin(), dirty_.end(), 0);
}

}  // namespace slc
