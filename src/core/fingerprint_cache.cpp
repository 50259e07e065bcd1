#include "core/fingerprint_cache.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <cstring>

namespace slc {

namespace {

constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

// Way::flags bits.
constexpr uint8_t kValid = 1;
constexpr uint8_t kLossy = 2;
constexpr uint8_t kStoredUncompressed = 4;

uint64_t load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

uint32_t load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint64_t round64(uint64_t acc, uint64_t input) {
  acc += input * kPrime2;
  acc = std::rotl(acc, 31);
  return acc * kPrime1;
}

uint64_t merge_round(uint64_t acc, uint64_t val) {
  acc ^= round64(0, val);
  return acc * kPrime1 + kPrime4;
}

uint64_t avalanche(uint64_t h) {
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace

uint64_t block_fingerprint(std::span<const uint8_t> bytes) {
  const uint8_t* p = bytes.data();
  const uint8_t* const end = p + bytes.size();
  uint64_t h;

  if (bytes.size() >= 32) {
    // Four independent multiply/rotate lanes over 32 B stripes — for the
    // 128 B block this is four full rounds per lane with no cross-lane
    // dependency, so the multiplies pipeline.
    uint64_t v1 = kPrime1 + kPrime2;
    uint64_t v2 = kPrime2;
    uint64_t v3 = 0;
    uint64_t v4 = 0 - kPrime1;
    do {
      v1 = round64(v1, load64(p));
      v2 = round64(v2, load64(p + 8));
      v3 = round64(v3, load64(p + 16));
      v4 = round64(v4, load64(p + 24));
      p += 32;
    } while (p + 32 <= end);
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
    h = merge_round(h, v1);
    h = merge_round(h, v2);
    h = merge_round(h, v3);
    h = merge_round(h, v4);
  } else {
    h = kPrime5;
  }
  h += static_cast<uint64_t>(bytes.size());

  while (p + 8 <= end) {
    h ^= round64(0, load64(p));
    h = std::rotl(h, 27) * kPrime1 + kPrime4;
    p += 8;
  }
  if (p + 4 <= end) {
    h ^= static_cast<uint64_t>(load32(p)) * kPrime1;
    h = std::rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  while (p < end) {
    h ^= static_cast<uint64_t>(*p) * kPrime5;
    h = std::rotl(h, 11) * kPrime1;
    ++p;
  }
  return avalanche(h);
}

FingerprintCache::FingerprintCache(Config cfg) : cfg_(cfg) {
  num_sets_ = std::bit_ceil(std::max<size_t>(1, (cfg_.capacity + kWays - 1) / kWays));
  num_stripes_ = std::min(kMaxStripes, num_sets_);
  stripe_shift_ = static_cast<unsigned>(std::countr_zero(num_sets_ / num_stripes_));
  sets_ = std::make_unique<Set[]>(num_sets_);  // value-initialized: every way empty
  stripes_ = std::make_unique<Stripe[]>(num_stripes_);
  // Slots are written before they are read (a way's content_bytes says how
  // much of its slot is live), so the arena needs no zero fill.
  if (cfg_.verify_on_hit)
    arena_ = std::make_unique_for_overwrite<uint8_t[]>(capacity() * kSlotBytes);
}

size_t FingerprintCache::set_index(uint64_t codec_key, uint64_t fp) const {
  // fp is already avalanched; folding the codec key through one more mix
  // keeps per-codec streams from sharing set patterns.
  return static_cast<size_t>(avalanche(fp ^ (codec_key * kPrime2))) & (num_sets_ - 1);
}

void FingerprintCache::prefetch(size_t set) const {
  // Both cache lines of the set, for writing: a hit or insert may update ages.
  const char* p = reinterpret_cast<const char*>(&sets_[set]);
  __builtin_prefetch(p, /*rw=*/1, /*locality=*/3);
  __builtin_prefetch(p + 64, 1, 3);
}

bool FingerprintCache::pack(uint64_t codec_key, uint64_t fp, const SlcCodec::Decision& d,
                            std::span<const uint8_t> block, Way& w) const {
  const SlcEncodeInfo& i = d.info;
  constexpr size_t k16 = UINT16_MAX, k8 = UINT8_MAX;
  if (i.lossless_bits > k16 || i.final_bits > k16 || i.truncated_bits > k16 ||
      i.extra_bits > k16 || i.bursts > k8 || i.truncated_symbols > k8 || d.skip_start > k8 ||
      d.skip_count > k8 || (cfg_.verify_on_hit && block.size() > kSlotBytes))
    return false;
  w.codec_key = codec_key;
  w.fp = fp;
  if (cfg_.verify_on_hit) w.content_bytes = static_cast<uint16_t>(block.size());
  w.lossless_bits = static_cast<uint16_t>(i.lossless_bits);
  w.final_bits = static_cast<uint16_t>(i.final_bits);
  w.truncated_bits = static_cast<uint16_t>(i.truncated_bits);
  w.extra_bits = static_cast<uint16_t>(i.extra_bits);
  w.bursts = static_cast<uint8_t>(i.bursts);
  w.truncated_symbols = static_cast<uint8_t>(i.truncated_symbols);
  w.skip_start = static_cast<uint8_t>(d.skip_start);
  w.skip_count = static_cast<uint8_t>(d.skip_count);
  w.flags = static_cast<uint8_t>(kValid | (i.lossy ? kLossy : 0) |
                                 (i.stored_uncompressed ? kStoredUncompressed : 0));
  return true;
}

SlcCodec::Decision FingerprintCache::unpack(const Way& w) {
  SlcCodec::Decision d;
  d.info.lossy = (w.flags & kLossy) != 0;
  d.info.stored_uncompressed = (w.flags & kStoredUncompressed) != 0;
  d.info.lossless_bits = w.lossless_bits;
  d.info.final_bits = w.final_bits;
  d.info.bursts = w.bursts;
  d.info.truncated_symbols = w.truncated_symbols;
  d.info.truncated_bits = w.truncated_bits;
  d.info.extra_bits = w.extra_bits;
  d.skip_start = w.skip_start;
  d.skip_count = w.skip_count;
  return d;
}

size_t FingerprintCache::find(const Set& set, uint64_t codec_key, uint64_t fp) {
  for (size_t w = 0; w < kWays; ++w) {
    const Way& way = set.ways[w];
    if ((way.flags & kValid) != 0 && way.fp == fp && way.codec_key == codec_key) return w;
  }
  return kWays;
}

void FingerprintCache::promote(Set& set, size_t w, unsigned rank) {
  // The valid ways' ages are always a permutation of 0..valid-1, so the
  // least recent way of a full set is the one aged kWays-1.
  for (size_t v = 0; v < kWays; ++v) {
    Way& way = set.ways[v];
    if (v != w && (way.flags & kValid) != 0 && way.age < rank) ++way.age;
  }
  set.ways[w].age = 0;
}

FingerprintCache::Lookup FingerprintCache::lookup_locked(Stripe& st, size_t s,
                                                         uint64_t codec_key, uint64_t fp,
                                                         std::span<const uint8_t> block,
                                                         SlcCodec::Decision& out) {
  Set& set = sets_[s];
  const size_t w = find(set, codec_key, fp);
  if (w == kWays) {
    ++st.counters.misses;
    return Lookup::kMiss;
  }
  const Way& way = set.ways[w];
  if (cfg_.verify_on_hit &&
      (way.content_bytes != block.size() ||
       !std::equal(block.begin(), block.end(), slot(s, w)))) {
    ++st.counters.misses;
    ++st.counters.collisions;
    return Lookup::kCollision;
  }
  // Already the most recent way: promoting would only store its age of 0
  // again and dirty a line other workers read.
  if (way.age != 0) promote(set, w, way.age);
  out = unpack(way);
  ++st.counters.hits;
  return Lookup::kHit;
}

bool FingerprintCache::insert_locked(Stripe& st, size_t s, const Way& packed,
                                     std::span<const uint8_t> block) {
  Set& set = sets_[s];
  // A concurrent worker inserted the same content first, or a collision
  // under verify-on-hit re-decided the key: refresh that way in place (last
  // writer wins, no eviction). Otherwise take an empty way, or replace the
  // least recent one.
  size_t w = find(set, packed.codec_key, packed.fp);
  bool evicted = false;
  if (w == kWays) {
    w = 0;
    for (size_t v = 0; v < kWays; ++v) {
      const Way& way = set.ways[v];
      if ((way.flags & kValid) == 0) {
        w = v;
        break;
      }
      if (way.age > set.ways[w].age) w = v;
    }
    evicted = (set.ways[w].flags & kValid) != 0;
    if (evicted) ++st.counters.evictions;
  }
  const unsigned rank =
      (set.ways[w].flags & kValid) != 0 ? set.ways[w].age : static_cast<unsigned>(kWays);
  set.ways[w] = packed;
  promote(set, w, rank);
  if (cfg_.verify_on_hit) std::copy(block.begin(), block.end(), slot(s, w));
  return evicted;
}

void FingerprintCache::lookup_batch(uint64_t codec_key, std::span<const Key> keys,
                                    std::span<const BlockView> blocks, SlcCodec::Decision* out,
                                    Lookup* result) {
  assert(keys.size() <= kMaxBatch);
  std::array<uint64_t, kMaxStripes> members{};  // bit i: key i lives in this stripe
  for (size_t i = 0; i < keys.size(); ++i) {
    assert(keys[i].set == set_index(codec_key, keys[i].fp));
    members[keys[i].set >> stripe_shift_] |= uint64_t{1} << i;
  }
  for (size_t t = 0; t < num_stripes_; ++t) {
    if (members[t] == 0) continue;
    Stripe& st = stripes_[t];
    MutexLock lk(st.m);
    for (uint64_t m = members[t]; m != 0; m &= m - 1) {
      const size_t i = static_cast<size_t>(std::countr_zero(m));
      result[i] =
          lookup_locked(st, keys[i].set, codec_key, keys[i].fp, blocks[i].bytes(), out[i]);
    }
  }
}

void FingerprintCache::insert_batch(uint64_t codec_key, std::span<const Key> keys,
                                    std::span<const BlockView> blocks,
                                    const SlcCodec::Decision* ds, bool* evicted) {
  assert(keys.size() <= kMaxBatch);
  std::array<Way, kMaxBatch> packed{};
  std::array<uint64_t, kMaxStripes> members{};  // bit i: key i fits and lives here
  for (size_t i = 0; i < keys.size(); ++i) {
    assert(keys[i].set == set_index(codec_key, keys[i].fp));
    evicted[i] = false;
    if (!pack(codec_key, keys[i].fp, ds[i], blocks[i].bytes(), packed[i])) continue;
    members[keys[i].set >> stripe_shift_] |= uint64_t{1} << i;
  }
  for (size_t t = 0; t < num_stripes_; ++t) {
    if (members[t] == 0) continue;
    Stripe& st = stripes_[t];
    MutexLock lk(st.m);
    for (uint64_t m = members[t]; m != 0; m &= m - 1) {
      const size_t i = static_cast<size_t>(std::countr_zero(m));
      evicted[i] = insert_locked(st, keys[i].set, packed[i], blocks[i].bytes());
    }
  }
}

size_t FingerprintCache::size() const {
  const size_t per_stripe = size_t{1} << stripe_shift_;
  size_t n = 0;
  for (size_t s = 0; s < num_sets_; s += per_stripe) {
    MutexLock lk(stripe_for(s).m);
    for (size_t t = s; t < s + per_stripe; ++t)
      for (const Way& way : sets_[t].ways) n += (way.flags & kValid) != 0 ? 1 : 0;
  }
  return n;
}

CacheCounters FingerprintCache::counters() const {
  CacheCounters total;
  const size_t per_stripe = size_t{1} << stripe_shift_;
  for (size_t s = 0; s < num_sets_; s += per_stripe) {
    Stripe& st = stripe_for(s);
    MutexLock lk(st.m);
    total.merge(st.counters);
  }
  return total;
}

void FingerprintCache::clear() {
  const size_t per_stripe = size_t{1} << stripe_shift_;
  for (size_t s = 0; s < num_sets_; s += per_stripe) {
    MutexLock lk(stripe_for(s).m);
    std::fill_n(&sets_[s], per_stripe, Set{});
  }
  epoch_.fetch_add(1, std::memory_order_relaxed);
}

bool FingerprintCache::runtime_enabled() {
  static const bool enabled = [] {
    // Read once at startup under a static initializer, never written:
    // getenv's thread-unsafety cannot bite. NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char* e = std::getenv("SLC_FINGERPRINT_CACHE");
    if (e == nullptr || *e == '\0') return true;
    return std::strcmp(e, "0") != 0 && std::strcmp(e, "off") != 0 &&
           std::strcmp(e, "OFF") != 0;
  }();
  return enabled;
}

}  // namespace slc
