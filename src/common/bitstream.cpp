#include "common/bitstream.h"

#include <cassert>

namespace slc {

uint64_t BitReader::get(unsigned nbits) {
  const uint64_t v = peek(nbits);
  pos_ += nbits;
  return v;
}

uint64_t BitReader::peek(unsigned nbits) const {
  assert(nbits <= 64);
  uint64_t v = 0;
  for (unsigned i = 0; i < nbits; ++i) {
    const size_t p = pos_ + i;
    uint64_t bit = 0;
    if (p < bit_size()) {
      const size_t byte = p / 8;
      const unsigned shift = 7 - static_cast<unsigned>(p % 8);
      bit = (data_[byte] >> shift) & 1;
    }
    v = (v << 1) | bit;
  }
  return v;
}

}  // namespace slc
