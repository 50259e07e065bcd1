#include "core/slc_header.h"

#include <cassert>
#include <stdexcept>

#include "compress/batch_writer.h"
#include "compress/e2mc.h"
#include "core/tree_selector.h"

namespace slc {

namespace {
unsigned ss_bits(size_t num_symbols) {
  unsigned n = 0;
  while ((size_t{1} << n) < num_symbols) ++n;
  return n;  // 6 for 64 symbols
}
constexpr unsigned kLenBits = 4;  // up to 16 approximated symbols (count-1)
}  // namespace

size_t SlcHeader::bits(size_t block_bytes, unsigned num_ways, size_t num_symbols) {
  return 1 + ss_bits(num_symbols) + kLenBits +
         (num_ways - 1) * E2mcCompressor::pdp_bits(block_bytes);
}

void SlcHeader::write(detail::SpanBitWriter& w, size_t block_bytes, unsigned num_ways,
                      size_t num_symbols) const {
  w.put_bit(lossy);
  w.put(start_symbol, ss_bits(num_symbols));
  assert(approx_count <= kMaxApproxSymbols);
  // len is stored as count-1 (1..16 -> 0..15); lossless blocks store 0.
  const unsigned len_field = approx_count == 0 ? 0 : approx_count - 1u;
  w.put(len_field, kLenBits);
  E2mcCompressor::write_pdps(w, block_bytes, num_ways, way_offsets);
}

SlcHeader SlcHeader::read(BitReader& r, size_t block_bytes, unsigned num_ways,
                          size_t num_symbols) {
  SlcHeader h;
  h.lossy = r.get_bit();
  h.start_symbol = static_cast<uint32_t>(r.get(ss_bits(num_symbols)));
  const auto len_field = static_cast<uint8_t>(r.get(kLenBits));
  h.approx_count = h.lossy ? static_cast<uint8_t>(len_field + 1) : 0;
  E2mcCompressor::read_pdps(r, block_bytes, num_ways, h.way_offsets);
  if (h.lossy && h.start_symbol + size_t{h.approx_count} > num_symbols)
    throw std::invalid_argument("SlcHeader: the lossy window [ss, ss + len) leaves the block");
  return h;
}

}  // namespace slc
