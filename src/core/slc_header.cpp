#include "core/slc_header.h"

#include <cassert>
#include <stdexcept>

#include "compress/batch_writer.h"
#include "core/tree_selector.h"

namespace slc {

static_assert(size_t{1} << SlcHeader::kSsBits == kSymbolsPerBlock, "ss names any symbol");

void SlcHeader::write(detail::SpanBitWriter& w) const {
  w.put_bit(lossy);
  w.put(start_symbol, kSsBits);
  assert(approx_count <= kMaxApproxSymbols);
  // len is stored as count-1 (1..16 -> 0..15); lossless blocks store 0.
  const unsigned len_field = approx_count == 0 ? 0 : approx_count - 1u;
  w.put(len_field, kLenBits);
  E2mcCompressor::write_pdps(w, way_offsets);
}

SlcHeader SlcHeader::read(BitReader& r) {
  SlcHeader h;
  h.lossy = r.get_bit();
  h.start_symbol = static_cast<uint32_t>(r.get(kSsBits));
  const auto len_field = static_cast<uint8_t>(r.get(kLenBits));
  h.approx_count = h.lossy ? static_cast<uint8_t>(len_field + 1) : 0;
  E2mcCompressor::read_pdps(r, h.way_offsets);
  if (h.lossy && h.start_symbol + size_t{h.approx_count} > kSymbolsPerBlock)
    throw std::invalid_argument("SlcHeader: the lossy window [ss, ss + len) leaves the block");
  return h;
}

}  // namespace slc
