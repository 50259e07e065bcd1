#include "compress/cpack.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bitstream.h"
#include "compress/batch_writer.h"
#include "compress/codec_registry.h"

namespace slc {

namespace {

// FIFO dictionary of fixed power-of-two capacity (at most 64 entries) in a
// ring buffer on the stack. Logical index 0 is the oldest entry, matching the
// hardware's shift-register organisation.
class RingDict {
 public:
  explicit RingDict(size_t cap) : mask_(cap - 1), cap_(cap) {}

  // Returns the index of a full match, or -1.
  int find_full(uint32_t w) const {
    for (size_t i = 0; i < size_; ++i)
      if (buf_[(start_ + i) & mask_] == w) return static_cast<int>(i);
    return -1;
  }
  // Returns the index whose upper `bytes` bytes match, or -1.
  int find_partial(uint32_t w, unsigned bytes) const {
    const uint32_t mask = bytes == 3 ? 0xFFFFFF00u : 0xFFFF0000u;
    const uint32_t key = w & mask;
    for (size_t i = 0; i < size_; ++i)
      if ((buf_[(start_ + i) & mask_] & mask) == key) return static_cast<int>(i);
    return -1;
  }
  uint32_t at(size_t i) const { return buf_[(start_ + i) & mask_]; }
  size_t size() const { return size_; }
  void push(uint32_t w) {
    if (size_ == cap_) {
      buf_[start_] = w;  // overwrite the oldest slot; it becomes the newest
      start_ = (start_ + 1) & mask_;
    } else {
      buf_[(start_ + size_) & mask_] = w;
      ++size_;
    }
  }

 private:
  std::array<uint32_t, 64> buf_{};
  size_t mask_;
  size_t cap_;
  size_t start_ = 0;
  size_t size_ = 0;
};

constexpr uint64_t prefix_value(CpackCode c) {
  switch (c) {
    case CpackCode::kZZZZ: return 0b00;
    case CpackCode::kXXXX: return 0b01;
    case CpackCode::kMMMM: return 0b10;
    case CpackCode::kMMXX: return 0b1100;
    case CpackCode::kZZZX: return 0b1101;
    case CpackCode::kMMMX: return 0b1110;
  }
  return 0;
}

// One word's C-PACK decision: its code and, for the dictionary codes, the
// matched entry's index.
struct WordCode {
  CpackCode code;
  uint8_t idx;
};

// The dictionary walk of one block: decides every word in order, pushing to
// the FIFO exactly as the decompressor will, records each word's code in
// `codes` and returns the block's exact encoded bits. The one place C-PACK's
// decision tree is written; analyze sums it, compress emits from its codes.
size_t walk_dictionary(const CpackCompressor& c, const uint8_t* p, size_t n_words,
                       WordCode* codes) {
  RingDict dict(c.dict_entries());
  size_t bits = 0;
  for (size_t i = 0; i < n_words; ++i) {
    const uint32_t word = detail::load_le32(p + 4 * i);
    int idx = -1;
    CpackCode code;
    if (word == 0) {
      code = CpackCode::kZZZZ;
    } else if ((word & 0xFFFFFF00u) == 0) {
      code = CpackCode::kZZZX;
    } else if ((idx = dict.find_full(word)) >= 0) {
      code = CpackCode::kMMMM;
    } else if ((idx = dict.find_partial(word, 3)) >= 0) {
      code = CpackCode::kMMMX;
      dict.push(word);
    } else if ((idx = dict.find_partial(word, 2)) >= 0) {
      code = CpackCode::kMMXX;
      dict.push(word);
    } else {
      code = CpackCode::kXXXX;
      dict.push(word);
    }
    codes[i] = {code, static_cast<uint8_t>(idx < 0 ? 0 : idx)};
    bits += c.code_bits(code);
  }
  return bits;
}

}  // namespace

CpackCompressor::CpackCompressor(size_t dict_entries) : dict_entries_(dict_entries) {
  if (dict_entries < 2 || dict_entries > 64 || (dict_entries & (dict_entries - 1)) != 0)
    throw std::invalid_argument("C-PACK: dict_entries must be a power of two in [2, 64], got " +
                                std::to_string(dict_entries));
  index_bits_ = 0;
  for (size_t v = dict_entries; v > 1; v >>= 1) ++index_bits_;
}

unsigned CpackCompressor::code_bits(CpackCode c) const {
  switch (c) {
    case CpackCode::kZZZZ: return 2;
    case CpackCode::kXXXX: return 2 + 32;
    case CpackCode::kMMMM: return 2 + index_bits_;
    case CpackCode::kMMXX: return 4 + index_bits_ + 16;
    case CpackCode::kZZZX: return 4 + 8;
    case CpackCode::kMMMX: return 4 + index_bits_ + 8;
  }
  return 34;
}

Block CpackCompressor::decompress(const CompressedBlock& cb, size_t block_bytes) const {
  check_block_bytes(block_bytes, 4, "C-PACK");
  if (!cb.is_compressed) return detail::stored_raw_block(cb, block_bytes);
  Block out(block_bytes);
  BitReader r(cb.payload);
  RingDict dict(dict_entries_);
  // A dictionary code names an entry the words before it pushed.
  const auto entry = [&](size_t idx) {
    if (idx >= dict.size())
      throw std::invalid_argument("C-PACK payload: index " + std::to_string(idx) + " past the " +
                                  std::to_string(dict.size()) + " dictionary entries");
    return dict.at(idx);
  };
  const size_t n_words = block_bytes / 4;
  for (size_t i = 0; i < n_words; ++i) {
    uint32_t word = 0;
    if (r.get_bit() == 0) {
      if (r.get_bit() == 0) {
        word = 0;  // zzzz
      } else {
        word = static_cast<uint32_t>(r.get(32));  // xxxx
        dict.push(word);
      }
    } else {
      if (r.get_bit() == 0) {
        word = entry(r.get(index_bits_));  // mmmm
      } else {
        // 4-bit prefixes: 1100 mmxx, 1101 zzzx, 1110 mmmx
        const bool b3 = r.get_bit();
        if (!b3) {
          // 110x
          if (!r.get_bit()) {
            const uint32_t hi = entry(r.get(index_bits_)) & 0xFFFF0000u;  // mmxx
            word = hi | static_cast<uint32_t>(r.get(16));
            dict.push(word);
          } else {
            word = static_cast<uint32_t>(r.get(8));  // zzzx
          }
        } else {
          if (r.get_bit()) throw std::invalid_argument("C-PACK payload: unused prefix 1111");
          const uint32_t hi = entry(r.get(index_bits_)) & 0xFFFFFF00u;  // mmmx
          word = hi | static_cast<uint32_t>(r.get(8));
          dict.push(word);
        }
      }
    }
    out.set_word32(i, word);
  }
  if (r.overrun()) throw std::invalid_argument("C-PACK payload: the block ends past the payload");
  return out;
}

void CpackCompressor::analyze_batch(std::span<const BlockView> blocks, BlockAnalysis* out) const {
  // One code buffer, sized for the span's largest block.
  size_t max_words = 0;
  for (const BlockView& blk : blocks) {
    check_block_bytes(blk.size(), 4, "C-PACK");
    max_words = std::max(max_words, blk.size() / 4);
  }
  std::vector<WordCode> codes(max_words);
  for (size_t b = 0; b < blocks.size(); ++b) {
    const BlockView blk = blocks[b];
    const size_t bits = walk_dictionary(*this, blk.bytes().data(), blk.size() / 4, codes.data());
    out[b] = detail::lossless_size(bits, blk.size());
  }
}

void CpackCompressor::compress_batch(std::span<const BlockView> blocks,
                                     CompressedBlock* out) const {
  // Sizing pass: walk every block's dictionary once into one span-wide code
  // buffer; the emitter then writes each word from its recorded code.
  const size_t n = blocks.size();
  std::vector<size_t> code_off(n + 1, 0);
  for (size_t b = 0; b < n; ++b) {
    check_block_bytes(blocks[b].size(), 4, "C-PACK");
    code_off[b + 1] = code_off[b] + blocks[b].size() / 4;
  }
  std::vector<WordCode> codes(code_off[n]);
  for (size_t b = 0; b < n; ++b) {
    const BlockView blk = blocks[b];
    const size_t bits =
        walk_dictionary(*this, blk.bytes().data(), blk.size() / 4, codes.data() + code_off[b]);
    detail::set_lossless_size(out[b], bits, blk.size());
  }

  detail::scatter_payloads(blocks, out, [&](size_t b, detail::SpanBitWriter& w) {
    const uint8_t* p = blocks[b].bytes().data();
    const WordCode* wc = codes.data() + code_off[b];
    for (size_t i = 0; i < blocks[b].size() / 4; ++i) {
      // The word's prefix, index and literal bytes as one code_bits()-wide
      // field (at most 34 bits), so each word is a single put.
      const uint64_t word = detail::load_le32(p + 4 * i);
      const CpackCode code = wc[i].code;
      const uint64_t idx = wc[i].idx;
      uint64_t field = prefix_value(code);
      switch (code) {
        case CpackCode::kZZZZ: break;
        case CpackCode::kZZZX: field = field << 8 | (word & 0xFF); break;
        case CpackCode::kMMMM: field = field << index_bits_ | idx; break;
        case CpackCode::kMMMX: field = (field << index_bits_ | idx) << 8 | (word & 0xFF); break;
        case CpackCode::kMMXX:
          field = (field << index_bits_ | idx) << 16 | (word & 0xFFFF);
          break;
        case CpackCode::kXXXX: field = field << 32 | word; break;
      }
      w.put(field, code_bits(code));
    }
  });
}

namespace {
const CodecRegistrar cpack_registrar({
    .name = "C-PACK",
    .scheme = "dictionary + zero patterns",
    .paper = "Chen et al., IEEE TVLSI 2010 (paper Fig. 1 baseline)",
    .order = 2,
    .lossy = false,
    .needs_training = false,
    .compress_latency = 8,
    .decompress_latency = 8,
    .make = [](const CodecOptions&) -> std::shared_ptr<const Compressor> {
      return std::make_shared<CpackCompressor>();
    },
    .make_block_codec = nullptr,
});
}  // namespace

}  // namespace slc
