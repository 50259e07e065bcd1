#include "common/block.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace slc {

void check_mag_bytes(size_t mag_bytes, const char* who) {
  if (mag_bytes == 0 || kBlockBytes % mag_bytes != 0)
    throw std::invalid_argument(std::string(who) + ": MAG of " + std::to_string(mag_bytes) +
                                " B must be positive and divide " +
                                std::to_string(kBlockBytes) + " B");
}

void throw_bad_block_bytes(size_t block_bytes, const char* who) {
  throw std::invalid_argument(std::string(who) + ": a " + std::to_string(block_bytes) +
                              " B block is not " + std::to_string(kBlockBytes) + " B");
}

size_t bytes_above_mag(size_t size_bytes, size_t mag_bytes) {
  assert(mag_bytes > 0);
  return size_bytes % mag_bytes;
}

std::vector<Block> to_blocks(std::span<const uint8_t> data, size_t block_bytes, bool pad_tail) {
  if (block_bytes == 0) throw std::invalid_argument("to_blocks: block_bytes must be positive");
  std::vector<Block> blocks;
  const size_t n_full = data.size() / block_bytes;
  blocks.reserve(n_full + 1);
  for (size_t i = 0; i < n_full; ++i) {
    blocks.emplace_back(data.subspan(i * block_bytes, block_bytes));
  }
  const size_t rem = data.size() % block_bytes;
  if (rem != 0 && pad_tail) {
    std::vector<uint8_t> tail(block_bytes, 0);
    std::copy(data.end() - static_cast<long>(rem), data.end(), tail.begin());
    blocks.emplace_back(std::move(tail));
  }
  return blocks;
}

std::vector<BlockView> to_views(std::span<const Block> blocks) {
  std::vector<BlockView> views;
  views.reserve(blocks.size());
  for (const Block& b : blocks) views.push_back(b.view());
  return views;
}

}  // namespace slc
