#include "compress/compressor.h"

#include <algorithm>
#include <cassert>

namespace slc {

BlockAnalysis Compressor::analyze(BlockView block) const {
  BlockAnalysis a;
  analyze_batch(std::span<const BlockView>(&block, 1), &a);
  return a;
}

CompressedBlock Compressor::compress(BlockView block) const {
  CompressedBlock cb;
  compress_batch(std::span<const BlockView>(&block, 1), &cb);
  return cb;
}

std::vector<CompressedBlock> Compressor::compress_batch(std::span<const Block> blocks) const {
  std::vector<CompressedBlock> out(blocks.size());
  const std::vector<BlockView> views = to_views(blocks);
  compress_batch(views, out.data());
  return out;
}

void RatioAccumulator::add(size_t original_bits, size_t compressed_bits) {
  ++blocks_;
  original_bits_ += original_bits;
  // A scheme never stores more than the raw block (falls back to
  // uncompressed), so clamp for accounting.
  const size_t raw = std::min(compressed_bits, original_bits);
  raw_bits_ += raw;
  // Effective size: whole bursts, at least one, at most the raw block.
  size_t eff = round_up_to_mag_bits(raw, mag_bytes_);
  eff = std::max(eff, mag_bytes_ * 8);
  eff = std::min(eff, original_bits);
  effective_bits_ += eff;
}

void RatioAccumulator::merge(const RatioAccumulator& other) {
  assert(mag_bytes_ == other.mag_bytes_);
  blocks_ += other.blocks_;
  original_bits_ += other.original_bits_;
  raw_bits_ += other.raw_bits_;
  effective_bits_ += other.effective_bits_;
}

double RatioAccumulator::raw_ratio() const {
  return raw_bits_ ? static_cast<double>(original_bits_) / static_cast<double>(raw_bits_) : 0.0;
}

double RatioAccumulator::effective_ratio() const {
  return effective_bits_ ? static_cast<double>(original_bits_) / static_cast<double>(effective_bits_)
                         : 0.0;
}

}  // namespace slc
