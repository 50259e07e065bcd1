#include "compress/compressor.h"

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
