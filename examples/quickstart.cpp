// Quickstart: compress one 128 B block with E2MC and with SLC, inspect the
// mode decision, and decompress.
//
// Build & run:   cmake -B build -G Ninja && cmake --build build
//                ./build/examples/quickstart
#include <cstdio>
#include <vector>

#include "common/block.h"
#include "compress/codec_registry.h"
#include "core/slc_codec.h"

using namespace slc;

int main() {
  // A block of 32 floats with high value similarity — adjacent GPU threads
  // produce data like this (Sec. III-E).
  std::vector<float> values(32);
  for (size_t i = 0; i < values.size(); ++i)
    values[i] = 1.5f + 0.001f * static_cast<float>(i);
  Block block;
  for (size_t i = 0; i < values.size(); ++i) {
    uint32_t bits;
    static_assert(sizeof bits == sizeof(float));
    __builtin_memcpy(&bits, &values[i], sizeof bits);
    block.set_word32(i, bits);
  }

  // 1. Build the lossless baseline (E2MC) by registry name, trained on a
  //    sample of the data the application will move. Here: the block itself,
  //    repeated.
  std::vector<uint8_t> sample;
  for (int rep = 0; rep < 64; ++rep)
    sample.insert(sample.end(), block.bytes().begin(), block.bytes().end());
  CodecOptions opts;
  opts.mag_bytes = 32;
  opts.threshold_bytes = 16;
  opts.training_data = sample;
  opts.e2mc.sample_fraction = 1.0;
  auto e2mc = CodecRegistry::instance().create("E2MC", opts);

  const CompressedBlock lossless = e2mc->compress(block.view());
  std::printf("E2MC lossless: %zu bits (%.1f B) for a %zu B block\n", lossless.bit_size,
              static_cast<double>(lossless.bit_size) / 8.0, block.size());
  std::printf("  -> bursts at MAG 32 B: %zu (effective cost %zu B)\n",
              bursts_for_bits(lossless.bit_size, 32),
              bursts_for_bits(lossless.bit_size, 32) * 32);

  // 2. The same block through SLC (constructed by name too): if the
  //    compressed size is a few bytes above a burst multiple, SLC truncates
  //    symbols to fit the budget.
  const auto codec = std::dynamic_pointer_cast<const SlcCodec>(
      CodecRegistry::instance().create("TSLC-OPT", opts));
  const BlockView view = block.view();
  const std::span<const BlockView> one(&view, 1);  // the kernels take spans
  SlcCodec::Decision d;
  SlcCodec::CacheOutcome memo;
  codec->decide_batch(one, opts.threshold_bytes, &d, &memo);  // the Fig. 4 mode decision
  CompressedBlock payload;
  codec->compress_batch(one, &payload);  // the self-describing payload

  const SlcEncodeInfo& info = d.info;
  std::printf("\nSLC (%s, threshold %zu B):\n", codec->name().c_str(),
              codec->config().threshold_bytes);
  std::printf("  lossless size : %zu bits\n", info.lossless_bits);
  std::printf("  bit budget gap: %zu extra bits above the burst multiple\n", info.extra_bits);
  std::printf("  mode          : %s\n", info.lossy ? "LOSSY (truncated)" : "lossless");
  if (info.lossy) {
    std::printf("  truncated     : %zu symbols (%zu bits of codes)\n", info.truncated_symbols,
                info.truncated_bits);
  }
  std::printf("  stored size   : %zu bits -> %zu burst(s)\n", payload.bit_size, info.bursts);

  // 3. Decompress and compare.
  const Block out = codec->decompress(payload, block.size());
  size_t diff_symbols = 0;
  for (size_t s = 0; s < kSymbolsPerBlock; ++s)
    if (out.symbol(s) != block.symbol(s)) ++diff_symbols;
  std::printf("\nRound trip: %zu of %zu symbols differ from the original\n", diff_symbols,
              kSymbolsPerBlock);
  float first_in, first_out;
  const uint32_t w_in = block.view().word32(0);
  const uint32_t w_out = out.view().word32(0);
  __builtin_memcpy(&first_in, &w_in, sizeof first_in);
  __builtin_memcpy(&first_out, &w_out, sizeof first_out);
  std::printf("Element 0: %.6f -> %.6f\n", static_cast<double>(first_in),
              static_cast<double>(first_out));
  return 0;
}
