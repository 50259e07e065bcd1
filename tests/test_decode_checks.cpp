// Decoders reject payloads that do not describe a block, with
// std::invalid_argument instead of a read or write past a buffer or a
// silently zero-filled block: a stored-raw payload shorter than its block
// (every registry scheme), an SLC header whose lossy window leaves the block
// (every TSLC variant, at 128 B and at 96 B, where a 6-bit ss alone can point
// past the 48 symbols), bits that start no codeword, and every proper prefix
// of a compressed entropy payload (Huffman, E2MC at every way count, TSLC-*
// at 4 and 8 ways).
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "compress/batch_writer.h"
#include "compress/codec_registry.h"
#include "compress/huffman.h"
#include "core/slc_codec.h"
#include "core/slc_compressor.h"
#include "test_util.h"

namespace slc {
namespace {

constexpr SlcVariant kVariants[] = {SlcVariant::kSimp, SlcVariant::kPred, SlcVariant::kOpt};

SlcConfig slc_config(SlcVariant variant) {
  SlcConfig cfg;
  cfg.mag_bytes = 32;
  cfg.threshold_bytes = 16;
  cfg.variant = variant;
  return cfg;
}

TEST(DecodeChecks, StoredRawPayloadShorterThanBlockIsRejected) {
  const auto training = test::quantized_walk(0xDEC0, 64);
  const CodecOptions opts = test::test_options(training);
  size_t tested = 0;
  for (const CodecInfo* info : CodecRegistry::instance().entries()) {
    if (!info->make) continue;  // RAW has no Compressor form
    const auto comp = CodecRegistry::instance().create(info->name, opts);
    for (const size_t block_bytes : {size_t{96}, size_t{128}}) {
      const std::string what = info->name + " " + std::to_string(block_bytes) + " B";
      CompressedBlock cb;
      cb.bit_size = block_bytes * 8;
      cb.is_compressed = false;
      for (const size_t short_bytes : {size_t{0}, size_t{10}, block_bytes - 1}) {
        cb.payload.assign(short_bytes, 0xA5);
        EXPECT_THROW(comp->decompress(cb, block_bytes), std::invalid_argument)
            << what << ", " << short_bytes << " B payload";
      }
      cb.payload.assign(block_bytes, 0xA5);
      EXPECT_EQ(comp->decompress(cb, block_bytes), Block(cb.payload)) << what;
    }
    ++tested;
  }
  EXPECT_GE(tested, 8u);  // BDI, FPC, C-PACK, E2MC, Huffman and the three TSLC
}

// A compressed TSLC payload whose header is rewritten with a window that
// leaves the block: decompress throws before its fill writes a symbol.
TEST(DecodeChecks, SlcWindowLeavingTheBlockIsRejected) {
  const auto e2mc = E2mcCompressor::train(test::quantized_walk(0x5EED, 64));
  for (const SlcVariant variant : kVariants) {
    const SlcCodec codec(e2mc, slc_config(variant));
    for (const size_t block_bytes : {size_t{96}, size_t{128}}) {
      const size_t n_sym = block_bytes / 2;
      const std::string what = std::string(to_string(variant)) + " " +
                               std::to_string(block_bytes) + " B";
      const std::vector<Block> blocks =
          to_blocks(test::quantized_walk(block_bytes, 8), block_bytes);
      std::vector<CompressedBlock> cbs(blocks.size());
      codec.compress_batch(to_views(blocks), cbs.data());
      size_t rewritten = 0;
      for (const CompressedBlock& genuine : cbs) {
        if (!genuine.is_compressed) continue;
        BitReader r(genuine.payload);
        SlcHeader h = SlcHeader::read(r, block_bytes, 4, n_sym);
        // Windows one symbol too long, and at 96 B windows that start past
        // the end (ss is 6 bits, so it cannot at 128 B).
        std::vector<std::pair<size_t, size_t>> windows = {{63, 16}, {n_sym - 15, 16}, {63, 2}};
        if (n_sym < 64) windows.insert(windows.end(), {{n_sym, 1}, {63, 1}});
        for (const auto& [start, count] : windows) {
          h.lossy = true;
          h.start_symbol = static_cast<uint32_t>(start);
          h.approx_count = static_cast<uint8_t>(count);
          CompressedBlock bad = genuine;
          detail::SpanBitWriter w(bad.payload.data());
          h.write(w, block_bytes, 4, n_sym);
          w.finish();
          EXPECT_THROW(codec.decompress(bad, block_bytes), std::invalid_argument)
              << what << ", ss " << start << " len " << count;
          ++rewritten;
        }
      }
      EXPECT_GT(rewritten, 0u) << what;
    }
  }
}

// An escape-only code (trained on no data) has codewords only for windows
// that start with a 0 bit, so a compressed payload of 1 bits starts no
// codeword.
TEST(DecodeChecks, BitsThatStartNoCodewordAreRejected) {
  const auto huff = HuffmanCompressor::train({});
  ASSERT_EQ(huff->code().esc_len(), 1u);
  ASSERT_EQ(huff->code().esc_code(), 0u);
  CompressedBlock cb;
  cb.is_compressed = true;
  cb.bit_size = 127 * 8;
  cb.payload.assign(127, 0xFF);
  EXPECT_THROW(huff->decompress(cb, 128), std::invalid_argument);
}

// Every proper prefix of every compressed payload, from empty to one byte
// short, is rejected: a pdp or the header end lies past it, or a symbol run
// ends past it.
TEST(DecodeChecks, TruncatedEntropyPayloadIsRejected) {
  const auto training = test::quantized_walk(0x7A11, 64);
  std::vector<std::shared_ptr<const Compressor>> decoders = {HuffmanCompressor::train(training)};
  for (const unsigned ways : {1u, 2u, 4u, 8u}) {
    E2mcConfig cfg;
    cfg.num_ways = ways;
    const auto e2mc = E2mcCompressor::train(training, cfg);
    decoders.push_back(e2mc);
    if (ways < 4) continue;
    for (const SlcVariant variant : kVariants)
      decoders.push_back(std::make_shared<SlcCompressor>(e2mc, slc_config(variant)));
  }

  size_t lossy = 0;
  for (const auto& comp : decoders) {
    for (const size_t block_bytes : {size_t{96}, size_t{128}}) {
      const std::vector<Block> blocks =
          to_blocks(test::quantized_walk(block_bytes + 7, 12), block_bytes);
      const std::vector<BlockView> views = to_views(blocks);
      std::vector<BlockAnalysis> analyses(blocks.size());
      std::vector<CompressedBlock> cbs(blocks.size());
      comp->analyze_batch(views, analyses.data());
      comp->compress_batch(views, cbs.data());
      size_t compressed = 0;
      for (size_t i = 0; i < cbs.size(); ++i) {
        if (!cbs[i].is_compressed) continue;
        ++compressed;
        lossy += analyses[i].lossy ? 1 : 0;
        const std::string what =
            comp->name() + " " + std::to_string(block_bytes) + " B block " + std::to_string(i);
        EXPECT_NO_THROW(comp->decompress(cbs[i], block_bytes)) << what;
        CompressedBlock prefix = cbs[i];
        for (size_t len = 0; len < cbs[i].payload.size(); ++len) {
          prefix.payload.assign(cbs[i].payload.begin(),
                                cbs[i].payload.begin() + static_cast<ptrdiff_t>(len));
          prefix.bit_size = len * 8;
          EXPECT_THROW(comp->decompress(prefix, block_bytes), std::invalid_argument)
              << what << " prefix " << len;
        }
      }
      EXPECT_GT(compressed, 0u) << comp->name() << " " << block_bytes << " B";
    }
  }
  EXPECT_GT(lossy, 0u);
}

}  // namespace
}  // namespace slc
