// Decoders reject payloads that do not describe a block, with
// std::invalid_argument instead of a read or write past a buffer or a
// silently zero-filled block: a stored-raw payload shorter than its block
// (every registry scheme), an SLC header whose lossy window leaves the block
// (every TSLC variant, at 128 B and at 96 B, where a 6-bit ss alone can point
// past the 48 symbols), bits that start no codeword, a BDI tag that names no
// compressed encoding, a C-PACK code no encoder writes, an FPC zero run past
// the block, and every proper prefix of a compressed payload (Huffman, E2MC
// at every way count, TSLC-* at 4 and 8 ways, BDI, FPC and C-PACK). A
// corrupted payload of every registry scheme decodes to a whole block or is
// rejected the same way.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "compress/batch_writer.h"
#include "compress/bdi.h"
#include "compress/codec_registry.h"
#include "compress/cpack.h"
#include "compress/fpc.h"
#include "compress/huffman.h"
#include "core/slc_codec.h"
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

/// Every proper prefix of `cb`'s payload, from empty to one byte short,
/// fails to decode.
void expect_prefixes_rejected(const Compressor& comp, const CompressedBlock& cb,
                              size_t block_bytes, const std::string& what) {
  CompressedBlock prefix = cb;
  for (size_t len = 0; len < cb.payload.size(); ++len) {
    prefix.payload.assign(cb.payload.begin(), cb.payload.begin() + static_cast<ptrdiff_t>(len));
    prefix.bit_size = len * 8;
    EXPECT_THROW(comp.decompress(prefix, block_bytes), std::invalid_argument)
        << what << " prefix " << len;
  }
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
      decoders.push_back(std::make_shared<SlcCodec>(e2mc, slc_config(variant)));
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
        expect_prefixes_rejected(*comp, cbs[i], block_bytes, what);
      }
      EXPECT_GT(compressed, 0u) << comp->name() << " " << block_bytes << " B";
    }
  }
  EXPECT_GT(lossy, 0u);
}

// Every proper prefix of a compressed BDI, FPC or C-PACK payload, from empty
// to one byte short, is rejected: the block's last code ends past it. The
// blocks are arithmetic progressions of 32-bit words, which all three
// compress, plus each scheme's own sweet spots.
TEST(DecodeChecks, TruncatedLosslessPayloadIsRejected) {
  const std::shared_ptr<const Compressor> decoders[] = {
      std::make_shared<BdiCompressor>(), std::make_shared<FpcCompressor>(),
      std::make_shared<CpackCompressor>(2), std::make_shared<CpackCompressor>(16),
      std::make_shared<CpackCompressor>(64)};
  constexpr size_t kStreamBytes = 1024;
  std::vector<uint8_t> progression;
  for (uint32_t i = 0; progression.size() < kStreamBytes; ++i) {
    const uint32_t word = 0x40000000u + 12345u * (i / 32) + 7u * (i % 32);
    for (int k = 0; k < 4; ++k) progression.push_back(static_cast<uint8_t>(word >> (8 * k)));
  }
  const std::vector<uint8_t> streams[] = {
      progression, test::data_stream("denormal", kStreamBytes, 1),
      test::data_stream("repeat-delta", kStreamBytes, 2),
      test::data_stream("zero-runs", kStreamBytes, 3),
      test::data_stream("all-zero", kStreamBytes, 4)};

  for (const auto& comp : decoders) {
    size_t compressed = 0;
    for (const size_t block_bytes : {size_t{64}, size_t{128}}) {
      for (const std::vector<uint8_t>& bytes : streams) {
        const std::vector<Block> blocks = to_blocks(bytes, block_bytes);
        const std::vector<CompressedBlock> cbs = comp->compress_batch(blocks);
        for (size_t i = 0; i < cbs.size(); ++i) {
          if (!cbs[i].is_compressed) continue;
          ++compressed;
          const std::string what =
              comp->name() + " " + std::to_string(block_bytes) + " B block " + std::to_string(i);
          EXPECT_EQ(comp->decompress(cbs[i], block_bytes), blocks[i]) << what;
          expect_prefixes_rejected(*comp, cbs[i], block_bytes, what);
        }
      }
    }
    EXPECT_GT(compressed, 20u) << comp->name();
  }
}

/// Decodes a corrupted payload, which must give a whole block or throw
/// std::invalid_argument; `rejected` counts the throws. `what` names the
/// case and is built only on a failure.
template <typename What>
void expect_block_or_rejected(const Compressor& comp, const CompressedBlock& cb, size_t& rejected,
                              What what) {
  try {
    const Block out = comp.decompress(cb, kBlockBytes);
    if (out.size() != kBlockBytes) ADD_FAILURE() << what() << ": a " << out.size() << " B block";
  } catch (const std::invalid_argument&) {
    ++rejected;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what() << ": " << e.what();
  }
}

// Corrupted, rather than truncated or crafted, payloads of every registry
// scheme, over blocks of quantized floats, zeros, small integers and random
// bytes: every single-bit flip, 64 seeded multi-bit flips, and every byte
// stuck at 0x00 and at 0xFF (the permanent faults RRCD models). Each decode
// gives a whole block or a clean std::invalid_argument; the sanitizer builds
// run it for reads and writes past a buffer. Trailing bytes are not covered:
// no decoder checks them.
TEST(DecodeChecks, CorruptedPayloadDecodesOrIsRejected) {
  const auto training = test::quantized_walk(0xC0DE, 64);
  const CodecOptions opts = test::test_options(training);
  Rng rng(0xF1A9);
  std::vector<uint8_t> bytes = test::quantized_walk(0xB10C, 8);
  bytes.resize(bytes.size() + kBlockBytes, 0);
  for (size_t w = 0; w < 4 * (kBlockBytes / 4); ++w) {  // four blocks of words 0-99
    const uint64_t word = rng.next_below(100);
    for (int k = 0; k < 4; ++k) bytes.push_back(static_cast<uint8_t>(word >> (8 * k)));
  }
  const std::vector<uint8_t> random = test::data_stream("random", 4 * kBlockBytes, 0xB17E);
  bytes.insert(bytes.end(), random.begin(), random.end());
  const std::vector<Block> blocks = to_blocks(bytes, kBlockBytes);
  const std::vector<BlockView> views = to_views(blocks);

  size_t schemes = 0, lossy = 0;
  for (const CodecInfo* info : CodecRegistry::instance().entries()) {
    if (!info->make) continue;  // RAW has no Compressor form
    const auto comp = CodecRegistry::instance().create(info->name, opts);
    std::vector<BlockAnalysis> analyses(blocks.size());
    std::vector<CompressedBlock> cbs(blocks.size());
    comp->analyze_batch(views, analyses.data());
    comp->compress_batch(views, cbs.data());
    size_t cases = 0, rejected = 0;
    for (size_t i = 0; i < cbs.size(); ++i) {
      lossy += analyses[i].lossy ? 1 : 0;
      const std::vector<uint8_t>& genuine = cbs[i].payload;
      ASSERT_FALSE(genuine.empty()) << info->name << " block " << i;
      CompressedBlock bad = cbs[i];
      const auto check = [&](const char* kind, size_t at) {
        ++cases;
        expect_block_or_rejected(*comp, bad, rejected, [&] {
          return info->name + " block " + std::to_string(i) + ", " + kind + " " +
                 std::to_string(at);
        });
        bad.payload = genuine;
      };
      const size_t bits = genuine.size() * 8;
      for (size_t bit = 0; bit < bits; ++bit) {
        bad.payload[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        check("bit flip", bit);
      }
      for (size_t k = 0; k < 64; ++k) {
        for (uint64_t f = 2 + rng.next_below(15); f > 0; --f) {
          const uint64_t bit = rng.next_below(bits);
          bad.payload[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        }
        check("multi-bit flip", k);
      }
      for (size_t at = 0; at < genuine.size(); ++at) {
        bad.payload[at] = 0x00;
        check("byte stuck at 0x00", at);
        bad.payload[at] = 0xFF;
        check("byte stuck at 0xFF", at);
      }
    }
    // Every scheme's checks catch some corruptions, and some still decode.
    EXPECT_GT(rejected, 0u) << info->name;
    EXPECT_LT(rejected, cases) << info->name;
    ++schemes;
  }
  EXPECT_GE(schemes, 8u);  // BDI, FPC, C-PACK, E2MC, Huffman and the three TSLC
  EXPECT_GT(lossy, 0u);    // TSLC payloads with a lossy window are corrupted too
}

/// A compressed payload of `bytes` zero bytes that starts with the codes
/// `write` puts.
template <typename Write>
CompressedBlock crafted(size_t bytes, Write write) {
  CompressedBlock cb;
  cb.is_compressed = true;
  cb.payload.assign(bytes, 0);
  detail::SpanBitWriter w(cb.payload.data());
  write(w);
  w.finish();
  cb.bit_size = bytes * 8;
  return cb;
}

// A BDI tag that names no compressed encoding: kUncompressed (0) marks a
// stored-raw block, and 9-15 name none. The payload is long enough for any
// encoding.
TEST(DecodeChecks, BdiTagOfNoEncodingIsRejected) {
  const BdiCompressor bdi;
  for (const size_t block_bytes : {size_t{64}, size_t{128}}) {
    for (const unsigned tag : {0u, 9u, 10u, 11u, 12u, 13u, 14u, 15u}) {
      const CompressedBlock cb = crafted(block_bytes, [&](auto& w) { w.put(tag, 4); });
      EXPECT_THROW(bdi.decompress(cb, block_bytes), std::invalid_argument)
          << "tag " << tag << ", " << block_bytes << " B";
    }
    // The same payload under a tag that names an encoding decodes.
    const auto b8d1 = static_cast<unsigned>(BdiEncoding::kBase8Delta1);
    EXPECT_NO_THROW(bdi.decompress(crafted(block_bytes, [&](auto& w) { w.put(b8d1, 4); }),
                                   block_bytes));
  }
}

// C-PACK codes no encoder writes: a dictionary index past the entries the
// words before it pushed, which would read an empty ring slot, and the unused
// 1111 prefix. Each payload is an xxxx word (pushing entry 0), the code under
// test at every index, then zzzz words; only index 0 decodes.
TEST(DecodeChecks, CpackImpossibleCodeIsRejected) {
  constexpr uint32_t kWord = 0x12345678u;
  for (const size_t dict_entries : {size_t{2}, size_t{16}, size_t{64}}) {
    const CpackCompressor cpack(dict_entries);
    unsigned index_bits = 0;
    while ((size_t{1} << index_bits) < dict_entries) ++index_bits;
    struct Code {
      const char* name;
      uint64_t prefix;
      unsigned prefix_bits, tail_bits;
    };
    for (const Code& code : {Code{"mmmm", 0b10, 2, 0}, Code{"mmxx", 0b1100, 4, 16},
                             Code{"mmmx", 0b1110, 4, 8}}) {
      for (size_t idx = 0; idx < dict_entries; ++idx) {
        const CompressedBlock cb = crafted(kBlockBytes, [&](auto& w) {
          w.put(0b01, 2);
          w.put(kWord, 32);
          w.put(code.prefix, code.prefix_bits);
          w.put(idx, index_bits);
          w.put(0, code.tail_bits);
        });
        const std::string what = std::string(code.name) + " index " + std::to_string(idx) +
                                 ", " + std::to_string(dict_entries) + " entries";
        if (idx == 0) {
          const Block out = cpack.decompress(cb, kBlockBytes);
          EXPECT_EQ(out.view().word32(0), kWord) << what;
          EXPECT_EQ(out.view().word32(1) >> 16, kWord >> 16) << what;
        } else {
          EXPECT_THROW(cpack.decompress(cb, kBlockBytes), std::invalid_argument) << what;
        }
      }
    }
    const CompressedBlock unused = crafted(kBlockBytes, [](auto& w) { w.put(0b1111, 4); });
    EXPECT_THROW(cpack.decompress(unused, kBlockBytes), std::invalid_argument)
        << "prefix 1111, " << dict_entries << " entries";
  }
}

// An FPC zero run that passes the block's last word: 8 + 1 + 8 words of a
// 16-word block. The same payload with a run of 7 at the end decodes.
TEST(DecodeChecks, FpcZeroRunPastTheBlockIsRejected) {
  const FpcCompressor fpc;
  const auto payload = [](unsigned last_run) {
    return crafted(16, [&](auto& w) {
      w.put(static_cast<unsigned>(FpcPattern::kZeroRun), 3);
      w.put(7, 3);
      w.put(static_cast<unsigned>(FpcPattern::kSignExt4), 3);
      w.put(5, 4);
      w.put(static_cast<unsigned>(FpcPattern::kZeroRun), 3);
      w.put(last_run - 1, 3);
    });
  };
  const Block out = fpc.decompress(payload(7), 64);
  EXPECT_EQ(out.view().word32(8), 5u);
  EXPECT_THROW(fpc.decompress(payload(8), 64), std::invalid_argument);
}

}  // namespace
}  // namespace slc
