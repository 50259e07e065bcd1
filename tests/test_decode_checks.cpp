// Decoders reject payloads that do not describe a block, with
// std::invalid_argument instead of a read or write past a buffer or a
// silently zero-filled block: a stored-raw payload that is not one block
// long (every registry scheme), an SLC header whose lossy window leaves the
// block (every TSLC variant), bits that start no codeword, a BDI tag that
// names no compressed encoding, a C-PACK code no encoder writes, an FPC zero
// run past the block, every proper prefix of a compressed payload (Huffman,
// E2MC, TSLC-*, BDI, FPC and C-PACK), a payload with a byte appended and an
// E2MC or TSLC payload with a byte between two ways. A corrupted payload of
// every registry scheme, and one with a header field at its minimum or
// maximum, decodes to a whole block or is rejected the same way.
#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <span>
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
    CompressedBlock cb;
    cb.bit_size = kBlockBytes * 8;
    cb.is_compressed = false;
    for (const size_t bad_bytes : {size_t{0}, size_t{10}, kBlockBytes - 1, kBlockBytes + 1}) {
      cb.payload.assign(bad_bytes, 0xA5);
      EXPECT_THROW(comp->decompress(cb, kBlockBytes), std::invalid_argument)
          << info->name << ", " << bad_bytes << " B payload";
    }
    cb.payload.assign(kBlockBytes, 0xA5);
    EXPECT_EQ(comp->decompress(cb, kBlockBytes), Block(cb.payload)) << info->name;
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
    const std::vector<Block> blocks = to_blocks(test::quantized_walk(kBlockBytes, 8));
    std::vector<CompressedBlock> cbs(blocks.size());
    codec.compress_batch(to_views(blocks), cbs.data());
    size_t rewritten = 0;
    for (const CompressedBlock& genuine : cbs) {
      if (!genuine.is_compressed) continue;
      BitReader r(genuine.payload);
      SlcHeader h = SlcHeader::read(r);
      // Windows one symbol too long (ss is 6 bits, so none starts past the
      // end).
      for (const auto& [start, count] : {std::pair<size_t, size_t>{63, 16}, {49, 16}, {63, 2}}) {
        h.lossy = true;
        h.start_symbol = static_cast<uint32_t>(start);
        h.approx_count = static_cast<uint8_t>(count);
        CompressedBlock bad = genuine;
        detail::SpanBitWriter w(bad.payload.data());
        h.write(w);
        w.finish();
        EXPECT_THROW(codec.decompress(bad, kBlockBytes), std::invalid_argument)
            << to_string(variant) << ", ss " << start << " len " << count;
        ++rewritten;
      }
    }
    EXPECT_GT(rewritten, 0u) << to_string(variant);
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
                              const std::string& what) {
  CompressedBlock prefix = cb;
  for (size_t len = 0; len < cb.payload.size(); ++len) {
    prefix.payload.assign(cb.payload.begin(), cb.payload.begin() + static_cast<ptrdiff_t>(len));
    prefix.bit_size = len * 8;
    EXPECT_THROW(comp.decompress(prefix, kBlockBytes), std::invalid_argument)
        << what << " prefix " << len;
  }
}

// Every proper prefix of every compressed payload, from empty to one byte
// short, is rejected: a pdp or the header end lies past it, or a symbol run
// ends past it.
TEST(DecodeChecks, TruncatedEntropyPayloadIsRejected) {
  const auto training = test::quantized_walk(0x7A11, 64);
  const auto e2mc = E2mcCompressor::train(training);
  std::vector<std::shared_ptr<const Compressor>> decoders = {HuffmanCompressor::train(training),
                                                             e2mc};
  for (const SlcVariant variant : kVariants)
    decoders.push_back(std::make_shared<SlcCodec>(e2mc, slc_config(variant)));

  size_t lossy = 0;
  for (const auto& comp : decoders) {
    for (const uint64_t seed : {103u, 135u}) {
      const std::vector<Block> blocks = to_blocks(test::quantized_walk(seed, 12));
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
            comp->name() + " seed " + std::to_string(seed) + " block " + std::to_string(i);
        EXPECT_NO_THROW(comp->decompress(cbs[i], kBlockBytes)) << what;
        expect_prefixes_rejected(*comp, cbs[i], what);
      }
      EXPECT_GT(compressed, 0u) << comp->name() << " seed " << seed;
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
    for (const std::vector<uint8_t>& bytes : streams) {
      const std::vector<Block> blocks = to_blocks(bytes);
      const std::vector<CompressedBlock> cbs = comp->compress_batch(blocks);
      for (size_t i = 0; i < cbs.size(); ++i) {
        if (!cbs[i].is_compressed) continue;
        ++compressed;
        const std::string what = comp->name() + " block " + std::to_string(i);
        EXPECT_EQ(comp->decompress(cbs[i], kBlockBytes), blocks[i]) << what;
        expect_prefixes_rejected(*comp, cbs[i], what);
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
// run it for reads and writes past a buffer.
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
// stored-raw block, and 9-15 name none. The payload is as long as a B8D1
// encoding.
TEST(DecodeChecks, BdiTagOfNoEncodingIsRejected) {
  const BdiCompressor bdi;
  const auto b8d1 = static_cast<unsigned>(BdiEncoding::kBase8Delta1);
  const size_t bytes = (BdiCompressor::encoding_bits(BdiEncoding::kBase8Delta1) + 7) / 8;
  for (const unsigned tag : {0u, 9u, 10u, 11u, 12u, 13u, 14u, 15u}) {
    const CompressedBlock cb = crafted(bytes, [&](auto& w) { w.put(tag, 4); });
    EXPECT_THROW(bdi.decompress(cb, kBlockBytes), std::invalid_argument) << "tag " << tag;
  }
  // The same payload under a tag that names an encoding decodes.
  EXPECT_NO_THROW(bdi.decompress(crafted(bytes, [&](auto& w) { w.put(b8d1, 4); }), kBlockBytes));
}

// C-PACK codes no encoder writes: a dictionary index past the entries the
// words before it pushed, which would read an empty ring slot, and the unused
// 1111 prefix. Each payload is an xxxx word (pushing entry 0), the code under
// test at every index, then 30 zzzz words; only index 0 decodes.
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
      const size_t bits = 34 + code.prefix_bits + index_bits + code.tail_bits + 30 * 2;
      for (size_t idx = 0; idx < dict_entries; ++idx) {
        const CompressedBlock cb = crafted((bits + 7) / 8, [&](auto& w) {
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

// An FPC zero run that passes the block's last word: 8 + 1 + 8 + 8 + 8
// words of a 32-word block. The same payload with a run of 7 at the end
// decodes.
TEST(DecodeChecks, FpcZeroRunPastTheBlockIsRejected) {
  const FpcCompressor fpc;
  const auto payload = [](unsigned last_run) {
    return crafted(4, [&](auto& w) {
      w.put(static_cast<unsigned>(FpcPattern::kZeroRun), 3);
      w.put(7, 3);
      w.put(static_cast<unsigned>(FpcPattern::kSignExt4), 3);
      w.put(5, 4);
      for (const unsigned run : {8u, 8u, last_run}) {
        w.put(static_cast<unsigned>(FpcPattern::kZeroRun), 3);
        w.put(run - 1, 3);
      }
    });
  };
  const Block out = fpc.decompress(payload(7), kBlockBytes);
  EXPECT_EQ(out.view().word32(8), 5u);
  EXPECT_THROW(fpc.decompress(payload(8), kBlockBytes), std::invalid_argument);
}

/// Reads and writes the `width`-bit field at bit `at` of a payload, MSB
/// first like every codec's bit stream: the header fields of the tests
/// below, which have fixed offsets.
uint32_t get_field(const std::vector<uint8_t>& p, size_t at, unsigned width) {
  uint32_t v = 0;
  for (size_t b = at; b < at + width; ++b) v = v << 1 | ((p[b / 8] >> (7 - b % 8)) & 1u);
  return v;
}
void set_field(std::vector<uint8_t>& p, size_t at, unsigned width, uint32_t v) {
  for (size_t b = at; b < at + width; ++b) {
    const auto mask = static_cast<uint8_t>(0x80u >> (b % 8));
    const bool bit = (v >> (width - 1 - (b - at))) & 1u;
    p[b / 8] = static_cast<uint8_t>(bit ? p[b / 8] | mask : p[b / 8] & ~mask);
  }
}

/// A header field at a fixed bit offset of a compressed payload.
struct Field {
  const char* name;
  size_t at;
  unsigned width;
};

/// The pdps of an E2MC payload (bits 0-20) and of a TSLC one (bits 11-31).
constexpr Field kE2mcPdps[] = {{"pdp1", 0, 7}, {"pdp2", 7, 7}, {"pdp3", 14, 7}};
constexpr Field kSlcPdps[] = {{"pdp1", 11, 7}, {"pdp2", 18, 7}, {"pdp3", 25, 7}};

/// The header fields of `scheme`'s compressed payloads (Fig. 6 for TSLC).
std::vector<Field> header_fields(const std::string& scheme) {
  if (scheme == "BDI") return {{"tag", 0, 4}};
  if (scheme == "E2MC") return {std::begin(kE2mcPdps), std::end(kE2mcPdps)};
  if (scheme.starts_with("TSLC")) {
    std::vector<Field> f = {{"m", 0, 1}, {"ss", 1, 6}, {"len", 7, 4}};
    f.insert(f.end(), std::begin(kSlcPdps), std::end(kSlcPdps));
    return f;
  }
  return {};
}

/// Every registry scheme's payloads of a mix of 128 B blocks (the kinds of
/// test::data_stream), with their analyses.
struct SchemePayloads {
  std::string scheme;
  std::shared_ptr<const Compressor> comp;
  std::vector<BlockAnalysis> analyses;
  std::vector<CompressedBlock> cbs;
};
std::vector<SchemePayloads> payloads_of_every_scheme() {
  const auto training = test::quantized_walk(0xF1E1D, 64);
  const CodecOptions opts = test::test_options(training);
  std::vector<uint8_t> bytes = test::quantized_walk(0xB10C, 8);
  for (const char* kind : {"value-similar", "all-zero", "denormal", "repeat-delta", "zero-runs",
                           "random"}) {
    const std::vector<uint8_t> more = test::data_stream(kind, 4 * kBlockBytes, 0xF00D);
    bytes.insert(bytes.end(), more.begin(), more.end());
  }
  const std::vector<Block> blocks = to_blocks(bytes);
  const std::vector<BlockView> views = to_views(blocks);
  std::vector<SchemePayloads> out;
  for (const CodecInfo* info : CodecRegistry::instance().entries()) {
    if (!info->make) continue;  // RAW has no Compressor form
    SchemePayloads& s = out.emplace_back();
    s.scheme = info->name;
    s.comp = CodecRegistry::instance().create(info->name, opts);
    s.analyses.resize(blocks.size());
    s.cbs.resize(blocks.size());
    s.comp->analyze_batch(views, s.analyses.data());
    s.comp->compress_batch(views, s.cbs.data());
  }
  return out;
}

// A payload with a byte appended, 0x00 or 0x5A, is rejected by every
// registry scheme, stored raw or compressed; so is an E2MC or TSLC payload
// with a byte inserted after way 0 and the pdps moved past it, which leaves
// a one-byte gap between way 0's end and way 1's start.
TEST(DecodeChecks, TrailingBytesAreRejected) {
  size_t schemes = 0, gaps = 0;
  for (const SchemePayloads& s : payloads_of_every_scheme()) {
    ++schemes;
    size_t compressed = 0;
    for (size_t i = 0; i < s.cbs.size(); ++i) {
      const CompressedBlock& genuine = s.cbs[i];
      const std::string what = s.scheme + " block " + std::to_string(i);
      ASSERT_NO_THROW(s.comp->decompress(genuine, kBlockBytes)) << what;
      for (const uint8_t tail : {uint8_t{0x00}, uint8_t{0x5A}}) {
        CompressedBlock bad = genuine;
        bad.payload.push_back(tail);
        EXPECT_THROW(s.comp->decompress(bad, kBlockBytes), std::invalid_argument)
            << what << ", appended " << int{tail};
      }
      if (!genuine.is_compressed) continue;
      ++compressed;
      const bool e2mc = s.scheme == "E2MC";
      if (!e2mc && !s.scheme.starts_with("TSLC")) continue;
      const std::span<const Field> pdps = e2mc ? std::span<const Field>(kE2mcPdps) : kSlcPdps;
      CompressedBlock bad = genuine;
      const uint32_t way1 = get_field(bad.payload, pdps[0].at, pdps[0].width);
      bad.payload.insert(bad.payload.begin() + static_cast<ptrdiff_t>(way1), 0x00);
      for (const Field& f : pdps)
        set_field(bad.payload, f.at, f.width, get_field(bad.payload, f.at, f.width) + 1);
      EXPECT_THROW(s.comp->decompress(bad, kBlockBytes), std::invalid_argument)
          << what << ", a byte after way 0";
      ++gaps;
    }
    EXPECT_GT(compressed, 0u) << s.scheme;
  }
  EXPECT_GE(schemes, 8u);  // BDI, FPC, C-PACK, E2MC, Huffman and the three TSLC
  EXPECT_GT(gaps, 0u);
}

// Each header field of each compressed payload at its minimum and at its
// maximum, one field at a time: E2MC's three pdps; TSLC's m, ss, len and
// three pdps; BDI's tag. Each decode gives a whole block or a clean
// std::invalid_argument; the sanitizer builds run it for reads and writes
// past a buffer.
TEST(DecodeChecks, HeaderFieldsAtTheirExtremesDecodeOrAreRejected) {
  size_t cases = 0, rejected = 0, lossy = 0;
  for (const SchemePayloads& s : payloads_of_every_scheme()) {
    const std::vector<Field> fields = header_fields(s.scheme);
    for (size_t i = 0; i < s.cbs.size(); ++i) {
      if (!s.cbs[i].is_compressed) continue;
      lossy += s.analyses[i].lossy ? 1 : 0;
      for (const Field& f : fields) {
        for (const uint32_t v : {0u, (1u << f.width) - 1}) {
          CompressedBlock bad = s.cbs[i];
          set_field(bad.payload, f.at, f.width, v);
          ++cases;
          expect_block_or_rejected(*s.comp, bad, rejected, [&] {
            return s.scheme + " block " + std::to_string(i) + ", " + f.name + " = " +
                   std::to_string(v);
          });
        }
      }
    }
  }
  EXPECT_GT(cases, 500u);
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(lossy, 0u);  // lossy TSLC headers are pushed too
}

}  // namespace
}  // namespace slc
