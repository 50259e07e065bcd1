// String-keyed registry of every compression scheme in the repo.
//
// Each scheme self-registers from its own translation unit (a static
// CodecRegistrar at namespace scope), so constructing a codec anywhere in the
// tree is `CodecRegistry::instance().create("TSLC-OPT", opts)` — no consumer
// hand-wires compressor classes any more. Entries carry the metadata the
// benches and the simulator need (paper reference, pipeline latencies, lossy
// capability), plus an optional BlockCodec factory for schemes that need a
// custom memory-controller policy (SLC's per-region threshold clamp, the RAW
// baseline).
//
// Registration happens during static initialization (single-threaded);
// lookups afterwards are read-only and thread-safe.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "compress/compressor.h"
#include "compress/e2mc.h"

namespace slc {

class BlockCodec;
class FingerprintCache;

/// Everything a factory may need to construct a codec. Schemes ignore the
/// fields that do not apply to them (BDI/FPC/C-PACK need nothing; the entropy
/// coders need `training_data`; SLC additionally reads `mag_bytes` and
/// `threshold_bytes`).
struct CodecOptions {
  size_t mag_bytes = kDefaultMagBytes;
  size_t threshold_bytes = kDefaultThresholdBytes;  ///< SLC lossy threshold
  /// Sample the entropy coders train their symbol tables on (E2MC's online
  /// sampling window). Schemes with needs_training require this unless
  /// `trained_e2mc` is supplied.
  std::span<const uint8_t> training_data{};
  E2mcConfig e2mc{};
  /// Already-trained E2MC model to reuse (skips training). Honored by the
  /// E2MC and TSLC-* factories — the benches' per-benchmark training cache.
  std::shared_ptr<const E2mcCompressor> trained_e2mc{};
  /// Optional fingerprint memo for the Fig. 4 decision path
  /// (core/fingerprint_cache.h), honored by the TSLC-* factories; null (the
  /// default) keeps the codec uncached. Sharing one cache across codecs is
  /// safe — entries are keyed on the deciding codec's identity.
  std::shared_ptr<FingerprintCache> fingerprint_cache{};
};

using CompressorFactory =
    std::function<std::shared_ptr<const Compressor>(const CodecOptions&)>;
using BlockCodecFactory =
    std::function<std::shared_ptr<const BlockCodec>(const CodecOptions&)>;

/// One registry entry: factory plus the metadata consumers keep asking for.
struct CodecInfo {
  std::string name;     ///< registry key; matches Compressor::name()
  std::string scheme;   ///< family description for the README table
  std::string paper;    ///< source paper / section reference
  int order = 99;       ///< display order in sweeps (Fig. 1 column order)
  bool lossy = false;
  bool needs_training = false;
  /// Pipeline latencies in memory-controller cycles for the timing simulator
  /// (paper Sec. IV-A gives E2MC 46/20 and TSLC 60/20; the other schemes use
  /// the figures from their own papers and only matter for extra sweeps).
  unsigned compress_latency = 0;
  unsigned decompress_latency = 0;
  CompressorFactory make;              ///< null for RAW (no Compressor form)
  BlockCodecFactory make_block_codec;  ///< null => wrap in LosslessBlockCodec
};

class CodecRegistry {
 public:
  static CodecRegistry& instance();

  /// Registers a scheme; throws std::logic_error on duplicate names.
  void add(CodecInfo info);

  /// Lookup; null when the name is unknown.
  const CodecInfo* find(std::string_view name) const;
  /// Lookup; throws std::out_of_range with the known names on a miss.
  const CodecInfo& at(std::string_view name) const;

  /// Constructs the compressor registered under `name`. Throws
  /// std::invalid_argument when the scheme has no Compressor form (RAW) or
  /// needs training data that `opts` does not provide.
  std::shared_ptr<const Compressor> create(std::string_view name,
                                           const CodecOptions& opts) const;

  /// Constructs the memory-controller BlockCodec for `name`: the scheme's
  /// own factory when registered, otherwise the compressor wrapped in a
  /// LosslessBlockCodec at `opts.mag_bytes`.
  std::shared_ptr<const BlockCodec> create_block_codec(std::string_view name,
                                                       const CodecOptions& opts) const;

  /// All registered names in display order.
  std::vector<std::string> names() const;
  /// Lossless Compressor-capable schemes in display order — the Fig. 1 sweep.
  std::vector<std::string> lossless_names() const;
  /// Lossy schemes in display order — the TSLC variant sweep (Fig. 7/8).
  std::vector<std::string> lossy_names() const;
  /// Entries in display order.
  std::vector<const CodecInfo*> entries() const;

 private:
  CodecRegistry() = default;
  std::map<std::string, CodecInfo, std::less<>> by_name_;
};

/// Put one of these at namespace scope in the scheme's .cpp to self-register.
struct CodecRegistrar {
  explicit CodecRegistrar(CodecInfo info);
};

}  // namespace slc
