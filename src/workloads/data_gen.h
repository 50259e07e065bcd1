// Synthetic input generators with the value-locality characteristics of the
// paper's real inputs: smooth grayscale images (DCT), speckled ultrasound
// images (SRAD), clustered GIS coordinates (NN), bounded option-pricing
// parameters (BS, CUDA SDK ranges), and triangle soups (JM).
//
// Compressibility of GPU data comes from adjacent-thread value similarity
// (Sec. III-E cites [7], [11]); these generators produce exactly that:
// neighbouring elements share exponents and high-order mantissa bits.
//
// The image and GIS inputs are quantized at capture precision (grey levels,
// hundredths of a degree), so their generators return the integer capture
// codes and the float forms are exact decodes of them: a caller can keep an
// input as codes at a half or a quarter of its float size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"

namespace slc {

/// Synthetic grayscale scene in [0, 255]: low-frequency sinusoid base with a
/// patchwork of flat, weakly and strongly textured tiles plus edges — the
/// spatially varying entropy natural images show (flat sky compresses to a
/// few bits per pixel, texture needs many). `bit_depth` sets the capture
/// quantization: 8 for classic byte images, 12 for sensor/medical data
/// (values land on a 1/16 grey-level grid). Returns the capture codes: pixel
/// = code / 2^(bit_depth-8), depths below 8 capturing as 8. Throws
/// std::invalid_argument for a bit_depth above 16, whose codes would not fit.
std::vector<uint16_t> make_smooth_codes(size_t width, size_t height, uint64_t seed,
                                        unsigned bit_depth = 8);

/// Speckled image: smooth anatomy base with multiplicative exponential
/// speckle noise, the standard SRAD input model (ultrasound). The codes are
/// the 8-bit grey levels.
std::vector<uint8_t> make_speckle_codes(size_t width, size_t height, uint64_t seed);

/// Clustered 2-D coordinates (lat in [0,90], lon in [0,180]) around a few
/// dozen hurricane-track cluster centres, matching Rodinia nn's data shape.
/// The codes are hundredths of a degree, interleaved lat, lon per record.
std::vector<uint16_t> make_gis_codes(size_t n, uint64_t seed);

/// Decoders: write the value of codes[i] to out[i]. Exact, so a decoded code
/// is bit-identical to the float the generator's arithmetic produces. Throw
/// std::invalid_argument if `out` is shorter than `codes`.
void decode_smooth_codes(std::span<const uint16_t> codes, unsigned bit_depth,
                         std::span<float> out);
void decode_speckle_codes(std::span<const uint8_t> codes, std::span<float> out);
void decode_gis_codes(std::span<const uint16_t> codes, std::span<float> out);

/// CUDA SDK BlackScholes parameter ranges: S in [5,30], X in [1,100],
/// T in [0.25,10].
void make_option_params(size_t n, uint64_t seed, std::vector<float>* price,
                        std::vector<float>* strike, std::vector<float>* years);

/// Triangle-pair soup for jmeint: vertices of pair i are drawn inside a
/// shared local cell so roughly half the pairs intersect.
void make_triangle_pairs(size_t n_pairs, uint64_t seed, std::vector<float>* tri_a,
                         std::vector<float>* tri_b);

}  // namespace slc
