#include "workloads/data_gen.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>

namespace slc {

namespace {

// Grey levels per 8-bit step at `bit_depth`: the capture quantization.
double levels_per_step(unsigned bit_depth) {
  if (bit_depth > 16) {
    throw std::invalid_argument("smooth image: bit_depth " + std::to_string(bit_depth) +
                                " does not fit a 16-bit capture code");
  }
  return static_cast<double>(1u << (bit_depth > 8 ? bit_depth - 8 : 0));
}

// Codes are whole numbers below 2^16, and the division is the one the
// generator's rounding performs, so each decode is exact.
float degrees(uint16_t code) { return static_cast<float>(code / 100.0); }

void check_decode(size_t codes, size_t out) {
  if (out < codes) {
    throw std::invalid_argument("decode: " + std::to_string(codes) + " codes into " +
                                std::to_string(out) + " floats");
  }
}

}  // namespace

std::vector<uint16_t> make_smooth_codes(size_t width, size_t height, uint64_t seed,
                                        unsigned bit_depth) {
  const double q = levels_per_step(bit_depth);
  Rng rng(seed);
  // Random low-frequency basis: 6 sinusoid components.
  struct Wave {
    double fx, fy, phase, amp;
  };
  std::vector<Wave> waves;
  for (int i = 0; i < 6; ++i) {
    waves.push_back({rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0),
                     rng.uniform(0.0, 2.0 * std::numbers::pi), rng.uniform(10.0, 40.0)});
  }
  // Texture patchwork: 16x16-pixel tiles carry a per-tile detail amplitude
  // (many flat, some weak, a few strong) and occasional hard edges, giving
  // the broad per-block entropy spread of natural scenes.
  constexpr size_t kTile = 16;
  const size_t tiles_x = (width + kTile - 1) / kTile;
  const size_t tiles_y = (height + kTile - 1) / kTile;
  std::vector<double> tile_noise(tiles_x * tiles_y);
  std::vector<double> tile_edge(tiles_x * tiles_y);
  for (size_t t = 0; t < tile_noise.size(); ++t) {
    const double r = rng.uniform();
    tile_noise[t] = r < 0.45 ? 0.7 : (r < 0.8 ? 6.0 : 24.0);
    tile_edge[t] = rng.chance(0.15) ? rng.uniform(20.0, 70.0) : 0.0;
  }

  std::vector<uint16_t> codes(width * height);
  for (size_t y = 0; y < height; ++y) {
    for (size_t x = 0; x < width; ++x) {
      double v = 128.0;
      for (const Wave& w : waves) {
        v += w.amp * std::sin(w.fx * 2.0 * std::numbers::pi * static_cast<double>(x) /
                                  static_cast<double>(width) +
                              w.fy * 2.0 * std::numbers::pi * static_cast<double>(y) /
                                  static_cast<double>(height) +
                              w.phase);
      }
      const size_t tile = (y / kTile) * tiles_x + x / kTile;
      v += tile_noise[tile] * rng.normal();
      if (tile_edge[tile] != 0.0 && (x % kTile) >= kTile / 2) v += tile_edge[tile];
      codes[y * width + x] = static_cast<uint16_t>(std::round(std::clamp(v, 0.0, 255.0) * q));
    }
  }
  return codes;
}

std::vector<uint8_t> make_speckle_codes(size_t width, size_t height, uint64_t seed) {
  const std::vector<uint16_t> base = make_smooth_codes(width, height, seed);
  Rng rng(seed ^ 0xABCDEF0123456789ull);
  std::vector<uint8_t> codes(base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    // Multiplicative exponential speckle (unit mean), the ultrasound model
    // SRAD is designed to remove.
    double u = rng.uniform();
    while (u <= 0.0) u = rng.uniform();
    const double speckle = -std::log(u);
    // Rounded like the smooth image: ultrasound frames are 8-bit captures.
    codes[i] = static_cast<uint8_t>(std::round(std::clamp(base[i] * speckle, 0.0, 255.0)));
  }
  return codes;
}

std::vector<uint16_t> make_gis_codes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint16_t> codes(2 * n);
  // Hurricane records are stored track by track: consecutive records are
  // consecutive positions of the same storm, a fraction of a degree apart —
  // that file order is exactly the adjacent-value similarity GPU threads
  // see. Coordinates carry two decimal digits (parsed from text).
  size_t i = 0;
  while (i < n) {
    double la = rng.uniform(5.0, 85.0);
    double lo = rng.uniform(5.0, 175.0);
    double heading = rng.uniform(0.0, 2.0 * 3.14159265358979);
    const size_t track_len = 64 + rng.next_below(192);
    for (size_t k = 0; k < track_len && i < n; ++k, ++i) {
      heading += rng.uniform(-0.2, 0.2);
      la = std::clamp(la + 0.12 * std::sin(heading), 0.0, 90.0);
      lo = std::clamp(lo + 0.12 * std::cos(heading), 0.0, 180.0);
      codes[2 * i] = static_cast<uint16_t>(std::round(la * 100.0));
      codes[2 * i + 1] = static_cast<uint16_t>(std::round(lo * 100.0));
    }
  }
  return codes;
}

void decode_smooth_codes(std::span<const uint16_t> codes, unsigned bit_depth,
                         std::span<float> out) {
  const double q = levels_per_step(bit_depth);
  check_decode(codes.size(), out.size());
  for (size_t i = 0; i < codes.size(); ++i) out[i] = static_cast<float>(codes[i] / q);
}

void decode_speckle_codes(std::span<const uint8_t> codes, std::span<float> out) {
  check_decode(codes.size(), out.size());
  std::copy(codes.begin(), codes.end(), out.begin());
}

void decode_gis_codes(std::span<const uint16_t> codes, std::span<float> out) {
  check_decode(codes.size(), out.size());
  std::transform(codes.begin(), codes.end(), out.begin(), degrees);
}

void make_option_params(size_t n, uint64_t seed, std::vector<float>* price,
                        std::vector<float>* strike, std::vector<float>* years) {
  Rng rng(seed);
  price->resize(n);
  strike->resize(n);
  years->resize(n);
  for (size_t i = 0; i < n; ++i) {
    // Market data is discrete: quotes tick on a 0.05 grid (nickel ticks),
    // exchange-listed strikes sit on a 0.50 grid, and expiries land on the
    // quarterly calendar.
    (*price)[i] = static_cast<float>(std::round(rng.uniform(5.0, 30.0) * 20.0) / 20.0);
    (*strike)[i] = static_cast<float>(std::round(rng.uniform(1.0, 100.0) * 2.0) / 2.0);
    (*years)[i] = static_cast<float>(std::round(rng.uniform(0.25, 10.0) * 4.0) / 4.0);
  }
}

void make_triangle_pairs(size_t n_pairs, uint64_t seed, std::vector<float>* tri_a,
                         std::vector<float>* tri_b) {
  Rng rng(seed);
  tri_a->resize(n_pairs * 9);
  tri_b->resize(n_pairs * 9);
  for (size_t i = 0; i < n_pairs; ++i) {
    // Shared unit cell positioned on a coarse grid: vertices of both
    // triangles are local, so intersections are common but not certain.
    const double cx = rng.uniform(0.0, 100.0);
    const double cy = rng.uniform(0.0, 100.0);
    const double cz = rng.uniform(0.0, 100.0);
    // Mesh vertices come from model files with per-model fixed-point
    // precision: coarse game assets, mid-resolution scans, finely tessellated
    // CAD parts, and some full-precision exports. The mix gives the broad
    // per-block entropy spread real triangle soups show.
    const double r = rng.uniform();
    const double g = r < 0.4 ? 64.0 : (r < 0.7 ? 256.0 : (r < 0.9 ? 2048.0 : 0.0));
    auto grid = [g](double v) {
      return static_cast<float>(g == 0.0 ? v : std::round(v * g) / g);
    };
    for (int v = 0; v < 3; ++v) {
      (*tri_a)[i * 9 + static_cast<size_t>(v) * 3 + 0] = grid(cx + rng.uniform(-1.0, 1.0));
      (*tri_a)[i * 9 + static_cast<size_t>(v) * 3 + 1] = grid(cy + rng.uniform(-1.0, 1.0));
      (*tri_a)[i * 9 + static_cast<size_t>(v) * 3 + 2] = grid(cz + rng.uniform(-1.0, 1.0));
      (*tri_b)[i * 9 + static_cast<size_t>(v) * 3 + 0] = grid(cx + rng.uniform(-1.0, 1.0));
      (*tri_b)[i * 9 + static_cast<size_t>(v) * 3 + 1] = grid(cy + rng.uniform(-1.0, 1.0));
      (*tri_b)[i * 9 + static_cast<size_t>(v) * 3 + 2] = grid(cz + rng.uniform(-1.0, 1.0));
    }
  }
}

}  // namespace slc
