// Reference input generators: the float loops workloads/data_gen.cpp ran
// before its image and GIS generators returned capture codes, kept as test
// oracles.
//
// ref_make_smooth_image, ref_make_speckle_image and ref_make_gis_records
// compute each value in double and round it to a float in place, exactly as
// those loops did. DataGenDifferential (test_data_gen.cpp) requires the
// decoded codes, and the region bytes a memoized workload init writes, to
// match them bit for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numbers>
#include <vector>

#include "common/rng.h"

namespace slc::test {

inline std::vector<float> ref_make_smooth_image(size_t width, size_t height, uint64_t seed,
                                                unsigned bit_depth = 8) {
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

  // Capture quantization: 2^(bit_depth-8) grey levels per 8-bit step.
  const double q = static_cast<double>(1u << (bit_depth > 8 ? bit_depth - 8 : 0));

  std::vector<float> img(width * height);
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
      img[y * width + x] =
          static_cast<float>(std::round(std::clamp(v, 0.0, 255.0) * q) / q);
    }
  }
  return img;
}

inline std::vector<float> ref_make_speckle_image(size_t width, size_t height, uint64_t seed) {
  std::vector<float> base = ref_make_smooth_image(width, height, seed);
  Rng rng(seed ^ 0xABCDEF0123456789ull);
  for (float& p : base) {
    // Multiplicative exponential speckle (unit mean), the ultrasound model
    // SRAD is designed to remove.
    double u = rng.uniform();
    while (u <= 0.0) u = rng.uniform();
    const double speckle = -std::log(u);
    // Rounded like the smooth image: ultrasound frames are 8-bit captures.
    p = static_cast<float>(std::round(std::clamp(static_cast<double>(p) * speckle, 0.0, 255.0)));
  }
  return base;
}

inline void ref_make_gis_records(size_t n, uint64_t seed, std::vector<float>* lat,
                                std::vector<float>* lon) {
  Rng rng(seed);
  lat->resize(n);
  lon->resize(n);
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
      (*lat)[i] = static_cast<float>(std::round(la * 100.0) / 100.0);
      (*lon)[i] = static_cast<float>(std::round(lo * 100.0) / 100.0);
    }
  }
}

}  // namespace slc::test
