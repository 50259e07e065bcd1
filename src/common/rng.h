// Deterministic pseudo-random generation (xoshiro256**) for workload inputs.
//
// Every benchmark input in this repo is synthetic; reproducibility of the
// paper's tables requires bit-identical inputs across runs and platforms, so
// we avoid std::mt19937/std::uniform_real_distribution (whose outputs are not
// guaranteed identical across standard library implementations) and implement
// the generator and distributions ourselves.
#pragma once

#include <cstdint>

namespace slc {

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm).
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Next raw 64-bit value.
  uint64_t next();

  /// Uniform in [0, bound) without modulo bias (Lemire's method).
  uint64_t next_below(uint64_t bound);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal via Box-Muller (deterministic, no cached spare).
  double normal();

  /// Bernoulli with probability p.
  bool chance(double p) { return uniform() < p; }

 private:
  uint64_t s_[4];
};

}  // namespace slc
