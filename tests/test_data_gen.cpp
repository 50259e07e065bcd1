// Synthetic input generators: determinism, ranges, and the value-locality
// properties compressibility depends on; DataGenDifferential checks the
// capture codes, and the memoized workload inputs decoded from them, bit for
// bit against the float reference loops in data_gen_reference.h.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "data_gen_reference.h"
#include "workloads/data_gen.h"
#include "workloads/workload.h"
#include "workloads/workload_factories.h"

namespace slc {
namespace {

// The decoded inputs, as a workload reads them: a generator's capture codes
// through its decoder.
std::vector<float> smooth_image(size_t width, size_t height, uint64_t seed,
                                unsigned bit_depth = 8) {
  const std::vector<uint16_t> codes = make_smooth_codes(width, height, seed, bit_depth);
  std::vector<float> img(codes.size());
  decode_smooth_codes(codes, bit_depth, img);
  return img;
}

std::vector<float> speckle_image(size_t width, size_t height, uint64_t seed) {
  const std::vector<uint8_t> codes = make_speckle_codes(width, height, seed);
  std::vector<float> img(codes.size());
  decode_speckle_codes(codes, img);
  return img;
}

/// The decoded make_gis_codes records, one vector per coordinate.
void gis_records(size_t n, uint64_t seed, std::vector<float>* lat, std::vector<float>* lon) {
  const std::vector<uint16_t> codes = make_gis_codes(n, seed);
  std::vector<float> interleaved(codes.size());
  decode_gis_codes(codes, interleaved);
  lat->resize(n);
  lon->resize(n);
  for (size_t i = 0; i < n; ++i) {
    (*lat)[i] = interleaved[2 * i];
    (*lon)[i] = interleaved[2 * i + 1];
  }
}

TEST(DataGen, SmoothImageDeterministic) {
  const auto a = smooth_image(64, 64, 1);
  const auto b = smooth_image(64, 64, 1);
  EXPECT_EQ(a, b);
  const auto c = smooth_image(64, 64, 2);
  EXPECT_NE(a, c);
}

TEST(DataGen, SmoothImageRange) {
  const auto img = smooth_image(64, 64, 3);
  ASSERT_EQ(img.size(), 64u * 64u);
  for (float p : img) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 255.0f);
  }
}

TEST(DataGen, SmoothImageIsLocallySimilar) {
  const auto img = smooth_image(128, 128, 4);
  double total_step = 0;
  for (size_t i = 1; i < 128; ++i)
    total_step += std::abs(img[i] - img[i - 1]);
  // Smooth: neighbouring pixels differ by a few grey levels on average.
  EXPECT_LT(total_step / 127.0, 12.0);
}

TEST(DataGen, SmoothImageRejectsBitDepthAbove16) {
  // A code above 16 bits would not fit, and the level shift is undefined
  // from bit_depth 40 on.
  for (unsigned depth : {17u, 40u, 64u, ~0u}) {
    EXPECT_THROW(make_smooth_codes(8, 8, 1, depth), std::invalid_argument) << depth;
  }
  const std::vector<uint16_t> codes(4, 1);
  std::vector<float> out(4);
  EXPECT_THROW(decode_smooth_codes(codes, 17, out), std::invalid_argument);
  EXPECT_NO_THROW(smooth_image(8, 8, 1, 16));
}

TEST(DataGen, DecodersRejectShortOutput) {
  const std::vector<uint16_t> wide(5, 1);
  const std::vector<uint8_t> narrow(5, 1);
  std::vector<float> out(4);
  EXPECT_THROW(decode_smooth_codes(wide, 8, out), std::invalid_argument);
  EXPECT_THROW(decode_speckle_codes(narrow, out), std::invalid_argument);
  EXPECT_THROW(decode_gis_codes(wide, out), std::invalid_argument);
  // A longer output (a block-padded region) keeps its tail.
  std::vector<float> padded(7, -1.0f);
  decode_gis_codes(wide, padded);
  EXPECT_EQ(padded[4], static_cast<float>(0.01));
  EXPECT_EQ(padded[5], -1.0f);
}

TEST(DataGen, SpeckleImageNoisierThanSmooth) {
  const auto smooth = smooth_image(128, 128, 5);
  const auto speckle = speckle_image(128, 128, 5);
  double ds = 0, dn = 0;
  for (size_t i = 1; i < smooth.size(); ++i) {
    ds += std::abs(smooth[i] - smooth[i - 1]);
    dn += std::abs(speckle[i] - speckle[i - 1]);
  }
  EXPECT_GT(dn, ds * 2) << "speckle must add high-frequency noise";
}

TEST(DataGen, GisRecordsRanges) {
  std::vector<float> lat, lon;
  gis_records(10000, 6, &lat, &lon);
  ASSERT_EQ(lat.size(), 10000u);
  for (size_t i = 0; i < lat.size(); ++i) {
    EXPECT_GE(lat[i], 0.0f);
    EXPECT_LE(lat[i], 90.0f);
    EXPECT_GE(lon[i], 0.0f);
    EXPECT_LE(lon[i], 180.0f);
  }
}

TEST(DataGen, OptionParamsSdkRanges) {
  std::vector<float> s, x, t;
  make_option_params(10000, 7, &s, &x, &t);
  for (size_t i = 0; i < s.size(); ++i) {
    // Grid quantization can round onto the upper bound, hence <=.
    EXPECT_GE(s[i], 5.0f);
    EXPECT_LE(s[i], 30.0f);
    EXPECT_GE(x[i], 1.0f);
    EXPECT_LE(x[i], 100.0f);
    EXPECT_GE(t[i], 0.25f);
    EXPECT_LE(t[i], 10.0f);
  }
}

TEST(DataGen, OptionParamsOnMarketGrids) {
  // Prices tick on a 0.05 grid, strikes on a 0.50 grid, expiries quarterly.
  std::vector<float> s, x, t;
  make_option_params(1000, 7, &s, &x, &t);
  for (size_t i = 0; i < s.size(); ++i) {
    EXPECT_NEAR(std::round(s[i] * 20.0f) / 20.0f, s[i], 1e-5f);
    EXPECT_NEAR(std::round(x[i] * 2.0f) / 2.0f, x[i], 1e-5f);
    EXPECT_NEAR(std::round(t[i] * 4.0f) / 4.0f, t[i], 1e-5f);
  }
}

TEST(DataGen, TrianglePairsLocal) {
  std::vector<float> a, b;
  make_triangle_pairs(1000, 8, &a, &b);
  ASSERT_EQ(a.size(), 9000u);
  ASSERT_EQ(b.size(), 9000u);
  // Vertices of a pair stay within the shared cell (max spread ~2 units).
  for (size_t i = 0; i < 1000; ++i) {
    for (int c = 0; c < 3; ++c) {
      float mn = 1e9f, mx = -1e9f;
      for (int v = 0; v < 3; ++v) {
        const float va = a[i * 9 + static_cast<size_t>(v) * 3 + static_cast<size_t>(c)];
        const float vb = b[i * 9 + static_cast<size_t>(v) * 3 + static_cast<size_t>(c)];
        mn = std::min({mn, va, vb});
        mx = std::max({mx, va, vb});
      }
      EXPECT_LE(mx - mn, 2.01f);
    }
  }
}

TEST(DataGen, Deterministic) {
  std::vector<float> a1, b1, a2, b2;
  make_triangle_pairs(100, 9, &a1, &b1);
  make_triangle_pairs(100, 9, &a2, &b2);
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(b1, b2);
}

// --- DataGenDifferential: capture codes against the float reference loops --

// The seeds the memoized workloads pass (wl_dct, wl_transpose, wl_nn,
// wl_srad).
constexpr uint64_t kDctSeed = 0x4443545F534Cull;
constexpr uint64_t kTpSeed = 0x54505F534C43ull;
constexpr uint64_t kNnSeed = 0x4E4E5F534C43ull;
constexpr uint64_t kSrad1Seed = 0x535231ull;
constexpr uint64_t kSrad2Seed = 0x535232ull;

// Float equality by bits: EXPECT_EQ would take -0.0f for +0.0f.
bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

std::vector<float> interleave(const std::vector<float>& lat, const std::vector<float>& lon) {
  std::vector<float> out;
  for (size_t i = 0; i < lat.size(); ++i) {
    out.push_back(lat[i]);
    out.push_back(lon[i]);
  }
  return out;
}

TEST(DataGenDifferential, SmoothImageMatchesReference) {
  struct Args {
    size_t width, height;
    uint64_t seed;
    unsigned bit_depth;
  };
  // DCT and TP at kTiny and kDefault, then other seeds, depths and shapes
  // (37x23 leaves partial texture tiles on both edges).
  std::vector<Args> cases = {{64, 64, kDctSeed, 12},
                             {512, 512, kDctSeed, 12},
                             {64, 64, kTpSeed, 12},
                             {512, 512, kTpSeed, 12}};
  for (uint64_t seed : {1ull, 5ull, 0xDEADBEEFull})
    for (unsigned depth : {0u, 8u, 12u, 16u})
      for (auto [w, h] : {std::pair<size_t, size_t>{64, 64}, {37, 23}})
        cases.push_back({w, h, seed, depth});
  for (const Args& a : cases) {
    const auto ref = test::ref_make_smooth_image(a.width, a.height, a.seed, a.bit_depth);
    EXPECT_TRUE(same_bits(smooth_image(a.width, a.height, a.seed, a.bit_depth), ref))
        << a.width << "x" << a.height << " seed " << a.seed << " depth " << a.bit_depth;
  }
}

TEST(DataGenDifferential, SpeckleImageMatchesReference) {
  struct Args {
    size_t width, height;
    uint64_t seed;
  };
  std::vector<Args> cases = {{64, 64, kSrad1Seed},
                             {512, 512, kSrad1Seed},
                             {64, 64, kSrad2Seed},
                             {512, 512, kSrad2Seed}};
  for (uint64_t seed : {1ull, 5ull, 0xDEADBEEFull}) {
    cases.push_back({64, 64, seed});
    cases.push_back({37, 23, seed});
  }
  for (const Args& a : cases) {
    EXPECT_TRUE(same_bits(speckle_image(a.width, a.height, a.seed),
                          test::ref_make_speckle_image(a.width, a.height, a.seed)))
        << a.width << "x" << a.height << " seed " << a.seed;
  }
}

TEST(DataGenDifferential, GisRecordsMatchReference) {
  struct Args {
    size_t n;
    uint64_t seed;
  };
  std::vector<Args> cases = {{1u << 14, kNnSeed}, {1u << 20, kNnSeed}};
  for (uint64_t seed : {1ull, 6ull, 0xDEADBEEFull})
    for (size_t n : {size_t{1}, size_t{1000}, size_t{1} << 14}) cases.push_back({n, seed});
  for (const Args& a : cases) {
    std::vector<float> lat, lon, ref_lat, ref_lon;
    gis_records(a.n, a.seed, &lat, &lon);
    test::ref_make_gis_records(a.n, a.seed, &ref_lat, &ref_lon);
    EXPECT_TRUE(same_bits(lat, ref_lat)) << "n " << a.n << " seed " << a.seed;
    EXPECT_TRUE(same_bits(lon, ref_lon)) << "n " << a.n << " seed " << a.seed;
    // The interleaved decode NN's init writes into its region.
    std::vector<float> out(2 * a.n);
    decode_gis_codes(make_gis_codes(a.n, a.seed), out);
    EXPECT_TRUE(same_bits(out, interleave(ref_lat, ref_lon))) << "n " << a.n;
  }
}

// The input region of each memoized workload as the reference loops build
// it; every other region is zero after init.
std::vector<float> reference_input(const std::string& workload, WorkloadScale scale) {
  const bool dflt = scale == WorkloadScale::kDefault;
  const size_t dim = dflt ? 512 : 64;
  if (workload == "DCT") return test::ref_make_smooth_image(dim, dim, kDctSeed, 12);
  if (workload == "TP") return test::ref_make_smooth_image(dim, dim, kTpSeed, 12);
  if (workload == "NN") {
    std::vector<float> lat, lon;
    test::ref_make_gis_records(dflt ? 1u << 20 : 1u << 14, kNnSeed, &lat, &lon);
    return interleave(lat, lon);
  }
  auto img = test::ref_make_speckle_image(dim, dim, workload == "SRAD1" ? kSrad1Seed : kSrad2Seed);
  for (float& p : img) p = std::exp(p / 255.0f);  // SRAD's input scaling
  return img;
}

TEST(DataGenDifferential, WorkloadInitMatchesReferenceOnMissAndHit) {
  for (WorkloadScale scale : {WorkloadScale::kTiny, WorkloadScale::kDefault}) {
    for (const char* name : {"DCT", "TP", "NN", "SRAD1", "SRAD2"}) {
      const std::vector<float> ref = reference_input(name, scale);
      std::vector<std::vector<uint8_t>> first;
      // The first init may build the memo entry (a miss); the second must
      // find it (a hit) and write the same bytes.
      for (int pass = 0; pass < 2; ++pass) {
        const InputMemoStats before = input_memo_stats(scale);
        auto wl = make_workload(name, scale);
        ApproxMemory mem;
        wl->init(mem);
        const InputMemoStats after = input_memo_stats(scale);
        EXPECT_LE(after.entries, before.entries + (pass == 0 ? 1 : 0)) << name;
        const auto input = mem.span<const float>(0).first(ref.size());
        EXPECT_TRUE(same_bits(input, ref)) << name << " pass " << pass;
        for (RegionId r = 0; r < mem.num_regions(); ++r) {
          const auto bytes = mem.span<const uint8_t>(r);
          const size_t from = r == 0 ? ref.size() * sizeof(float) : 0;
          EXPECT_TRUE(std::all_of(bytes.begin() + static_cast<long>(from), bytes.end(),
                                  [](uint8_t b) { return b == 0; }))
              << name << " region " << r;
          if (pass == 0) {
            first.emplace_back(bytes.begin(), bytes.end());
          } else {
            EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), first[r].begin(), first[r].end()))
                << name << " region " << r;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace slc
