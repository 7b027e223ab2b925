// The explicit-SIMD tag match (util/simd.hpp) must be bit-identical to the
// scalar loop it replaced, on whichever backend the build selected.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "sttsim/util/simd.hpp"

namespace {

using namespace sttsim;

// ---- Primitives vs scalar references ---------------------------------

std::uint64_t ref_mask(const std::uint64_t* v, unsigned n, std::uint64_t key) {
  std::uint64_t mask = 0;
  for (unsigned i = 0; i < n; ++i) {
    mask |= static_cast<std::uint64_t>(v[i] == key) << i;
  }
  return mask;
}

TEST(SimdPrimitives, MatchMaskMatchesScalarReference) {
  std::mt19937_64 rng(0xA11CE);
  for (unsigned n = 0; n <= 64; ++n) {
    // Small alphabet forces frequent (and multi-bit) matches; the sentinel
    // all-ones value is what invalid ways/lines hold in the real arrays.
    std::vector<std::uint64_t> v(n);
    for (unsigned trial = 0; trial < 50; ++trial) {
      for (unsigned i = 0; i < n; ++i) {
        const std::uint64_t r = rng();
        v[i] = (r & 8) ? ~std::uint64_t{0} : (r & 7);
      }
      const std::uint64_t key = (trial & 1) ? ~std::uint64_t{0} : rng() & 7;
      EXPECT_EQ(util::simd::match_mask_u64(v.data(), n, key),
                ref_mask(v.data(), n, key))
          << "n=" << n << " trial=" << trial;
    }
  }
}

TEST(SimdPrimitives, MatchMaskFindsPlantedUniqueHit) {
  std::mt19937_64 rng(7);
  for (unsigned n = 1; n <= 64; ++n) {
    std::vector<std::uint64_t> v(n, ~std::uint64_t{0});
    for (unsigned i = 0; i < n; ++i) v[i] = rng() | 1u;  // unique-ish, != key
    const unsigned pos = static_cast<unsigned>(rng() % n);
    const std::uint64_t key = (rng() << 1);  // even: cannot collide
    v[pos] = key;
    EXPECT_EQ(util::simd::match_mask_u64(v.data(), n, key),
              std::uint64_t{1} << pos)
        << "n=" << n << " pos=" << pos;
  }
}

}  // namespace
