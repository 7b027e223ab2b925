// Stable streaming 64-bit hasher (FNV-1a) for on-disk keys.
//
// The persistent result store (exec/result_store.hpp) keys records by a
// digest of the full simulation input, so the hash must be *stable*: the
// same logical input must produce the same 64-bit value on every platform,
// compiler, and build of the repo. To that end every typed field is first
// encoded to an explicit little-endian byte sequence — never hashed via
// memcpy of an in-memory struct — and the algorithm itself is versioned
// (kHashVersion). Any change to the mixing function or the field encodings
// MUST bump kHashVersion; digests produced under different hash versions
// are incomparable by construction (stores mix the version into every key).
//
// tests/test_util.cpp pins known digests so the encoding cannot silently
// drift.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace sttsim::util {

/// Bumped whenever Hash64's algorithm or field encodings change.
inline constexpr std::uint32_t kHashVersion = 1;

/// Streaming FNV-1a over explicitly little-endian-encoded fields.
class Hash64 {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  /// Raw bytes, in the order given.
  Hash64& bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= kPrime;
    }
    return *this;
  }

  Hash64& u8(std::uint8_t v) { return bytes(&v, 1); }

  Hash64& u32(std::uint32_t v) {
    unsigned char b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    return bytes(b, sizeof b);
  }

  Hash64& u64(std::uint64_t v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    return bytes(b, sizeof b);
  }

  /// IEEE-754 bit pattern, little-endian (NaN payloads are caller's problem;
  /// simulation configs never produce them).
  Hash64& f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }

  Hash64& boolean(bool v) { return u8(v ? 1 : 0); }

  /// Length-prefixed so "ab"+"c" and "a"+"bc" digest differently.
  Hash64& str(std::string_view s) {
    u64(s.size());
    return bytes(s.data(), s.size());
  }

  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = kOffsetBasis;
};

/// One-shot convenience for raw byte ranges (record checksums).
inline std::uint64_t hash_bytes(const void* data, std::size_t n) {
  return Hash64().bytes(data, n).digest();
}

}  // namespace sttsim::util
