// FNV-1a hashing (Fowler-Noll-Vo), the one helper behind every 64-bit
// fingerprint the project computes: campaign fingerprints, design and
// config stamps, DPRELAX plan seeds, service cache keys, deduction-store
// dedup keys and the hash indexes of the solver caches.
//
// Both offset bases below are frozen. Journals, deduction stores and
// service cache file names carry hashes computed from them, so changing
// either orphans every artifact written before.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace hltg {

/// The FNV-1a 64-bit offset basis, 14695981039346656037.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
/// The offset basis with its last decimal digit dropped. The design and
/// config stamps, DPRELAX plan seeds, service cache keys and word-stream
/// keys have always been seeded with it.
inline constexpr std::uint64_t kFnvTruncatedBasis = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Incremental FNV-1a state.
struct Fnv1a {
  std::uint64_t h;

  explicit Fnv1a(std::uint64_t basis) : h(basis) {}

  void byte(std::uint8_t b) {
    h ^= b;
    h *= kFnvPrime;
  }
  /// The eight bytes of `v`, least significant first.
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void bytes(std::string_view s) {
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
};

/// The FNV-1a step applied to whole 64-bit words (xor a word, then
/// multiply) from the truncated basis: the DPRELAX memo index and the
/// deduction-store dedup key of memo entries. Not the byte-wise hash, but
/// what those keys have always been hashed with.
inline std::uint64_t fnv_words(const std::vector<std::uint64_t>& words) {
  std::uint64_t h = kFnvTruncatedBasis;
  for (const std::uint64_t w : words) {
    h ^= w;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace hltg
