// Byte helpers of the persistence layers: the deduction store
// (solver/store.cpp), the service result cache (service/cache.cpp) and the
// supervised workers' pipe records (service/supervisor.cpp). All three
// frame their records with little-endian u32 fields and seal each payload
// with a CRC-32, so these definitions are part of three byte formats:
// changing one orphans every store and cache entry written before.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace hltg {

/// CRC-32 (IEEE 802.3: reflected, polynomial 0xEDB88320) of `n` bytes.
inline std::uint32_t crc32_ieee(const void* data, std::size_t n) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i)
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

/// Append `v` to `out`, least significant byte first.
inline void put_le32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

/// The little-endian u32 at `p`.
inline std::uint32_t get_le32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}

/// True for the lowercase-hex content addresses the service derives (at
/// most 64 digits). Anything else, path separators in particular, never
/// names a file.
inline bool is_hex_key(const std::string& key) {
  if (key.empty() || key.size() > 64) return false;
  for (const char c : key)
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  return true;
}

}  // namespace hltg
