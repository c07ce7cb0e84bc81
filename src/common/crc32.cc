#include "common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

#include "common/crc32_internal.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace xssd {

namespace crc32_internal {

namespace {

// CRC-32C (Castagnoli) polynomial, reflected form.
constexpr uint32_t kPoly = 0x82F63B78u;

using Tables = std::array<std::array<uint32_t, 256>, 8>;

// tables[0] is the classic byte-at-a-time table; tables[k][i] is the CRC
// of byte i followed by k zero bytes, so eight lookups advance 8 bytes.
constexpr Tables MakeTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < tables.size(); ++k) {
      uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr Tables kTables = MakeTables();

}  // namespace

uint32_t Crc32cPortable(const void* data, size_t len, uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (; len >= 8; p += 8, len -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    if constexpr (std::endian::native == std::endian::big) {
      word = __builtin_bswap64(word);
    }
    uint32_t lo = crc ^ static_cast<uint32_t>(word);
    uint32_t hi = static_cast<uint32_t>(word >> 32);
    crc = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
          kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
          kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    crc = kTables[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

#if defined(__x86_64__)

bool HasHardwareCrc32c() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(const void* data,
                                                          size_t len,
                                                          uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t crc = ~seed;
  for (; len >= 8; p += 8, len -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  if (len >= 4) {
    uint32_t word;
    std::memcpy(&word, p, 4);
    crc32 = _mm_crc32_u32(crc32, word);
    p += 4;
    len -= 4;
  }
  for (; len > 0; ++p, --len) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}

#else

bool HasHardwareCrc32c() { return false; }

uint32_t Crc32cHardware(const void* data, size_t len, uint32_t seed) {
  return Crc32cPortable(data, len, seed);
}

#endif

}  // namespace crc32_internal

// Out of line on purpose: the traced benchmark driver wraps this symbol at
// link time to attribute checksum time.
uint32_t Crc32c(const void* data, size_t len, uint32_t seed) {
  using Kernel = uint32_t (*)(const void*, size_t, uint32_t);
  static const Kernel kernel = crc32_internal::HasHardwareCrc32c()
                                   ? crc32_internal::Crc32cHardware
                                   : crc32_internal::Crc32cPortable;
  return kernel(data, len, seed);
}

}  // namespace xssd
