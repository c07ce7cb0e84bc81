#ifndef XSSD_COMMON_CRC32_INTERNAL_H_
#define XSSD_COMMON_CRC32_INTERNAL_H_

// The two CRC-32C kernels behind xssd::Crc32c, exposed so tests and the
// micro bench can run each one directly. Callers outside those should use
// Crc32c, which picks a kernel once per process.

#include <cstddef>
#include <cstdint>

namespace xssd::crc32_internal {

/// True when the CPU has the SSE4.2 CRC32 instruction (always false off
/// x86-64).
bool HasHardwareCrc32c();

/// SSE4.2 `crc32` loop, 8 bytes per step. Call only when
/// HasHardwareCrc32c() is true; off x86-64 it forwards to the portable
/// kernel.
uint32_t Crc32cHardware(const void* data, size_t len, uint32_t seed);

/// Slicing-by-8 table kernel; runs on any CPU.
uint32_t Crc32cPortable(const void* data, size_t len, uint32_t seed);

}  // namespace xssd::crc32_internal

#endif  // XSSD_COMMON_CRC32_INTERNAL_H_
