#ifndef XSSD_COMMON_CRC32_H_
#define XSSD_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace xssd {

/// CRC-32C (Castagnoli) over a byte range. Used to protect destage-page
/// headers and database log records; seed allows incremental computation.
/// Runs the SSE4.2 kernel when the CPU has it and a slicing-by-8 table
/// kernel otherwise (chosen once, at first call); both give identical
/// values.
uint32_t Crc32c(const void* data, size_t len, uint32_t seed = 0);

}  // namespace xssd

#endif  // XSSD_COMMON_CRC32_H_
