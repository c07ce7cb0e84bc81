// Differential test of the CRC-32C kernels: the SSE4.2 kernel, the
// slicing-by-8 kernel and the dispatched Crc32c must all agree with the
// plain byte-at-a-time reference below, bit for bit.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/crc32_internal.h"

namespace xssd {
namespace {

// The original byte-wise table loop, kept here as the reference.
uint32_t ReferenceCrc32c(const void* data, size_t len, uint32_t seed) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
      }
      t[i] = crc;
    }
    return t;
  }();
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

enum class KernelId : uint32_t { kHardware, kPortable, kDispatched };

// Plain bytes with no pointers and no padding: gtest prints the parameter's
// bytes into each test's name, and a pointer (or uninitialised padding)
// would make the names differ from one build or run to the next.
struct KernelCase {
  char name[16];
  KernelId kernel;
  uint32_t needs_hardware;
};

class Crc32cKernelTest : public ::testing::TestWithParam<KernelCase> {
 protected:
  void SetUp() override {
    if (GetParam().needs_hardware && !crc32_internal::HasHardwareCrc32c()) {
      GTEST_SKIP() << "CPU lacks SSE4.2";
    }
  }
  uint32_t Run(const void* data, size_t len, uint32_t seed = 0) {
    switch (GetParam().kernel) {
      case KernelId::kHardware:
        return crc32_internal::Crc32cHardware(data, len, seed);
      case KernelId::kPortable:
        return crc32_internal::Crc32cPortable(data, len, seed);
      case KernelId::kDispatched:
        return Crc32c(data, len, seed);
    }
    return 0;
  }
};

std::vector<uint8_t> RandomBytes(size_t len, uint32_t rng_seed) {
  std::mt19937 rng(rng_seed);
  std::vector<uint8_t> bytes(len);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng());
  return bytes;
}

TEST_P(Crc32cKernelTest, EveryLengthAndAlignmentMatchesReference) {
  constexpr size_t kMaxLen = 1024;
  constexpr size_t kAlignments = 8;
  std::vector<uint8_t> buffer = RandomBytes(kMaxLen + kAlignments, 12);
  std::mt19937 rng(34);
  for (size_t align = 0; align < kAlignments; ++align) {
    for (size_t len = 0; len <= kMaxLen; ++len) {
      uint32_t seed = static_cast<uint32_t>(rng());
      const uint8_t* p = buffer.data() + align;
      ASSERT_EQ(Run(p, len, seed), ReferenceCrc32c(p, len, seed))
          << "len " << len << " align " << align << " seed " << seed;
    }
  }
}

TEST_P(Crc32cKernelTest, DestagePageAndOobRecordMatchReference) {
  std::vector<uint8_t> page = RandomBytes(16 * 1024, 56);
  EXPECT_EQ(Run(page.data(), page.size()),
            ReferenceCrc32c(page.data(), page.size(), 0));
  std::vector<uint8_t> oob = RandomBytes(24, 78);
  EXPECT_EQ(Run(oob.data(), oob.size()),
            ReferenceCrc32c(oob.data(), oob.size(), 0));
}

TEST_P(Crc32cKernelTest, SeedChainsAcrossSplitPoints) {
  std::vector<uint8_t> data = RandomBytes(300, 90);
  const uint32_t whole = ReferenceCrc32c(data.data(), data.size(), 0);
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t head = Run(data.data(), split);
    ASSERT_EQ(Run(data.data() + split, data.size() - split, head), whole)
        << "split " << split;
  }
}

// RFC 3720 (iSCSI) appendix B.4 test vectors.
TEST_P(Crc32cKernelTest, Rfc3720Vectors) {
  std::array<uint8_t, 32> buf{};
  buf.fill(0x00);
  EXPECT_EQ(Run(buf.data(), buf.size()), 0x8A9136AAu);
  buf.fill(0xFF);
  EXPECT_EQ(Run(buf.data(), buf.size()), 0x62A8AB43u);
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(Run(buf.data(), buf.size()), 0x46DD794Eu);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(31 - i);
  }
  EXPECT_EQ(Run(buf.data(), buf.size()), 0x113FDB5Cu);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, Crc32cKernelTest,
    ::testing::Values(
        KernelCase{"Hardware", KernelId::kHardware, 1},
        KernelCase{"Portable", KernelId::kPortable, 0},
        KernelCase{"Dispatched", KernelId::kDispatched, 0}),
    [](const ::testing::TestParamInfo<KernelCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace xssd
