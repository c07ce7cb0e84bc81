#include <gtest/gtest.h>
#include <sys/resource.h>

#include "host/node.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define XSSD_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define XSSD_TEST_SANITIZED 1
#endif
#endif

namespace xssd::host {
namespace {

long MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

// Building a node must not fault in its fabric's host-memory image: the
// 64 MiB default is 16384 pages, of which the NVMe driver touches only its
// queues and DMA buffers. The geometry is the conformance harness device,
// which every check_campaign schedule builds one to three times.
TEST(NodeFootprint, AssemblyFaultsInFewPages) {
#ifdef XSSD_TEST_SANITIZED
  GTEST_SKIP() << "sanitizer shadow memory adds page faults";
#endif
  core::VillarsConfig config;
  config.geometry.channels = 2;
  config.geometry.dies_per_channel = 2;
  config.geometry.blocks_per_plane = 16;
  config.geometry.pages_per_block = 32;
  config.destage.ring_lba_count = 64;
  config.transport.retransmit_timeout = sim::Us(200);

  sim::Simulator sim;
  long before = MinorFaults();
  StorageNode node(&sim, config, pcie::FabricConfig{}, "footprint");
  ASSERT_TRUE(node.Init().ok());
  long faults = MinorFaults() - before;
  RecordProperty("minor_faults", static_cast<int>(faults));
  EXPECT_LT(faults, 4096) << "node assembly faulted in " << faults << " pages";
}

}  // namespace
}  // namespace xssd::host
