#include "core/destage_module.h"

#include <gtest/gtest.h>

#include "core/cmb_module.h"
#include "flash/array.h"
#include "ftl/ftl.h"

namespace xssd::core {
namespace {

flash::Geometry SmallGeometry() {
  flash::Geometry g;
  g.channels = 2;
  g.dies_per_channel = 2;
  g.blocks_per_plane = 16;
  g.pages_per_block = 16;
  g.page_bytes = 4096;
  return g;
}

class DestageTest : public ::testing::Test {
 protected:
  DestageTest()
      : array_(&sim_, SmallGeometry(), flash::Timing{}, flash::Reliability{},
               1),
        ftl_(&sim_, &array_, ftl::FtlConfig{}),
        cmb_(&sim_, CmbTestConfig()),
        destage_(&sim_, &ftl_, &cmb_, DestageTestConfig(), /*epoch=*/1) {
    cmb_.SetCreditHook(
        [this](uint64_t credit) { destage_.OnCreditAdvance(credit); });
  }

  static CmbConfig CmbTestConfig() {
    CmbConfig config;
    config.ring_bytes = 64 * 1024;
    config.queue_bytes = 8 * 1024;
    return config;
  }
  static DestageConfig DestageTestConfig() {
    DestageConfig config;
    config.ring_start_lba = 0;
    config.ring_lba_count = 16;
    config.latency_threshold = sim::Us(100);
    return config;
  }

  uint32_t Capacity() { return DestagePayloadCapacity(4096); }

  void WriteStream(uint64_t offset, size_t len, uint8_t fill) {
    // Split on ring wrap, as the host-side store path does.
    std::vector<uint8_t> data(len, fill);
    uint64_t ring_offset = offset % cmb_.ring_bytes();
    size_t first = static_cast<size_t>(
        std::min<uint64_t>(len, cmb_.ring_bytes() - ring_offset));
    cmb_.OnRingWrite(ring_offset, data.data(), first);
    if (first < len) cmb_.OnRingWrite(0, data.data() + first, len - first);
  }

  Result<ParsedDestagePage> ReadRingSlot(uint64_t slot) {
    Status status = Status::Internal("pending");
    std::vector<uint8_t> page;
    ftl_.ReadPage(ftl::IoClass::kConventional, slot,
                  [&](Status s, std::vector<uint8_t> d) {
                    status = s;
                    page = std::move(d);
                  });
    sim_.Run();
    if (!status.ok()) return status;
    return ParseDestagePage(page);
  }

  sim::Simulator sim_;
  flash::Array array_;
  ftl::Ftl ftl_;
  CmbModule cmb_;
  DestageModule destage_;
};

TEST_F(DestageTest, FullPageDestagesImmediately) {
  WriteStream(0, Capacity(), 0xAA);
  sim_.Run();
  EXPECT_EQ(destage_.destaged(), Capacity());
  EXPECT_EQ(destage_.stats().pages_written, 1u);
  EXPECT_EQ(destage_.stats().partial_pages, 0u);

  Result<ParsedDestagePage> page = ReadRingSlot(0);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_EQ(page->header.sequence, 0u);
  EXPECT_EQ(page->header.stream_offset, 0u);
  EXPECT_EQ(page->header.epoch, 1u);
  EXPECT_EQ(page->data.size(), Capacity());
  EXPECT_EQ(page->data[0], 0xAA);
}

TEST_F(DestageTest, PartialPageWaitsForLatencyThreshold) {
  WriteStream(0, 100, 0xBB);
  sim_.RunFor(sim::Us(50));
  EXPECT_EQ(destage_.destaged(), 0u);  // below threshold, waiting
  sim_.Run();  // threshold timer fires, partial destage with filler
  EXPECT_EQ(destage_.destaged(), 100u);
  EXPECT_EQ(destage_.stats().partial_pages, 1u);
  EXPECT_EQ(destage_.stats().filler_bytes, Capacity() - 100u);

  Result<ParsedDestagePage> page = ReadRingSlot(0);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->header.data_len, 100u);
}

TEST_F(DestageTest, StreamSplitsAcrossPagesInOrder) {
  const size_t total = 3 * Capacity() + 500;
  WriteStream(0, Capacity(), 1);
  WriteStream(Capacity(), Capacity(), 2);
  WriteStream(2 * Capacity(), Capacity(), 3);
  WriteStream(3 * Capacity(), 500, 4);
  sim_.Run();
  EXPECT_EQ(destage_.destaged(), total);
  EXPECT_EQ(destage_.stats().pages_written, 4u);
  // Page sequences carry chained stream offsets.
  uint64_t expected_offset = 0;
  for (uint64_t seq = 0; seq < 4; ++seq) {
    Result<ParsedDestagePage> page = ReadRingSlot(seq);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page->header.sequence, seq);
    EXPECT_EQ(page->header.stream_offset, expected_offset);
    expected_offset += page->header.data_len;
  }
  EXPECT_EQ(expected_offset, total);
}

TEST_F(DestageTest, DestagedFloorPropagatedToCmb) {
  WriteStream(0, Capacity(), 5);
  sim_.Run();
  EXPECT_EQ(cmb_.destaged_floor(), Capacity());
}

TEST_F(DestageTest, BarrierWithholdsDestaging) {
  destage_.SetBarrier(50);
  WriteStream(0, Capacity(), 6);
  sim_.Run();
  EXPECT_EQ(destage_.destaged(), 50u);  // only below the barrier
  destage_.SetBarrier(~0ull);
  sim_.Run();
  EXPECT_EQ(destage_.destaged(), Capacity());
}

TEST_F(DestageTest, RingWrapsOverLbaRange) {
  // 16-slot ring; destage 20 pages worth.
  for (int i = 0; i < 20; ++i) {
    WriteStream(static_cast<uint64_t>(i) * Capacity(), Capacity(),
                static_cast<uint8_t>(i));
    sim_.Run();
  }
  EXPECT_EQ(destage_.next_sequence(), 20u);
  // Slot 0 now holds sequence 16 (overwritten on wrap).
  Result<ParsedDestagePage> page = ReadRingSlot(0);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->header.sequence, 16u);
  // Slot 4 still holds sequence 4 from the first lap.
  page = ReadRingSlot(4);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->header.sequence, 4u);
}

TEST_F(DestageTest, RingWrapTrimsSupersededSlotsBeforeReuse) {
  // First lap: 16 slots, no reuse, no trims.
  for (int i = 0; i < 16; ++i) {
    WriteStream(static_cast<uint64_t>(i) * Capacity(), Capacity(),
                static_cast<uint8_t>(i));
    sim_.Run();
  }
  EXPECT_EQ(destage_.stats().ring_trims, 0u);
  EXPECT_EQ(ftl_.page_map().mapped_pages(), 16u);

  // Second lap: each reused slot is TRIMmed before its rewrite, handing
  // the stale copy back to GC as immediate garbage instead of leaving it
  // valid until the overwrite's map update.
  for (int i = 16; i < 20; ++i) {
    WriteStream(static_cast<uint64_t>(i) * Capacity(), Capacity(),
                static_cast<uint8_t>(i));
    sim_.Run();
  }
  EXPECT_EQ(destage_.stats().ring_trims, 4u);
  // The ring never holds more than ring_lba_count mapped pages, and the
  // wrapped slots read back as their newest lap.
  EXPECT_EQ(ftl_.page_map().mapped_pages(), 16u);
  for (uint64_t slot = 0; slot < 4; ++slot) {
    Result<ParsedDestagePage> page = ReadRingSlot(slot);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page->header.sequence, 16u + slot);
  }
}

TEST_F(DestageTest, PowerLossDestagesEverythingPersisted) {
  WriteStream(0, 1000, 0xCC);
  sim_.Run();  // persisted but below a page: destage pending on threshold
  WriteStream(1000, 500, 0xDD);
  // Don't run: the second chunk is still in the staging queue.
  destage_.set_frozen(true);
  cmb_.DrainStagingForPowerLoss();
  bool done = false;
  destage_.DestageAllForPowerLoss(/*page_budget=*/16,
                                 [&](uint32_t) { done = true; });
  sim_.RunWhile([&]() { return done; });
  EXPECT_EQ(destage_.destaged(), 1500u);
}

TEST_F(DestageTest, PowerLossRespectsEnergyBudget) {
  // 10 pages persisted, budget for 2.
  destage_.set_frozen(true);
  for (int i = 0; i < 10; ++i) {
    WriteStream(static_cast<uint64_t>(i) * Capacity(), Capacity(),
                static_cast<uint8_t>(i));
  }
  cmb_.DrainStagingForPowerLoss();
  uint64_t already = destage_.stats().pages_written;
  bool done = false;
  destage_.DestageAllForPowerLoss(/*page_budget=*/2,
                                 [&](uint32_t) { done = true; });
  sim_.RunWhile([&]() { return done; });
  EXPECT_LE(destage_.stats().pages_written - already, 2u + 1);
}

TEST_F(DestageTest, PowerLossBudgetIsAHardCapOnIssuedPages) {
  // 10 pages persisted and a pipeline deep enough to issue them all in
  // one go: the budget, not the pipeline depth, bounds what is written.
  destage_.set_frozen(true);
  for (int i = 0; i < 10; ++i) {
    WriteStream(static_cast<uint64_t>(i) * Capacity(), Capacity(),
                static_cast<uint8_t>(i));
  }
  cmb_.DrainStagingForPowerLoss();
  uint64_t already = destage_.stats().pages_written;
  uint32_t charged = 0;
  bool done = false;
  destage_.DestageAllForPowerLoss(/*page_budget=*/3, [&](uint32_t pages) {
    charged = pages;
    done = true;
  });
  sim_.Run();  // let every issued page land
  ASSERT_TRUE(done);
  EXPECT_EQ(charged, 3u);
  EXPECT_EQ(destage_.stats().pages_written - already, 3u);
  EXPECT_EQ(destage_.destaged(), 3u * Capacity());
}

}  // namespace
}  // namespace xssd::core
