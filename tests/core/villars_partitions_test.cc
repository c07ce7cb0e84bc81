// Multi-partition VillarsDevice (paper §7.2): two tenants on one device,
// each with its own fast side over the shared conventional side.

#include <gtest/gtest.h>

#include <cstring>

#include "core/villars_device.h"
#include "host/recovery.h"
#include "host/sync.h"
#include "host/xlog_client.h"
#include "nvme/driver.h"
#include "obs/metrics.h"

namespace xssd::core {
namespace {

VillarsConfig TwoTenantConfig() {
  VillarsConfig config;
  config.geometry.channels = 2;
  config.geometry.dies_per_channel = 2;
  config.geometry.blocks_per_plane = 16;
  config.geometry.pages_per_block = 32;

  // Tenant A is partition 0.
  config.cmb.ring_bytes = 64 * 1024;
  config.cmb.queue_bytes = 16 * 1024;
  config.destage.ring_start_lba = 0;
  config.destage.ring_lba_count = 32;

  PartitionConfig tenant_b;
  tenant_b.cmb.ring_bytes = 32 * 1024;
  tenant_b.cmb.queue_bytes = 8 * 1024;
  tenant_b.destage.ring_start_lba = 32;  // disjoint destage ring
  tenant_b.destage.ring_lba_count = 32;

  config.extra_partitions = {tenant_b};
  return config;
}

/// Two tenants where tenant B's BAR also carries two term-fenced intake
/// aliases.
VillarsConfig FencedTenantConfig() {
  VillarsConfig config = TwoTenantConfig();
  config.extra_partitions[0].cmb.peer_intake_slots = 2;
  return config;
}

constexpr uint64_t kBar0 = 0xF000'0000ull;
constexpr uint64_t kCmb = 0xE000'0000ull;

class PartitionedTest : public ::testing::Test {
 protected:
  explicit PartitionedTest(const VillarsConfig& config = TwoTenantConfig())
      : fabric_(&sim_, pcie::FabricConfig{}, "fabric"),
        device_(&sim_, &fabric_, config, "mt"),
        driver_(&sim_, &fabric_, &device_.controller(), kBar0) {
    EXPECT_TRUE(device_.Attach(kBar0, kCmb).ok());
    EXPECT_TRUE(driver_.Initialize().ok());
    client_a_ = std::make_unique<host::XLogClient>(
        &sim_, &fabric_, device_.partition_base(0));
    client_b_ = std::make_unique<host::XLogClient>(
        &sim_, &fabric_, device_.partition_base(1));
    EXPECT_TRUE(client_a_->Setup().ok());
    EXPECT_TRUE(client_b_->Setup().ok());
  }

  Status AppendDurableSync(host::XLogClient& client,
                           const std::vector<uint8_t>& data) {
    host::SyncRunner runner(&sim_);
    return runner.Await([&](std::function<void(Status)> done) {
      client.AppendDurable(data.data(), data.size(), std::move(done));
    });
  }

  nvme::Completion Admin(nvme::Command cmd) {
    nvme::Completion result;
    bool got = false;
    driver_.Admin(cmd, [&](nvme::Completion cpl) {
      result = cpl;
      got = true;
    });
    sim_.RunWhile([&]() { return got; });
    return result;
  }

  uint64_t ReadRegister(size_t partition, uint64_t reg) {
    uint8_t raw[8] = {0};
    EXPECT_TRUE(fabric_
                    .FunctionalRead(device_.partition_base(partition) + reg,
                                    raw, 8)
                    .ok());
    uint64_t value = 0;
    std::memcpy(&value, raw, 8);
    return value;
  }

  sim::Simulator sim_;
  pcie::PcieFabric fabric_;
  VillarsDevice device_;
  nvme::Driver driver_;
  std::unique_ptr<host::XLogClient> client_a_;
  std::unique_ptr<host::XLogClient> client_b_;
};

TEST_F(PartitionedTest, ClientsSeeTheirOwnGeometry) {
  EXPECT_EQ(client_a_->ring_bytes(), 64u * 1024);
  EXPECT_EQ(client_a_->queue_bytes(), 16u * 1024);
  EXPECT_EQ(client_b_->ring_bytes(), 32u * 1024);
  EXPECT_EQ(client_b_->queue_bytes(), 8u * 1024);
}

TEST_F(PartitionedTest, IndependentCreditCounters) {
  std::vector<uint8_t> a(3000, 0xAA), b(1000, 0xBB);
  ASSERT_TRUE(AppendDurableSync(*client_a_, a).ok());
  EXPECT_EQ(device_.cmb(0).local_credit(), 3000u);
  EXPECT_EQ(device_.cmb(1).local_credit(), 0u);  // isolated

  ASSERT_TRUE(AppendDurableSync(*client_b_, b).ok());
  EXPECT_EQ(device_.cmb(0).local_credit(), 3000u);
  EXPECT_EQ(device_.cmb(1).local_credit(), 1000u);
}

TEST_F(PartitionedTest, TenantsDataDoesNotCrossRings) {
  std::vector<uint8_t> a(500, 0xAA), b(500, 0xBB);
  ASSERT_TRUE(AppendDurableSync(*client_a_, a).ok());
  ASSERT_TRUE(AppendDurableSync(*client_b_, b).ok());
  std::vector<uint8_t> out(500);
  device_.cmb(0).CopyOut(0, out.data(), 500);
  EXPECT_EQ(out, a);
  device_.cmb(1).CopyOut(0, out.data(), 500);
  EXPECT_EQ(out, b);
}

TEST_F(PartitionedTest, TenantsDestageToDisjointLbaRanges) {
  std::vector<uint8_t> a(2000, 0xA1), b(2000, 0xB2);
  ASSERT_TRUE(AppendDurableSync(*client_a_, a).ok());
  ASSERT_TRUE(AppendDurableSync(*client_b_, b).ok());
  sim_.RunFor(sim::Ms(2));  // allow threshold destage for both
  EXPECT_EQ(device_.destage(0).destaged(), 2000u);
  EXPECT_EQ(device_.destage(1).destaged(), 2000u);

  // Each tenant reads its own destaged tail via the shared block device.
  std::vector<uint8_t> tail(2000);
  host::SyncRunner runner(&sim_);
  auto read_tail = [&](host::XLogClient& client) {
    return runner.AwaitValue<std::vector<uint8_t>>(
        [&](std::function<void(Status, std::vector<uint8_t>)> done) {
          client.ReadTail(&driver_, 2000, std::move(done));
        });
  };
  auto got_a = read_tail(*client_a_);
  ASSERT_TRUE(got_a.ok());
  EXPECT_EQ(*got_a, a);
  auto got_b = read_tail(*client_b_);
  ASSERT_TRUE(got_b.ok());
  EXPECT_EQ(*got_b, b);
}

TEST_F(PartitionedTest, VendorCommandsTargetPartitionByCdw13) {
  nvme::Command cmd;
  cmd.opcode = static_cast<uint8_t>(nvme::AdminOpcode::kXssdSetReplication);
  cmd.cdw10 = static_cast<uint32_t>(ReplicationProtocol::kLazy);
  cmd.cdw13 = 1;  // tenant B only
  bool got = false;
  nvme::Completion result;
  driver_.Admin(cmd, [&](nvme::Completion cpl) {
    result = cpl;
    got = true;
  });
  sim_.RunWhile([&]() { return got; });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(device_.transport(1).protocol(), ReplicationProtocol::kLazy);
  EXPECT_EQ(device_.transport(0).protocol(), ReplicationProtocol::kEager);

  cmd.cdw13 = 9;  // no such partition
  got = false;
  driver_.Admin(cmd, [&](nvme::Completion cpl) {
    result = cpl;
    got = true;
  });
  sim_.RunWhile([&]() { return got; });
  EXPECT_FALSE(result.ok());
}

TEST_F(PartitionedTest, ConcurrentTenantsInterleaveSafely) {
  // Both tenants stream concurrently; bytes stay tenant-local.
  std::vector<uint8_t> a(20000), b(20000);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<uint8_t>(i);
    b[i] = static_cast<uint8_t>(i ^ 0xFF);
  }
  bool done_a = false, done_b = false;
  client_a_->AppendDurable(a.data(), a.size(),
                           [&](Status s) { done_a = s.ok(); });
  client_b_->AppendDurable(b.data(), b.size(),
                           [&](Status s) { done_b = s.ok(); });
  sim_.RunWhile([&]() { return done_a && done_b; });
  ASSERT_TRUE(done_a && done_b);

  std::vector<uint8_t> out(20000);
  device_.cmb(0).CopyOut(0, out.data(), out.size());
  EXPECT_EQ(out, a);
  device_.cmb(1).CopyOut(0, out.data(), out.size());
  EXPECT_EQ(out, b);
}

TEST_F(PartitionedTest, BarLayoutIsBackToBack) {
  EXPECT_EQ(device_.partition_base(0), kCmb);
  EXPECT_EQ(device_.partition_base(1),
            kCmb + kCtrlPageBytes + 64 * 1024);
  EXPECT_EQ(device_.cmb_bar_bytes(),
            2 * kCtrlPageBytes + 64 * 1024 + 32 * 1024);
}

class PartitionedIntakeTest : public PartitionedTest {
 protected:
  PartitionedIntakeTest() : PartitionedTest(FencedTenantConfig()) {}
};

TEST_F(PartitionedIntakeTest, SecondPartitionHasItsOwnRegistersAndTermFence) {
  // Partition 1's BAR slice carries its two intake aliases.
  EXPECT_EQ(device_.partition_base(1), kCmb + kCtrlPageBytes + 64 * 1024);
  EXPECT_EQ(device_.cmb_bar_bytes(),
            2 * kCtrlPageBytes + 64 * 1024 + 3 * 32 * 1024);

  // Authorise member slot 1 at term 2, in partition 1 only.
  nvme::Command set_term;
  set_term.opcode = static_cast<uint8_t>(nvme::AdminOpcode::kXssdSetTerm);
  set_term.cdw10 = 2;
  set_term.cdw11 = 1;
  set_term.cdw13 = 1;
  ASSERT_TRUE(Admin(set_term).ok());
  EXPECT_EQ(ReadRegister(1, kRegTerm), 2u);
  EXPECT_EQ(ReadRegister(1, kRegWriterTermBase + 8), 2u);
  EXPECT_EQ(ReadRegister(1, kRegEpoch), 0u);
  EXPECT_EQ(ReadRegister(1, kRegFencedWrites), 0u);

  const uint64_t ring_b = 32 * 1024;
  const uint64_t alias0 =
      device_.partition_base(1) + kRingWindowOffset + ring_b;
  const uint64_t alias1 = alias0 + ring_b;

  // Slot 0 was never authorised at term 2: its push is fenced.
  std::vector<uint8_t> stale(64, 0xEE);
  ASSERT_TRUE(fabric_.FunctionalWrite(alias0, stale.data(), stale.size()).ok());
  sim_.RunFor(sim::Ms(1));
  EXPECT_EQ(ReadRegister(1, kRegFencedWrites), 1u);
  EXPECT_EQ(device_.cmb(1).local_credit(), 0u);

  // Slot 1 holds the current term: admitted into partition 1's ring.
  std::vector<uint8_t> fresh(64, 0x41);
  ASSERT_TRUE(fabric_.FunctionalWrite(alias1, fresh.data(), fresh.size()).ok());
  sim_.RunFor(sim::Ms(1));
  EXPECT_EQ(ReadRegister(1, kRegFencedWrites), 1u);
  EXPECT_EQ(device_.cmb(1).local_credit(), fresh.size());

  // Partition 0 saw none of it.
  EXPECT_EQ(ReadRegister(0, kRegTerm), 0u);
  EXPECT_EQ(ReadRegister(0, kRegFencedWrites), 0u);
  EXPECT_EQ(device_.cmb(0).local_credit(), 0u);
}

TEST_F(PartitionedTest, PowerFailAndRebootCoverEveryPartition) {
  std::vector<uint8_t> a(3000, 0xA5), b(1500, 0xB6);
  ASSERT_TRUE(AppendDurableSync(*client_a_, a).ok());
  ASSERT_TRUE(AppendDurableSync(*client_b_, b).ok());
  // Both tails are below a page and still wait on the latency threshold.
  ASSERT_EQ(device_.destage(0).destaged(), 0u);
  ASSERT_EQ(device_.destage(1).destaged(), 0u);

  auto pages = [&]() {
    return device_.destage(0).stats().pages_written +
           device_.destage(1).stats().pages_written;
  };
  uint64_t pages_before = pages();
  int done_calls = 0;
  uint64_t destaged_a = 0, destaged_b = 0;
  device_.PowerFail([&]() {
    ++done_calls;
    destaged_a = device_.destage(0).destaged();
    destaged_b = device_.destage(1).destaged();
  });
  sim_.RunWhile([&]() { return done_calls > 0; });
  sim_.RunFor(sim::Ms(5));
  EXPECT_EQ(done_calls, 1);
  EXPECT_EQ(destaged_a, a.size());  // both drained before `done`
  EXPECT_EQ(destaged_b, b.size());
  EXPECT_LE(pages() - pages_before,
            device_.config().power.supercap_page_budget);
  EXPECT_TRUE(device_.halted());
  EXPECT_NE(ReadRegister(0, kRegTransportStatus) & StatusBits::kHalted, 0u);
  EXPECT_NE(ReadRegister(1, kRegTransportStatus) & StatusBits::kHalted, 0u);

  device_.Reboot();
  EXPECT_FALSE(device_.halted());
  EXPECT_EQ(device_.epoch(0), 1u);
  EXPECT_EQ(device_.epoch(1), 1u);
  EXPECT_EQ(ReadRegister(0, kRegEpoch), 1u);
  EXPECT_EQ(ReadRegister(1, kRegEpoch), 1u);
  EXPECT_EQ(ReadRegister(1, kRegLocalCredit), 0u);  // fresh fast side

  // Each tenant's bytes come back from its own destage ring.
  auto log_a = host::RecoverLog(sim_, driver_, 0, 32);
  ASSERT_TRUE(log_a.ok());
  EXPECT_EQ(log_a->data, a);
  auto log_b = host::RecoverLog(sim_, driver_, 32, 32);
  ASSERT_TRUE(log_b.ok());
  EXPECT_EQ(log_b->data, b);
}

VillarsConfig OnePageSupercapConfig() {
  VillarsConfig config = TwoTenantConfig();
  config.power.supercap_page_budget = 1;
  return config;
}

class PartitionedSupercapTest : public PartitionedTest {
 protected:
  PartitionedSupercapTest() : PartitionedTest(OnePageSupercapConfig()) {}
};

TEST_F(PartitionedSupercapTest, OneEnergyStoreServesAllPartitions) {
  // Each tenant needs one page; the supercap holds energy for one in all.
  std::vector<uint8_t> a(3000, 0xA5), b(1500, 0xB6);
  ASSERT_TRUE(AppendDurableSync(*client_a_, a).ok());
  ASSERT_TRUE(AppendDurableSync(*client_b_, b).ok());
  bool done = false;
  device_.PowerFail([&]() { done = true; });
  sim_.RunWhile([&]() { return done; });
  sim_.RunFor(sim::Ms(5));
  ASSERT_TRUE(done);
  EXPECT_EQ(device_.destage(0).stats().pages_written +
                device_.destage(1).stats().pages_written,
            1u);
  EXPECT_EQ(device_.destage(0).destaged(), a.size());
  EXPECT_EQ(device_.destage(1).destaged(), 0u);
}

TEST_F(PartitionedTest, MetricsAreNamespacedPerPartition) {
  obs::MetricsRegistry registry;
  device_.EnableMetrics(&registry);
  std::vector<uint8_t> a(3000, 0xAA), b(1000, 0xBB);
  ASSERT_TRUE(AppendDurableSync(*client_a_, a).ok());
  ASSERT_TRUE(AppendDurableSync(*client_b_, b).ok());
  const obs::Counter* bytes_a = registry.FindCounter("cmb.append_bytes");
  const obs::Counter* bytes_b = registry.FindCounter("part1.cmb.append_bytes");
  ASSERT_NE(bytes_a, nullptr);
  ASSERT_NE(bytes_b, nullptr);
  EXPECT_EQ(bytes_a->value(), a.size());
  EXPECT_EQ(bytes_b->value(), b.size());
}

}  // namespace
}  // namespace xssd::core
