// Plan-driven crash points and what survives them: graceful crashes keep
// the acknowledged prefix recoverable, hard crashes lose the fast side but
// never fabricate bytes, and the recovered run never spans a gap even when
// the crash fires mid-ring-wrap. Also the host half: a sync against a
// halted device fails fast and Reconnect() restores service.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>

#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "host/node.h"
#include "host/recovery.h"
#include "host/xcalls.h"
#include "sim/random.h"

namespace xssd {
namespace {

core::VillarsConfig SmallConfig() {
  core::VillarsConfig config;
  config.geometry.channels = 2;
  config.geometry.dies_per_channel = 2;
  config.geometry.blocks_per_plane = 16;
  config.geometry.pages_per_block = 32;
  config.destage.ring_lba_count = 64;
  return config;
}

fault::FaultPlan CrashPlan(const std::string& site, uint32_t after_hits,
                           bool graceful) {
  fault::FaultPlan plan;
  plan.name = "crash";
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kCrash;
  spec.site = site;
  spec.after_hits = after_hits;
  spec.graceful = graceful;
  plan.faults.push_back(spec);
  return plan;
}

/// Drives a random append workload against `node` and pumps the simulator
/// until `stop` turns true (the crash landed and any emergency destage
/// finished). A plain Run() would never return: after the device halts the
/// client polls the frozen credit register forever. Returns bytes submitted.
size_t AppendUntil(host::StorageNode& node, const std::vector<uint8_t>& stream,
                   sim::Rng& rng, const std::function<bool()>& stop) {
  auto submitted = std::make_shared<size_t>(0);
  auto append_next = std::make_shared<std::function<void()>>();
  // The closure holds itself weakly: only an outstanding append's callback
  // keeps it alive, so it is freed once the chain stops.
  *append_next = [&node, &stream, &rng, submitted,
                  weak = std::weak_ptr<std::function<void()>>(append_next)]() {
    size_t chunk = std::min<size_t>(32 + rng.Uniform(700),
                                    stream.size() - *submitted);
    if (chunk == 0) return;
    node.client().Append(stream.data() + *submitted, chunk,
                         [next = weak.lock()](Status) { (*next)(); });
    *submitted += chunk;
  };
  (*append_next)();
  node.simulator().RunWhile(stop);
  return *submitted;
}

TEST(FaultCrashTest, PlanDrivenGracefulCrashStopsExactlyAtTheGap) {
  // The JSON plan format drives the crash end to end: the clause names a
  // persist-path site, so one staged chunk falls on the floor. The credit
  // counter can never cross the resulting hole, and recovery must stop on
  // it too — exactly, not approximately.
  Result<fault::FaultPlan> plan = fault::ParseFaultPlan(R"({
    "name": "persist-crash",
    "faults": [
      {"kind": "crash", "site": "cmb.persist", "after_hits": 12}
    ]
  })");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  sim::Simulator sim;
  host::StorageNode node(&sim, SmallConfig(), pcie::FabricConfig{}, "gc");
  ASSERT_TRUE(node.Init().ok());
  fault::FaultInjector injector(&sim, *plan, 11);
  node.ArmFaults(&injector, /*install_crash_handler=*/false);
  bool drained = false;
  injector.SetCrashHandler([&](const fault::FaultSpec& spec) {
    EXPECT_TRUE(spec.graceful);
    node.device().PowerFail([&]() { drained = true; });
  });

  sim::Rng rng(11);
  std::vector<uint8_t> stream(60000);
  for (auto& b : stream) b = static_cast<uint8_t>(rng.Next());
  size_t submitted = AppendUntil(node, stream, rng, [&]() { return drained; });

  ASSERT_TRUE(injector.crashed());
  ASSERT_TRUE(drained);
  EXPECT_EQ(injector.totals().crashes, 1u);
  uint64_t acknowledged = node.device().cmb().local_credit();
  // Hit 12 fell mid-stream, so the gap sits strictly inside what the host
  // pushed: bytes beyond it arrived (and drained) but cannot be credited.
  ASSERT_LT(acknowledged, submitted);

  node.device().Reboot();
  Result<host::RecoveredLog> recovered = host::RecoverLog(
      sim, node.driver(), node.device().destage().ring_start_lba(),
      node.device().destage().ring_lba_count());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  // Everything acknowledged, nothing past the gap.
  EXPECT_EQ(recovered->end_offset(), acknowledged);
  EXPECT_EQ(std::memcmp(recovered->data.data(),
                        stream.data() + recovered->start_offset,
                        recovered->data.size()),
            0);
}

TEST(FaultCrashTest, HardCrashLosesTheFastSideButNeverFabricatesBytes) {
  // graceful=false routes through the device's installed crash handler to
  // CrashHard(): no supercap drain, so acknowledged-but-undestaged bytes
  // genuinely die. Recovery may fall short of the credit — that is the
  // failure mode being modeled — but what it does return must still be
  // byte-exact and contiguous.
  sim::Simulator sim;
  host::StorageNode node(&sim, SmallConfig(), pcie::FabricConfig{}, "hc");
  ASSERT_TRUE(node.Init().ok());
  fault::FaultInjector injector(
      &sim, CrashPlan("destage.emit_page", 3, /*graceful=*/false), 7);
  node.ArmFaults(&injector);

  sim::Rng rng(7);
  std::vector<uint8_t> stream(60000);
  for (auto& b : stream) b = static_cast<uint8_t>(rng.Next());
  size_t submitted =
      AppendUntil(node, stream, rng, [&]() { return injector.crashed(); });
  ASSERT_TRUE(injector.crashed());
  uint64_t acknowledged = node.device().cmb().local_credit();
  // Let the two already-issued page programs land on flash before reboot.
  sim.RunFor(sim::Ms(5));

  node.device().Reboot();
  Result<host::RecoveredLog> recovered = host::RecoverLog(
      sim, node.driver(), node.device().destage().ring_start_lba(),
      node.device().destage().ring_lba_count());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  // The crash fired before the third page was even emitted; everything
  // acknowledged past the first two pages was never destaged and is gone.
  EXPECT_GT(recovered->end_offset(), 0u);
  EXPECT_LT(recovered->end_offset(), acknowledged);
  EXPECT_LE(recovered->end_offset(), submitted);
  EXPECT_EQ(std::memcmp(recovered->data.data(),
                        stream.data() + recovered->start_offset,
                        recovered->data.size()),
            0);
}

// Property sweep for the crash sites, mid-ring-wrap: the stream is larger
// than the 128 KiB PM ring and after_hits places the crash past the wrap
// point (persist hits are one per appended chunk, mean ~382 bytes; destage
// hits are one per ~16 KiB page, so the ring wraps after hit 9). Whatever
// the site and placement, RecoverLog must cover the acknowledged prefix
// (graceful crashes drain on supercap), return exact bytes, and never
// cross a gap.
struct CrashSiteCase {
  const char* site;
  uint32_t min_hits;  ///< first after_hits past the ring-wrap point
  uint32_t max_hits;  ///< last after_hits guaranteed to fire mid-stream
};

class CrashSitePropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(CrashSitePropertyTest, MidWrapCrashNeverRecoversPastAGap) {
  static constexpr CrashSiteCase kCases[] = {
      {"cmb.persist", 420, 700},
      {"destage.emit_page", 10, 16},
      {"destage.page_complete", 10, 16},
  };
  const uint64_t seed = std::get<0>(GetParam());
  const CrashSiteCase& site = kCases[std::get<1>(GetParam())];

  sim::Rng rng(seed * 977 + std::get<1>(GetParam()));
  sim::Simulator sim;
  core::VillarsConfig config = SmallConfig();
  host::StorageNode node(&sim, config, pcie::FabricConfig{}, "wrap");
  ASSERT_TRUE(node.Init().ok());

  uint32_t after_hits =
      site.min_hits +
      static_cast<uint32_t>(rng.Uniform(site.max_hits - site.min_hits));
  fault::FaultInjector injector(
      &sim, CrashPlan(site.site, after_hits, /*graceful=*/true), seed);
  node.ArmFaults(&injector, /*install_crash_handler=*/false);
  bool drained = false;
  injector.SetCrashHandler([&](const fault::FaultSpec&) {
    node.device().PowerFail([&]() { drained = true; });
  });

  // > 128 KiB so the PM ring wraps while the workload runs.
  std::vector<uint8_t> stream(300000);
  for (auto& b : stream) b = static_cast<uint8_t>(rng.Next());
  size_t submitted = AppendUntil(node, stream, rng, [&]() { return drained; });

  ASSERT_TRUE(injector.crashed())
      << site.site << " after_hits=" << after_hits << " never fired";
  ASSERT_TRUE(drained);
  uint64_t acknowledged = node.device().cmb().local_credit();
  // Witness that the crash really landed past the first ring wrap.
  EXPECT_GT(acknowledged, config.cmb.ring_bytes)
      << site.site << " after_hits=" << after_hits;

  node.device().Reboot();
  Result<host::RecoveredLog> recovered = host::RecoverLog(
      sim, node.driver(), node.device().destage().ring_start_lba(),
      node.device().destage().ring_lba_count());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  // (a) graceful crash: nothing acknowledged is lost.
  EXPECT_GE(recovered->end_offset(), acknowledged)
      << "acknowledged bytes lost (site " << site.site << ", seed " << seed
      << ")";
  // (b) bytes are exact.
  ASSERT_LE(recovered->end_offset(), submitted);
  EXPECT_EQ(std::memcmp(recovered->data.data(),
                        stream.data() + recovered->start_offset,
                        recovered->data.size()),
            0)
      << "recovered bytes differ (site " << site.site << ", seed " << seed
      << ")";
  // (c) never past a gap: a persist-path crash pins the credit below the
  // hole, and the contiguous recovered run must respect it exactly.
  if (std::string_view(site.site) == "cmb.persist") {
    EXPECT_EQ(recovered->end_offset(), acknowledged);
    EXPECT_LT(recovered->end_offset(), submitted);
  }
}

INSTANTIATE_TEST_SUITE_P(SeedsBySite, CrashSitePropertyTest,
                         ::testing::Combine(::testing::Range<uint64_t>(0, 6),
                                            ::testing::Range(0, 3)));

TEST(FaultCrashTest, SyncAgainstHaltedDeviceFailsThenReconnectRestores) {
  // The host half of crash handling: a hard crash under an in-flight sync
  // must surface as Unavailable (not hang), and Reconnect() must establish
  // a working session against the rebooted device.
  sim::Simulator sim;
  host::XLogClientOptions options;
  options.sync_stall_timeout = sim::Ms(1);
  host::StorageNode node(&sim, SmallConfig(), pcie::FabricConfig{}, "rc",
                         options);
  ASSERT_TRUE(node.Init().ok());
  fault::FaultInjector injector(
      &sim, CrashPlan("cmb.persist", 3, /*graceful=*/false), 13);
  node.ArmFaults(&injector);

  // Three appends land as three persist events; the crash eats the third.
  std::vector<uint8_t> wal(9000, 0xC4);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(host::x_pwrite(sim, node.client(), wal.data() + 3000 * i, 3000),
              3000);
  }
  sim.RunFor(sim::Us(50));  // appends are posted; let the persists land
  ASSERT_TRUE(injector.crashed());
  EXPECT_EQ(node.device().cmb().local_credit(), 6000u);

  Status sync_status = Status::OK();
  node.client().Sync([&](Status status) { sync_status = status; });
  sim.Run();
  EXPECT_EQ(sync_status.code(), StatusCode::kUnavailable)
      << sync_status.ToString();
  EXPECT_EQ(node.client().sync_failures(), 1u);

  node.device().Reboot();
  ASSERT_TRUE(node.client().Reconnect().ok());
  EXPECT_EQ(node.client().reconnects(), 1u);
  EXPECT_EQ(node.client().written(), 0u);  // fresh epoch, fresh stream

  // The restored session logs durably again.
  std::vector<uint8_t> next(5000, 0x19);
  ASSERT_EQ(host::x_pwrite(sim, node.client(), next.data(), next.size()),
            static_cast<ssize_t>(next.size()));
  EXPECT_EQ(host::x_fsync(sim, node.client()), 0);
  EXPECT_GE(node.device().cmb().local_credit(), next.size());
}

TEST(FaultCrashTest, NvmeTimeoutSurfacesAsIoErrorThenClears) {
  // Injected command timeouts: IO submitted inside the window completes
  // late with an error; after the window the same path works.
  sim::Simulator sim;
  host::StorageNode node(&sim, SmallConfig(), pcie::FabricConfig{}, "to");
  ASSERT_TRUE(node.Init().ok());

  fault::FaultPlan plan;
  plan.name = "nvme";
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kNvmeTimeout;
  spec.at = 0;
  spec.duration = sim::Ms(1);
  spec.delay = sim::Us(10);
  plan.faults.push_back(spec);
  fault::FaultInjector injector(&sim, plan, 3);
  node.ArmFaults(&injector);

  std::vector<uint8_t> block(16 * 1024, 0x42);  // one 16 KiB flash page
  Status write_status = Status::OK();
  sim::SimTime issued_at = sim.Now();
  node.driver().Write(100, block.data(), 1,
                      [&](Status status) { write_status = status; });
  sim.Run();
  EXPECT_EQ(write_status.code(), StatusCode::kIoError);
  // The error is a *late* completion — the injected abort delay elapsed.
  EXPECT_GE(sim.Now(), issued_at + sim::Us(10));
  EXPECT_EQ(injector.totals().nvme_timeouts, 1u);

  sim.RunFor(sim::Ms(2));  // leave the fault window
  write_status = Status::IoError("unset");
  node.driver().Write(100, block.data(), 1,
                      [&](Status status) { write_status = status; });
  sim.Run();
  ASSERT_TRUE(write_status.ok()) << write_status.ToString();
  std::vector<uint8_t> out;
  Status read_status = Status::IoError("unset");
  node.driver().Read(100, 1, [&](Status status, std::vector<uint8_t> data) {
    read_status = status;
    out = std::move(data);
  });
  sim.Run();
  ASSERT_TRUE(read_status.ok());
  EXPECT_EQ(out, block);
}

}  // namespace
}  // namespace xssd
