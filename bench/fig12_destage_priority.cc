// Figure 12 — Effects of Opportunistic Destaging (paper §6.4).
//
// A conventional block-write workload sized at ~50% of the device's flash
// write bandwidth runs together with a fast-side append workload swept
// from 30% to 60%, under the three scheduling policies.
//
// Paper shape: with Neutral priority both workloads are served until the
// device runs out of bandwidth, then they interfere and both degrade;
// with Conventional priority the conventional throughput is preserved
// regardless of the fast load (Destage priority is symmetric).

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "host/node.h"

namespace xssd {
namespace {

struct CellResult {
  double conv_mb_s;
  double fast_mb_s;
};

CellResult RunOne(ftl::SchedulingPolicy policy, double conv_frac,
                  double fast_frac, sim::SimTime duration,
                  bench::BenchReporter* reporter) {
  const std::string label =
      std::string(ftl::SchedulingPolicyName(policy)) + ".fast" +
      std::to_string(static_cast<int>(fast_frac * 100 + 0.5));
  sim::Simulator sim;
  reporter->AttachTrace(&sim, label);
  reporter->AttachTimeSeries(&sim, label);
  core::VillarsConfig config =
      bench::PaperVillarsConfig(core::BackingKind::kSram);
  config.scheduling = policy;
  config.cmb.ring_bytes = 4ull << 20;  // decouple ring slack from the sweep
  config.destage.ring_lba_count = 8192;
  // Deep, *balanced* pipelines on both sides so the scheduler — not an
  // admission depth — decides who gets the array.
  config.destage.max_inflight = 128;
  config.ftl.max_writeback_inflight = 128;

  // The ×4 Gen2 link (2 GB/s) would itself throttle the combined load; the
  // paper constrains the link only for CMB experiments, so give this
  // workload the board's ×8 interface and let the flash array (~2 GB/s) be
  // the contended resource.
  pcie::FabricConfig fabric = bench::PaperFabricConfig();
  fabric.lanes = 8;

  host::StorageNode node(&sim, config, fabric, "bench");
  Status status = node.Init();
  if (!status.ok()) std::exit(1);
  node.EnableMetrics(&reporter->registry());
  if (obs::SpanRecorder* spans = reporter->AttachSpans(&sim, label)) {
    node.EnableSpans(spans, "dev");
  }

  double device_bw = node.device().flash_array().MaxProgramBandwidth();
  double conv_rate = device_bw * conv_frac;   // offered, bytes/sec
  double fast_rate = device_bw * fast_frac;

  const uint32_t block = node.driver().block_bytes();

  // Conventional generator: open-loop arrivals of one-block writes at
  // conv_rate, with a bounded outstanding window.
  uint64_t conv_outstanding = 0;
  uint64_t next_lba = 8192;
  const uint64_t conv_span = 16384;
  std::vector<uint8_t> conv_payload(block, 0xC7);
  sim::SimTime conv_interval =
      sim::TransferTime(block, conv_rate);  // time per block at conv_rate
  std::function<void()> conv_arrival = [&]() {
    if (conv_outstanding < 64) {
      ++conv_outstanding;
      node.driver().Write(8192 + (next_lba++ % conv_span), conv_payload.data(),
                          1, [&](Status) { --conv_outstanding; });
    }
    sim.Schedule(conv_interval, conv_arrival);
  };
  conv_arrival();

  // Fast generator: closed-loop appends throttled to fast_rate by pacing.
  std::vector<uint8_t> fast_payload(16 * 1024, 0xFA);
  sim::SimTime fast_interval =
      sim::TransferTime(fast_payload.size(), fast_rate);
  bool fast_busy = false;
  std::function<void()> fast_arrival = [&]() {
    if (!fast_busy) {
      fast_busy = true;
      node.client().Append(fast_payload.data(), fast_payload.size(),
                           [&](Status) { fast_busy = false; });
    }
    sim.Schedule(fast_interval, fast_arrival);
  };
  fast_arrival();

  sim.RunFor(sim::Ms(30));  // warmup: fill buffers, reach steady state
  node.device().ftl().scheduler().ResetStats();
  sim::SimTime start = sim.Now();
  sim.RunFor(duration);
  double secs = sim::ToSec(sim.Now() - start);

  auto& scheduler = node.device().ftl().scheduler();
  CellResult result{
      scheduler.completed_bytes(ftl::IoClass::kConventional) / secs / 1e6,
      scheduler.completed_bytes(ftl::IoClass::kDestage) / secs / 1e6};
  reporter->SetResult(label, "conv_mb_s", result.conv_mb_s);
  reporter->SetResult(label, "fast_mb_s", result.fast_mb_s);
  return result;
}

}  // namespace
}  // namespace xssd

int main(int argc, char** argv) {
  using namespace xssd;
  bench::BenchReporter reporter(argc, argv, "fig12");
  const double fast_fracs[] = {0.30, 0.35, 0.40, 0.45, 0.50, 0.55, 0.60};

  bench::PrintHeader(
      "Figure 12: opportunistic destaging (conventional fixed at 50% BW)");

  for (ftl::SchedulingPolicy policy :
       {ftl::SchedulingPolicy::kNeutral,
        ftl::SchedulingPolicy::kConventionalPriority,
        ftl::SchedulingPolicy::kDestagePriority}) {
    std::printf("\n-- policy: %s --\n", ftl::SchedulingPolicyName(policy));
    std::printf("%-10s %14s %14s %12s\n", "fast_load", "conv_MB/s",
                "fast_MB/s", "total_MB/s");
    for (double frac : fast_fracs) {
      CellResult r = RunOne(policy, 0.50, frac, sim::Ms(50), &reporter);
      std::printf("%9.0f%% %14.1f %14.1f %12.1f\n", frac * 100, r.conv_mb_s,
                  r.fast_mb_s, r.conv_mb_s + r.fast_mb_s);
    }
  }
  return reporter.Finish();
}
