// Figure 13 — Replication Delay (paper §6.5).
//
// A primary/secondary Villars pair over NTB. The primary takes a stream of
// small CMB writes and mirrors them; the secondary periodically forwards
// its credit counter to the primary's shadow mailbox. We measure, per
// write, the delay between (a) the write against the primary's CMB and
// (b) the shadow counter on the primary covering it — i.e. the time until
// the primary can confirm the write is safely replicated. We also report
// the PCIe bandwidth share the counter-update traffic consumes.
//
// Paper shape: frequent updates (0.4 µs) give a tight candle (≈4.5–5.2 µs)
// at ~2.35% bandwidth cost; infrequent updates (1.6 µs) widen the candle
// (≈4.6–7.3 µs) but cost proportionally less bandwidth.

#include <cstdio>
#include <map>
#include "sim/random.h"
#include <vector>

#include "bench_util.h"
#include "host/node.h"
#include "sim/stats.h"

namespace xssd {
namespace {

struct RunResult {
  sim::LatencyRecorder::Candle candle_us;
  double update_bw_pct;
  uint64_t samples;
};

std::string RunLabel(double update_period_us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "period%.1fus", update_period_us);
  return buf;
}

RunResult RunOne(double update_period_us, sim::SimTime duration,
                 bench::BenchReporter* reporter) {
  sim::Simulator sim;
  // Each fabric is its own scheduler domain: under XSSD_SIM_SCHEDULER=
  // parallel the two nodes advance on separate workers, synchronized by the
  // NTB hop latency (the serial wheel merges the domains identically).
  sim.ConfigureDomains(2);
  reporter->AttachTrace(&sim, RunLabel(update_period_us));
  reporter->AttachTimeSeries(&sim, RunLabel(update_period_us));
  core::VillarsConfig config =
      bench::PaperVillarsConfig(core::BackingKind::kSram);
  pcie::FabricConfig secondary_fabric = bench::PaperFabricConfig();
  secondary_fabric.domain = 1;
  host::StorageNode primary(&sim, config, bench::PaperFabricConfig(), "pri");
  host::StorageNode secondary(&sim, config, secondary_fabric, "sec");
  if (!primary.Init().ok() || !secondary.Init().ok()) std::exit(1);
  // Node prefixes keep the two devices' metric namespaces apart.
  primary.EnableMetrics(&reporter->registry(), "pri.");
  secondary.EnableMetrics(&reporter->registry(), "sec.");
  if (obs::SpanRecorder* spans =
          reporter->AttachSpans(&sim, RunLabel(update_period_us))) {
    primary.EnableSpans(spans, "pri");
    secondary.EnableSpans(spans, "sec");
  }

  host::ReplicationGroup group({&primary, &secondary});
  Status status = group.Setup(core::ReplicationProtocol::kEager,
                              sim::UsF(update_period_us));
  if (!status.ok()) {
    std::fprintf(stderr, "replication setup failed: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }

  // Track per-offset write timestamps; resolve them as the shadow counter
  // advances past the offset.
  std::map<uint64_t, sim::SimTime> pending;  // end-offset -> write time
  sim::LatencyRecorder delay_us;
  bool measuring = false;

  primary.device().transport().SetShadowHook(
      [&](uint32_t, uint64_t value) {
        auto it = pending.begin();
        while (it != pending.end() && it->first <= value) {
          if (measuring) {
            delay_us.Add(sim::ToUs(sim.Now() - it->second));
          }
          it = pending.erase(it);
        }
      });

  // Write stream: 64-byte log entries every 2 µs (a steady, non-saturating
  // load so the measured delay is the replication path, not queueing).
  std::vector<uint8_t> entry(64, 0xEE);
  sim::Rng jitter(99);
  std::function<void()> writer = [&]() {
    primary.client().Append(entry.data(), entry.size(), [](Status) {});
    pending.emplace(primary.client().written(), sim.Now());
    // Jittered arrivals so write times do not phase-lock with the update
    // period (a real database has no such clock alignment).
    sim.Schedule(sim::Ns(1600 + jitter.Uniform(800)), writer);
  };
  writer();

  sim.RunFor(sim::Ms(2));
  measuring = true;
  delay_us.Clear();
  primary.ntb().ResetStats();
  secondary.ntb().ResetStats();
  sim::SimTime start = sim.Now();
  sim.RunFor(duration);
  double secs = sim::ToSec(sim.Now() - start);
  measuring = false;

  // Counter updates flow over the secondary's NTB adapter.
  double update_bytes_per_sec = secondary.ntb().forwarded_wire_bytes() / secs;
  double bw_pct =
      update_bytes_per_sec / primary.fabric().link_bytes_per_sec() * 100.0;

  RunResult result;
  result.candle_us = delay_us.Candlestick();
  result.update_bw_pct = bw_pct;
  result.samples = delay_us.count();

  std::string label = RunLabel(update_period_us);
  reporter->SetResult(label, "p50_delay_us", result.candle_us.p50);
  reporter->SetResult(label, "max_delay_us", result.candle_us.max);
  reporter->SetResult(label, "update_bw_pct", result.update_bw_pct);
  reporter->SetResult(label, "samples",
                      static_cast<double>(result.samples));
  return result;
}

}  // namespace
}  // namespace xssd

int main(int argc, char** argv) {
  using namespace xssd;
  bench::BenchReporter reporter(argc, argv, "fig13");
  const double periods_us[] = {0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6};

  bench::PrintHeader(
      "Figure 13: shadow-counter update frequency vs replication delay");
  std::printf("%-10s %8s %8s %8s %8s %8s %10s %8s\n", "period_us", "min",
              "p25", "p50", "p75", "max", "bw_pct", "samples");
  for (double period : periods_us) {
    RunResult r = RunOne(period, sim::Ms(20), &reporter);
    std::printf("%-10.1f %8.2f %8.2f %8.2f %8.2f %8.2f %9.2f%% %8lu\n",
                period, r.candle_us.min, r.candle_us.p25, r.candle_us.p50,
                r.candle_us.p75, r.candle_us.max, r.update_bw_pct,
                static_cast<unsigned long>(r.samples));
  }
  return reporter.Finish();
}
