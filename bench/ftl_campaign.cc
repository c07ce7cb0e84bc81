// FTL steady-state campaign: drive the device past the sustained-write
// cliff and verify the three properties a log device needs from its FTL —
// bounded write amplification once GC runs continuously, bounded log-append
// tail latency through GC storms (destage priority must hold), and exact
// OOB mapping recovery from a mid-GC power cut. Exits non-zero when any
// gate fails, so CI can sweep seeds and fail loudly.
//
//   ftl_campaign --seed 3 --metrics out.json [--p99-bound-us N]
//
// Two runs share one seed:
//  * steady: sequential fill (fresh device, WA ~= 1), then a hot/cold
//    overwrite churn with concurrent destage-class log appends far past
//    raw capacity. Headline gauges: fill vs steady WA, erased-pool floor,
//    erase-count spread, per-class scheduler queue wait, append p50/p99.
//  * crash: the same churn with a power cut injected mid-GC-relocation;
//    RebuildFromOob() must reproduce the frozen mapping exactly.
//
// A (seed) run is bit-deterministic: two invocations produce identical
// metric snapshots (CI diffs them).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "check/mapping_oracle.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "ftl/ftl.h"
#include "sim/random.h"

namespace xssd {
namespace {

flash::Geometry CampaignGeometry() {
  flash::Geometry g;
  g.channels = 4;
  g.dies_per_channel = 2;
  g.blocks_per_plane = 16;
  g.pages_per_block = 32;
  g.page_bytes = 4096;
  return g;  // 128 blocks, 4096 pages, 16 MiB
}

ftl::FtlConfig CampaignConfig() {
  ftl::FtlConfig config;
  config.buffer_pages = 64;
  config.flush_watermark = 16;
  // GC stops once free blocks reach twice this. The target must be
  // *reachable*: valid pages at the campaign's fill level have to pack into
  // the blocks left over after the free target and the open write points,
  // or GC grinds toward it forever collecting near-fully-valid victims
  // (write amplification approaches pages_per_block).
  config.gc_low_watermark = 4;
  return config;
}

struct LatencyStats {
  double p50_us = 0;
  double p99_us = 0;
  double max_us = 0;
};

LatencyStats Percentiles(std::vector<sim::SimTime>& lat) {
  LatencyStats out;
  if (lat.empty()) return out;
  std::sort(lat.begin(), lat.end());
  auto at = [&](double q) {
    size_t i = static_cast<size_t>(q * static_cast<double>(lat.size() - 1));
    return static_cast<double>(lat[i]) / 1000.0;
  };
  out.p50_us = at(0.50);
  out.p99_us = at(0.99);
  out.max_us = static_cast<double>(lat.back()) / 1000.0;
  return out;
}

// Mixed steady-state churn: hot destage-class log appends over a small
// ring, conventional buffered overwrites over a wider warm set. Returns
// the number of ops issued (the crash run stops early).
int Churn(ftl::Ftl& ftl, sim::Simulator& sim, sim::Rng& rng, uint64_t lpns,
          int ops, std::vector<sim::SimTime>* append_latencies,
          const fault::FaultInjector* injector,
          obs::LatencyRecorder* append_ns = nullptr) {
  const uint64_t log_ring = 256;   // hot destage set: the fig09 log tail
  const uint64_t warm_set = lpns - log_ring;
  uint64_t log_head = 0;
  int issued = 0;
  for (int i = 0; i < ops; ++i) {
    uint8_t fill = static_cast<uint8_t>(rng.Next());
    if (i % 4 == 0) {
      // Log append: destage class, sequential ring — the X-SSD destage
      // stream's view of a circular WAL.
      uint64_t lpn = warm_set + (log_head++ % log_ring);
      sim::SimTime start = sim.Now();
      ftl.WriteDirect(ftl::IoClass::kDestage, lpn,
                      std::vector<uint8_t>(4096, fill),
                      [&, start, append_ns](Status s) {
                        if (!s.ok()) return;
                        if (append_latencies != nullptr) {
                          append_latencies->push_back(sim.Now() - start);
                        }
                        if (append_ns != nullptr) {
                          append_ns->Add(
                              static_cast<double>(sim.Now() - start));
                        }
                      });
    } else {
      // Warm overwrite churn: conventional class through the DRAM buffer.
      uint64_t lpn = rng.Uniform(warm_set);
      ftl.WriteBuffered(lpn, std::vector<uint8_t>(4096, fill),
                        [](Status) {});
    }
    ++issued;
    if (i % 64 == 63) {
      sim.Run();
      if (injector != nullptr && injector->crashed()) break;
    }
  }
  sim.Run();
  return issued;
}

void RunSteady(bench::BenchReporter& reporter, uint64_t seed,
               double p99_bound_us) {
  sim::Simulator sim;
  flash::Array array(&sim, CampaignGeometry(), flash::Timing{},
                     flash::Reliability{}, seed);
  ftl::Ftl ftl(&sim, &array, CampaignConfig());
  ftl.SetMetrics(&reporter.registry(), "");
  ftl.SetFlightRecorder(reporter.flight_recorder());
  ftl.scheduler().set_policy(ftl::SchedulingPolicy::kDestagePriority);
  // Registered unconditionally so the metrics snapshot is identical with
  // sampling on or off; the sampler additionally windows it when attached.
  obs::LatencyRecorder* append_ns =
      reporter.registry().GetLatency("ftl_campaign.append_ns");
  reporter.AttachTimeSeries(&sim, "steady");
  sim::Rng rng(seed);

  // 90% of logical space (~79% of physical pages): far past the point
  // where the erased pool is gone and GC must run continuously, while the
  // GC free-block target stays reachable and victims still carry garbage —
  // at higher fill GC approaches net-zero reclaim per erase and the
  // campaign time explodes.
  const uint64_t lpns = ftl.page_map().lpn_count() * 90 / 100;

  // Phase 1 — sequential fill of a fresh device. Every program lands in an
  // erased block; write amplification must stay at exactly 1.
  for (uint64_t lpn = 0; lpn < lpns; ++lpn) {
    ftl.WriteBuffered(lpn, std::vector<uint8_t>(4096, 0xF1), [](Status) {});
    if (lpn % 128 == 127) sim.Run();
  }
  Status flushed = Status::Internal("pending");
  ftl.Flush([&](Status s) { flushed = s; });
  sim.Run();
  reporter.Check(flushed.ok(), "fill-phase flush failed");
  const double fill_wa = ftl.stats().WriteAmplification();
  const uint64_t fill_hosts = ftl.stats().host_writes;
  const uint64_t fill_programs = ftl.stats().flash_programs;
  reporter.Check(fill_wa <= 1.01, "fill-phase write amplification above 1");

  // Phase 2 — sustained overwrites past the cliff. The erased pool is
  // gone; every host page now costs GC relocations too.
  ftl.scheduler().ResetStats();
  std::vector<sim::SimTime> append_latencies;
  Churn(ftl, sim, rng, lpns, /*ops=*/24000, &append_latencies,
        /*injector=*/nullptr, append_ns);

  const uint64_t steady_hosts = ftl.stats().host_writes - fill_hosts;
  const uint64_t steady_programs = ftl.stats().flash_programs - fill_programs;
  const double steady_wa = steady_hosts == 0
                               ? 0.0
                               : static_cast<double>(steady_programs) /
                                     static_cast<double>(steady_hosts);
  LatencyStats lat = Percentiles(append_latencies);
  const double conv_wait_us =
      static_cast<double>(ftl.scheduler().wait_ns(ftl::IoClass::kConventional)) /
      1000.0;
  const double destage_wait_us =
      static_cast<double>(ftl.scheduler().wait_ns(ftl::IoClass::kDestage)) /
      1000.0;
  const uint64_t destage_issued = ftl.scheduler().issued(ftl::IoClass::kDestage);
  const double destage_mean_priority =
      destage_issued == 0 ? 0.0
                          : destage_wait_us / static_cast<double>(destage_issued);

  // Gates: the cliff was actually crossed, GC ran a sustained storm, and
  // the append tail stayed bounded.
  reporter.Check(steady_wa > 1.1,
                 "steady-state write amplification not past 1");
  reporter.Check(ftl.stats().gc_erases > 100, "churn never forced a GC storm");
  reporter.Check(!append_latencies.empty(), "no log append ever completed");
  reporter.Check(lat.p99_us <= p99_bound_us,
                 "log-append p99 exceeded the tail bound through GC storms");

  // Phase 3 — destage-priority contention probe. Same steady-state device,
  // same churn, scheduler policy flipped to neutral: the GC-vs-destage
  // channel contention the destage class absorbs without its priority.
  // Destage appends must not wait longer WITH priority than without — the
  // no-priority-inversion property, measured rather than assumed.
  ftl.scheduler().set_policy(ftl::SchedulingPolicy::kNeutral);
  ftl.scheduler().ResetStats();
  Churn(ftl, sim, rng, lpns, /*ops=*/8000, nullptr, /*injector=*/nullptr);
  const uint64_t neutral_issued = ftl.scheduler().issued(ftl::IoClass::kDestage);
  const double destage_mean_neutral =
      neutral_issued == 0
          ? 0.0
          : static_cast<double>(
                ftl.scheduler().wait_ns(ftl::IoClass::kDestage)) /
                1000.0 / static_cast<double>(neutral_issued);
  reporter.Check(destage_mean_priority <= destage_mean_neutral * 1.05,
                 "destage-priority inversion: log appends queued longer with "
                 "priority than under the neutral policy");

  reporter.Check(
      ftl.wear().Spread() <= CampaignConfig().gc_max_erase_spread + 8,
      "erase-count spread escaped the wear-leveling bound");

  // The steady-state flash image must also rebuild exactly (no crash —
  // this is the cheap always-on recovery oracle).
  std::vector<check::Divergence> divergences =
      check::CheckRebuildMatches(ftl, array.geometry());
  for (const check::Divergence& d : divergences) {
    std::fprintf(stderr, "rebuild divergence: %s — %s\n", d.rule.c_str(),
                 d.detail.c_str());
  }
  reporter.Check(divergences.empty(), "steady-state OOB rebuild diverged");

  reporter.SetResult("steady", "fill_wa", fill_wa);
  reporter.SetResult("steady", "steady_wa", steady_wa);
  reporter.SetResult("steady", "gc_erases",
                     static_cast<double>(ftl.stats().gc_erases));
  reporter.SetResult("steady", "gc_relocations",
                     static_cast<double>(ftl.stats().gc_relocations));
  reporter.SetResult("steady", "free_blocks",
                     static_cast<double>(ftl.free_blocks()));
  reporter.SetResult("steady", "erase_spread",
                     static_cast<double>(ftl.wear().Spread()));
  reporter.SetResult("steady", "append_p50_us", lat.p50_us);
  reporter.SetResult("steady", "append_p99_us", lat.p99_us);
  reporter.SetResult("steady", "append_max_us", lat.max_us);
  reporter.SetResult("steady", "conv_wait_us", conv_wait_us);
  reporter.SetResult("steady", "destage_wait_us", destage_wait_us);
  reporter.SetResult("steady", "destage_mean_wait_priority_us",
                     destage_mean_priority);
  reporter.SetResult("steady", "destage_mean_wait_neutral_us",
                     destage_mean_neutral);
  reporter.SetResult("steady", "rebuild_mismatch",
                     static_cast<double>(divergences.size()));

  std::printf(
      "steady: fill_wa=%.3f steady_wa=%.3f gc_erases=%llu spread=%u "
      "append_p50=%.1fus p99=%.1fus rebuild_mismatch=%zu\n",
      fill_wa, steady_wa,
      static_cast<unsigned long long>(ftl.stats().gc_erases),
      ftl.wear().Spread(), lat.p50_us, lat.p99_us, divergences.size());
}

void RunCrash(bench::BenchReporter& reporter, uint64_t seed) {
  sim::Simulator sim;
  flash::Array array(&sim, CampaignGeometry(), flash::Timing{},
                     flash::Reliability{}, seed);
  fault::FaultPlan plan =
      fault::FaultPlanBuilder("ftl-campaign-cut")
          .Crash("ftl.gc.relocate", /*after_hits=*/120, /*graceful=*/false)
          .Build();
  fault::FaultInjector injector(&sim, plan, seed);
  injector.SetFlightRecorder(reporter.flight_recorder());
  ftl::Ftl ftl(&sim, &array, CampaignConfig());
  ftl.SetMetrics(&reporter.registry(), "crash.");
  ftl.SetFaultInjector(&injector, "");
  ftl.SetFlightRecorder(reporter.flight_recorder(), "crash");
  reporter.AttachTimeSeries(&sim, "crash");
  sim::Rng rng(seed);

  const uint64_t lpns = ftl.page_map().lpn_count() * 90 / 100;
  for (uint64_t lpn = 0; lpn < lpns; ++lpn) {
    ftl.WriteBuffered(lpn, std::vector<uint8_t>(4096, 0xF2), [](Status) {});
    if (lpn % 128 == 127) {
      sim.Run();
      if (injector.crashed()) break;
    }
  }
  if (!injector.crashed()) {
    Churn(ftl, sim, rng, lpns, /*ops=*/24000, nullptr, &injector);
  }
  sim.Run();  // power-cut model: issued NAND physics completes, no new work
  reporter.Check(injector.crashed(), "mid-GC crash clause never fired");

  ftl::RebuildReport report;
  ftl::PageMap rebuilt = ftl.RebuildFromOob(&report);
  bool exact = rebuilt == ftl.page_map();
  std::vector<check::Divergence> divergences =
      check::CheckRebuildMatches(ftl, array.geometry());
  for (const check::Divergence& d : divergences) {
    std::fprintf(stderr, "crash rebuild divergence: %s — %s\n",
                 d.rule.c_str(), d.detail.c_str());
  }
  reporter.Check(exact && divergences.empty(),
                 "mid-GC crash rebuild is not byte-identical");
  reporter.Check(report.oob_decode_failures == 0,
                 "OOB records corrupted on a clean power cut");
  reporter.Check(report.pages_scanned > 0,
                 "the post-crash OOB rebuild scanned no pages");

  reporter.SetResult("crash", "rebuild_mismatch",
                     static_cast<double>(divergences.size()));
  reporter.SetResult("crash", "pages_scanned",
                     static_cast<double>(report.pages_scanned));
  reporter.SetResult("crash", "stale_copies",
                     static_cast<double>(report.stale_copies));
  reporter.SetResult("crash", "mapped",
                     static_cast<double>(report.mapped));
  std::printf("crash: scanned=%llu stale=%llu mapped=%llu mismatch=%zu\n",
              static_cast<unsigned long long>(report.pages_scanned),
              static_cast<unsigned long long>(report.stale_copies),
              static_cast<unsigned long long>(report.mapped),
              divergences.size());
}

}  // namespace
}  // namespace xssd

int main(int argc, char** argv) {
  using namespace xssd;
  bench::BenchReporter reporter(argc, argv, "ftl_campaign",
                               {.values = {"--seed", "--p99-bound-us"}});

  uint64_t seed = 1;
  double p99_bound_us = 5000.0;
  const std::vector<std::string>& args = reporter.positional();
  // BenchReporter passes only the declared flags, each with its value.
  for (size_t i = 0; i < args.size(); i += 2) {
    const std::string& text = args[i + 1];
    if (args[i] == "--seed") {
      seed = reporter.U64Flag("--seed", text);
      continue;
    }
    char* end = nullptr;
    p99_bound_us = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !(p99_bound_us > 0) ||
        !std::isfinite(p99_bound_us)) {
      reporter.UsageExit("--p99-bound-us needs a positive number, got '" +
                         text + "'");
    }
  }

  bench::PrintHeader("FTL steady-state campaign (seed " +
                     std::to_string(seed) + ")");
  if (reporter.sampling_enabled()) {
    // Headline gates as declarative SLO rules, evaluated per window by the
    // samplers AttachTimeSeries creates. The write-cliff rule is the phase
    // detector: fill runs at WA ~= 1.0, steady churn past the cliff pushes
    // the ftl.write_amp gauge beyond 1.5 and holds it there.
    obs::SloRule cliff;
    cliff.name = "write_cliff";
    cliff.metric = "ftl.write_amp";
    cliff.pred = obs::SloRule::Pred::kGt;
    cliff.threshold = 1.5;
    cliff.for_windows = 2;
    reporter.AddSloRule(cliff);
    obs::SloRule tail;
    tail.name = "append_tail";
    tail.metric = "ftl_campaign.append_ns";
    tail.stat = "p99";
    tail.pred = obs::SloRule::Pred::kGt;
    tail.threshold = p99_bound_us * 4.0 * 1000.0;  // well past the gate
    tail.for_windows = 3;
    tail.fatal = true;
    reporter.AddSloRule(tail);
  }
  RunSteady(reporter, seed, p99_bound_us);
  RunCrash(reporter, seed);
  if (reporter.sampling_enabled()) {
    // The watchdog must have *seen* the cliff: the rule alerting is the
    // time-series pipeline's end-to-end proof (windows closed, the gauge
    // was sampled, the streak logic fired).
    reporter.Check(reporter.SloAlerts("write_cliff") >= 1,
                   "watchdog never alerted on the write cliff");
    std::printf("watchdog: write_cliff alerts=%llu\n",
                static_cast<unsigned long long>(
                    reporter.SloAlerts("write_cliff")));
  }
  const int failures = reporter.gate_failures();
  reporter.SetResult("campaign", "gate_failures",
                     static_cast<double>(failures));
  std::printf("ftl_campaign seed=%llu %s (%d gate failures)\n",
              static_cast<unsigned long long>(seed),
              failures == 0 ? "OK" : "FAILED", failures);
  return reporter.Finish();
}
