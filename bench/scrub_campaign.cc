// Media-reliability campaign: age a filled device through retention dwell
// and read disturb with the patrol scrubber ON vs OFF, and gate the
// self-healing story end to end:
//  * scrub on: every acked byte reads back intact (zero uncorrectable
//    reads, zero byte mismatches) and the OOB mapping rebuild stays exact,
//    while the scrubber keeps inside its pages/sec budget.
//  * scrub off: the very same stress produces nonzero uncorrectable reads,
//    retry-ladder exhaustions, and read-path escalations — proving the
//    healing path is load-bearing, not decorative.
//  * destage priority: with the scrubber running, destage-class appends
//    still wait >= 3x less than under the neutral policy (the ftl_campaign
//    no-inversion property, now with background patrol traffic present).
//
//   scrub_campaign --seed 3 --metrics out.json
//
// A (seed) run is bit-deterministic: two invocations produce identical
// metric snapshots (CI diffs them).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "check/mapping_oracle.h"
#include "flash/array.h"
#include "ftl/ftl.h"
#include "ftl/scrub.h"
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

// Decay tuned so cold data crosses the ECC budget within the campaign's
// ~24 s of virtual dwell even through the retry ladder (scrub off), while
// the scrubber's refresh margin fires with wide headroom (scrub on): at
// 1.5e-4 BER/s a page hits the 0.5 * 24-bit refresh threshold after ~2.2 s
// and the (retry-rescued) uncorrectable region only past ~9 s of dwell —
// several full scrub sweeps away.
flash::Reliability CampaignReliability() {
  flash::Reliability r;
  r.raw_bit_error_rate = 5e-5;
  r.ber_per_retention_sec = 1.5e-4;
  r.ber_per_read_disturb = 2e-6;
  r.ecc_correctable_bits = 24;
  r.read_retry_levels = 2;
  r.retry_ber_factor = 0.5;
  return r;
}

ftl::FtlConfig CampaignConfig() {
  ftl::FtlConfig config;
  config.buffer_pages = 64;
  config.flush_watermark = 16;
  config.gc_low_watermark = 4;
  return config;
}

ftl::ScrubConfig CampaignScrub(bool enabled) {
  ftl::ScrubConfig config;
  config.enabled = enabled;
  config.scan_interval = sim::Ms(1);
  // High enough that patrol reads of below-margin blocks (which share the
  // token bucket) cannot starve the refresh stream: the fleet decays at
  // ~45 blocks/s here and refreshes cost ~28 pages each.
  config.pages_per_sec = 16000.0;
  config.busy_threshold = 1;
  config.refresh_margin = 0.5;
  return config;
}

struct Gate {
  int failures = 0;
  void Check(bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "GATE FAILED: %s\n", what);
      ++failures;
    }
  }
};

uint8_t OracleByte(uint64_t lpn, uint64_t seed) {
  return static_cast<uint8_t>(lpn * 131 + seed * 7 + 1);
}

// One aging run. The scrubber's self-rearming tick keeps the event queue
// populated, so every pump is time-bounded (RunFor), never Run().
int RunAging(bench::BenchReporter& reporter, uint64_t seed, bool scrub_on,
             Gate& gate) {
  const std::string label = scrub_on ? "scrub_on" : "scrub_off";
  sim::Simulator sim;
  flash::Array array(&sim, CampaignGeometry(), flash::Timing{},
                     CampaignReliability(), seed);
  ftl::Ftl ftl(&sim, &array, CampaignConfig());
  ftl.SetMetrics(&reporter.registry(), label + ".");
  ftl.scheduler().set_policy(ftl::SchedulingPolicy::kDestagePriority);
  ftl::PatrolScrubber scrubber(&sim, &ftl, &array, CampaignScrub(scrub_on));
  scrubber.SetMetrics(&reporter.registry(), label + ".");
  scrubber.Start();
  ftl.SetFlightRecorder(reporter.flight_recorder(), label);
  reporter.AttachTimeSeries(&sim, label);
  sim::Rng rng(seed);

  // Fill 70% of logical space with seeded content: cold data the retention
  // model decays, with enough free blocks left for refresh relocation.
  const uint64_t lpns = ftl.page_map().lpn_count() * 70 / 100;
  for (uint64_t lpn = 0; lpn < lpns; ++lpn) {
    ftl.WriteBuffered(lpn,
                      std::vector<uint8_t>(4096, OracleByte(lpn, seed)),
                      [](Status) {});
    if (lpn % 128 == 127) sim.RunFor(sim::Ms(10));
  }
  Status flushed = Status::Internal("pending");
  ftl.Flush([&](Status s) { flushed = s; });
  sim.RunFor(sim::Ms(100));
  gate.Check(flushed.ok(), "fill-phase flush failed");

  // Aging: long retention dwell punctuated by hot-set reads (disturb) and
  // a light write trickle. 12 rounds x 2 s of cold dwell; the scrubber
  // (when on) must refresh every data block faster than it decays. The
  // trickle matters beyond realism: it keeps the write frontier advancing
  // so open blocks seal — dwell is per-block from first program, and only
  // sealed blocks are eligible for patrol/refresh, so a frontier block
  // parked open for the whole campaign would strand its pages beyond any
  // scrubber's reach.
  const uint64_t hot_set = std::min<uint64_t>(256, lpns);
  for (int round = 0; round < 12; ++round) {
    sim.RunFor(sim::Sec(2));
    for (int i = 0; i < 64; ++i) {
      ftl.ReadPage(ftl::IoClass::kConventional, rng.Uniform(hot_set),
                   [](Status, std::vector<uint8_t>) {});
    }
    for (int i = 0; i < 64; ++i) {
      uint64_t lpn = rng.Uniform(lpns);
      ftl.WriteBuffered(lpn,
                        std::vector<uint8_t>(4096, OracleByte(lpn, seed)),
                        [](Status) {});
    }
    sim.RunFor(sim::Ms(50));
  }

  // Verify every acked byte against the oracle.
  uint64_t corrupt_lpns = 0;
  uint64_t mismatched_lpns = 0;
  for (uint64_t lpn = 0; lpn < lpns; ++lpn) {
    ftl.ReadPage(ftl::IoClass::kConventional, lpn,
                 [&, lpn](Status status, std::vector<uint8_t> data) {
                   if (!status.ok()) {
                     ++corrupt_lpns;
                     return;
                   }
                   uint8_t want = OracleByte(lpn, seed);
                   for (uint8_t byte : data) {
                     if (byte != want) {
                       ++mismatched_lpns;
                       return;
                     }
                   }
                 });
    if (lpn % 64 == 63) sim.RunFor(sim::Ms(20));
  }
  sim.RunFor(sim::Ms(500));

  // Quiesce before taking the snapshot: RebuildFromOob only equals the
  // live map at a quiesced point, and the scrubber never quiesces on its
  // own — the decay model keeps nominating refresh victims forever. A
  // relocation program caught mid-flight already has its OOB in flash but
  // has not mapped yet, which a scan would misread as divergence.
  scrubber.Stop();
  for (int spins = 0; spins < 1000; ++spins) {
    if (ftl.scheduler().inflight() == 0 &&
        ftl.scheduler().queued(ftl::IoClass::kConventional) == 0 &&
        ftl.scheduler().queued(ftl::IoClass::kDestage) == 0) {
      break;
    }
    sim.RunFor(sim::Ms(1));
  }

  const double elapsed_sec = sim::ToSec(sim.Now());
  const flash::ArrayStats& astats = array.stats();
  const ftl::FtlStats& fstats = ftl.stats();
  const ftl::ScrubStats& sstats = scrubber.stats();

  if (scrub_on) {
    gate.Check(corrupt_lpns == 0 && mismatched_lpns == 0,
               "acked bytes lost under retention+disturb with scrub ON");
    gate.Check(fstats.uncorrectable_reads == 0,
               "uncorrectable reads leaked through with scrub ON");
    std::vector<check::Divergence> divergences =
        check::CheckRebuildMatches(ftl, array.geometry());
    for (const check::Divergence& d : divergences) {
      std::fprintf(stderr, "rebuild divergence: %s — %s\n", d.rule.c_str(),
                   d.detail.c_str());
    }
    gate.Check(divergences.empty(), "OOB rebuild diverged with scrub ON");
    gate.Check(sstats.refreshes > 0, "scrubber never refreshed a block");
    // Budget: everything the scrubber read or relocated must fit the token
    // rate (one bucket of slack for the initial fill of the bucket).
    const double budget_spent =
        static_cast<double>(sstats.patrol_reads) +
        static_cast<double>(fstats.refresh_relocations);
    const double budget_earned =
        CampaignScrub(true).pages_per_sec * elapsed_sec +
        static_cast<double>(CampaignGeometry().pages_per_block);
    gate.Check(budget_spent <= budget_earned,
               "scrubber overdrew its pages/sec budget");
    reporter.SetResult(label, "rebuild_mismatch",
                       static_cast<double>(divergences.size()));
  } else {
    gate.Check(fstats.uncorrectable_reads > 0,
               "aging never produced an uncorrectable read with scrub OFF "
               "(the threat model is vacuous)");
    gate.Check(corrupt_lpns > 0,
               "no acked-byte loss surfaced with scrub OFF");
    gate.Check(astats.retry_exhausted > 0,
               "retry ladder never exhausted with scrub OFF");
    gate.Check(astats.read_retries > 0, "retry ladder never engaged");
    gate.Check(fstats.escalations > 0,
               "uncorrectable reads never escalated to block retirement");
  }

  reporter.SetResult(label, "corrupt_lpns",
                     static_cast<double>(corrupt_lpns));
  reporter.SetResult(label, "mismatched_lpns",
                     static_cast<double>(mismatched_lpns));
  reporter.SetResult(label, "uncorrectable_reads",
                     static_cast<double>(fstats.uncorrectable_reads));
  reporter.SetResult(label, "read_retries",
                     static_cast<double>(astats.read_retries));
  reporter.SetResult(label, "retry_exhausted",
                     static_cast<double>(astats.retry_exhausted));
  reporter.SetResult(label, "refreshes",
                     static_cast<double>(sstats.refreshes));
  reporter.SetResult(label, "refresh_relocations",
                     static_cast<double>(fstats.refresh_relocations));
  reporter.SetResult(label, "patrol_reads",
                     static_cast<double>(sstats.patrol_reads));
  reporter.SetResult(label, "patrol_uncorrectable",
                     static_cast<double>(sstats.patrol_uncorrectable));
  reporter.SetResult(label, "escalations",
                     static_cast<double>(fstats.escalations));
  reporter.SetResult(label, "retired_blocks",
                     static_cast<double>(fstats.reliability_retires));
  reporter.SetResult(label, "pages_lost",
                     static_cast<double>(fstats.pages_lost));
  reporter.SetResult(label, "elapsed_sec", elapsed_sec);

  std::printf(
      "%s: corrupt=%llu mismatch=%llu uncorrectable=%llu retries=%llu "
      "exhausted=%llu refreshes=%llu patrol=%llu escalations=%llu\n",
      label.c_str(), static_cast<unsigned long long>(corrupt_lpns),
      static_cast<unsigned long long>(mismatched_lpns),
      static_cast<unsigned long long>(fstats.uncorrectable_reads),
      static_cast<unsigned long long>(astats.read_retries),
      static_cast<unsigned long long>(astats.retry_exhausted),
      static_cast<unsigned long long>(sstats.refreshes),
      static_cast<unsigned long long>(sstats.patrol_reads),
      static_cast<unsigned long long>(fstats.escalations));
  return gate.failures;
}

// Destage-priority probe with the scrubber running: the patrol traffic is
// conventional-class and budgeted, so the priority separation ftl_campaign
// measures must survive it. Media decay is off for this phase — the
// scrubber still ticks and patrol-reads, but the workload (and the queue
// drains between bursts) stays comparable to ftl_campaign's.
int RunPriority(bench::BenchReporter& reporter, uint64_t seed, Gate& gate) {
  flash::Reliability steady;
  steady.raw_bit_error_rate = 5e-5;
  sim::Simulator sim;
  flash::Array array(&sim, CampaignGeometry(), flash::Timing{}, steady,
                     seed);
  ftl::Ftl ftl(&sim, &array, CampaignConfig());
  ftl::PatrolScrubber scrubber(&sim, &ftl, &array, CampaignScrub(true));
  scrubber.Start();
  sim::Rng rng(seed);

  const uint64_t lpns = ftl.page_map().lpn_count() * 90 / 100;
  for (uint64_t lpn = 0; lpn < lpns; ++lpn) {
    ftl.WriteBuffered(lpn, std::vector<uint8_t>(4096, 0xF1), [](Status) {});
    if (lpn % 128 == 127) sim.RunFor(sim::Ms(10));
  }
  Status flushed = Status::Internal("pending");
  ftl.Flush([&](Status s) { flushed = s; });
  sim.RunFor(sim::Ms(100));
  gate.Check(flushed.ok(), "priority-phase fill flush failed");

  const uint64_t log_ring = 256;
  const uint64_t warm_set = lpns - log_ring;
  uint64_t log_head = 0;
  // Drain the flash queues between bursts (the plain Run() ftl_campaign
  // uses would never return: the scrubber's tick re-arms forever). The
  // iteration bound only guards against a stuck scheduler.
  auto drain = [&]() {
    for (int spins = 0; spins < 1000; ++spins) {
      if (ftl.scheduler().inflight() == 0 &&
          ftl.scheduler().queued(ftl::IoClass::kConventional) == 0 &&
          ftl.scheduler().queued(ftl::IoClass::kDestage) == 0) {
        return;
      }
      sim.RunFor(sim::Ms(1));
    }
  };
  auto churn = [&](int ops) -> double {
    ftl.scheduler().ResetStats();
    for (int i = 0; i < ops; ++i) {
      uint8_t fill = static_cast<uint8_t>(rng.Next());
      if (i % 4 == 0) {
        ftl.WriteDirect(ftl::IoClass::kDestage,
                        warm_set + (log_head++ % log_ring),
                        std::vector<uint8_t>(4096, fill), [](Status) {});
      } else {
        ftl.WriteBuffered(rng.Uniform(warm_set),
                          std::vector<uint8_t>(4096, fill), [](Status) {});
      }
      if (i % 64 == 63) drain();
    }
    drain();
    uint64_t issued = ftl.scheduler().issued(ftl::IoClass::kDestage);
    return issued == 0 ? 0.0
                       : static_cast<double>(ftl.scheduler().wait_ns(
                             ftl::IoClass::kDestage)) /
                             1000.0 / static_cast<double>(issued);
  };

  ftl.scheduler().set_policy(ftl::SchedulingPolicy::kDestagePriority);
  const double wait_priority = churn(8000);
  ftl.scheduler().set_policy(ftl::SchedulingPolicy::kNeutral);
  const double wait_neutral = churn(8000);

  gate.Check(wait_priority > 0 && wait_neutral > 0,
             "priority probe issued no destage traffic");
  gate.Check(wait_neutral >= 3.0 * wait_priority,
             "destage priority worth < 3x on queue wait with the scrubber "
             "running");
  gate.Check(ftl.stats().gc_erases > 100,
             "priority probe never forced a GC storm");

  reporter.SetResult("priority", "destage_mean_wait_priority_us",
                     wait_priority);
  reporter.SetResult("priority", "destage_mean_wait_neutral_us",
                     wait_neutral);
  reporter.SetResult("priority", "scrub_deferred_busy",
                     static_cast<double>(scrubber.stats().deferred_busy));
  std::printf("priority: destage wait priority=%.1fus neutral=%.1fus "
              "(%.2fx) deferred_busy=%llu\n",
              wait_priority, wait_neutral,
              wait_priority > 0 ? wait_neutral / wait_priority : 0.0,
              static_cast<unsigned long long>(
                  scrubber.stats().deferred_busy));
  return gate.failures;
}

}  // namespace
}  // namespace xssd

int main(int argc, char** argv) {
  using namespace xssd;
  bench::BenchReporter reporter(argc, argv, "scrub_campaign",
                               {.values = {"--seed"}});

  uint64_t seed = 1;
  const std::vector<std::string>& args = reporter.positional();
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--seed" && i + 1 < args.size()) {
      seed = std::strtoull(args[++i].c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: scrub_campaign [--seed N] [--metrics out.json]\n");
      return 2;
    }
  }

  bench::PrintHeader("Media-reliability scrub campaign (seed " +
                     std::to_string(seed) + ")");
  if (reporter.sampling_enabled()) {
    // Media-health watch: the riskiest block's expected raw errors as a
    // fraction of the ECC budget. Refreshes trigger at 0.5 (refresh_margin)
    // — a sustained sit above 0.45 means decay is outrunning the scrubber.
    obs::SloRule pressure;
    pressure.name = "refresh_pressure";
    pressure.metric = "scrub_on.scrub.refresh_pressure";
    pressure.pred = obs::SloRule::Pred::kGt;
    pressure.threshold = 0.45;
    pressure.for_windows = 3;
    reporter.AddSloRule(pressure);
  }
  Gate gate;
  RunAging(reporter, seed, /*scrub_on=*/false, gate);
  RunAging(reporter, seed, /*scrub_on=*/true, gate);
  RunPriority(reporter, seed, gate);
  reporter.SetResult("campaign", "gate_failures",
                     static_cast<double>(gate.failures));
  std::printf("scrub_campaign seed=%llu %s (%d gate failures)\n",
              static_cast<unsigned long long>(seed),
              gate.failures == 0 ? "OK" : "FAILED", gate.failures);
  int finish_rc = reporter.Finish();
  return gate.failures != 0 ? 1 : finish_rc;
}
