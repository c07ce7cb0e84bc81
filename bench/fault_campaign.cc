// Fault campaign: run a replicated logging workload under a named (or
// file-loaded) fault plan and verify the system's durability invariants
// survived. Exits non-zero when any invariant breaks, so CI can sweep
// plan × seed matrices and fail loudly.
//
//   fault_campaign --plan flash-fail --seed 3 --metrics out.json
//
// --plan accepts one of the embedded plans (flash-fail, ntb-flap,
// crash-mid-destage — the same documents as bench/plans/*.json) or a path
// to a plan file. A (plan, seed) pair is bit-deterministic: two runs
// produce identical metric snapshots.

#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "host/node.h"
#include "host/recovery.h"
#include "host/xcalls.h"
#include "sim/random.h"

namespace xssd {
namespace {

struct EmbeddedPlan {
  const char* name;
  const char* json;
};

// Keep in sync with bench/plans/*.json (CI runs the names; the files are
// the editable/documented form).
constexpr EmbeddedPlan kEmbeddedPlans[] = {
    {"flash-fail", R"({
      "name": "flash-fail",
      "faults": [
        {"kind": "flash.program_fail", "at_us": 20, "duration_us": 400},
        {"kind": "flash.program_fail", "at_us": 900, "duration_us": 2000,
         "probability": 0.4}
      ]
    })"},
    {"ntb-flap", R"({
      "name": "ntb-flap",
      "faults": [
        {"kind": "ntb.link_down", "at_us": 0, "duration_us": 600},
        {"kind": "ntb.link_stall", "at_us": 900, "duration_us": 300,
         "probability": 0.5, "delay_us": 4}
      ]
    })"},
    {"crash-mid-destage", R"({
      "name": "crash-mid-destage",
      "faults": [
        {"kind": "crash", "site": "destage.emit_page", "after_hits": 4}
      ]
    })"},
    {"retention-stress", R"({
      "name": "retention-stress",
      "faults": [
        {"kind": "flash.retention", "at_us": 0, "duration_us": 2000000,
         "probability": 0.3, "delay_us": 3000000},
        {"kind": "flash.disturb", "at_us": 0, "duration_us": 2000000,
         "probability": 0.5, "magnitude": 2000}
      ]
    })"},
};

Result<fault::FaultPlan> ResolvePlan(const std::string& arg) {
  for (const EmbeddedPlan& p : kEmbeddedPlans) {
    if (arg == p.name) return fault::ParseFaultPlan(p.json);
  }
  return fault::LoadFaultPlan(arg);
}

uint64_t TotalInjected(const fault::FaultInjector::Totals& t) {
  return t.flash_program_fails + t.flash_erase_fails +
         t.flash_read_uncorrectable + t.flash_retention_boosts +
         t.flash_disturb_boosts + t.ntb_dropped + t.ntb_stalled +
         t.pcie_delayed + t.pcie_truncated + t.nvme_timeouts + t.crashes;
}

bool PlanHasCrash(const fault::FaultPlan& plan) {
  for (const fault::FaultSpec& spec : plan.faults) {
    if (spec.kind == fault::FaultKind::kCrash) return true;
  }
  return false;
}

int RunCampaign(bench::BenchReporter& reporter, const fault::FaultPlan& plan,
                uint64_t seed) {
  sim::Simulator sim;
  core::VillarsConfig config;
  config.geometry.channels = 2;
  config.geometry.dies_per_channel = 2;
  config.geometry.blocks_per_plane = 16;
  config.geometry.pages_per_block = 32;
  config.destage.ring_lba_count = 256;
  // The healing paths under test are opt-in; the campaign always runs with
  // retransmission and degraded-mode fallback armed.
  config.transport.retransmit_timeout = sim::Us(50);
  config.transport.degrade_timeout = sim::Us(300);
  // A mild media model so retention/disturb boosts (retention-stress plan)
  // actually move the sampled error count: organic decay over the
  // campaign's few-ms span stays far below the ECC budget, while an
  // injected 3 s dwell lands a handful of correctable errors per read.
  config.reliability.raw_bit_error_rate = 1e-7;
  config.reliability.ber_per_retention_sec = 1e-5;
  config.reliability.ber_per_read_disturb = 1e-8;
  config.reliability.ecc_correctable_bits = 24;
  config.reliability.read_retry_levels = 4;
  config.reliability.retry_ber_factor = 0.5;
  config.seed = seed;

  host::StorageNode primary(&sim, config, pcie::FabricConfig{}, "pri");
  host::StorageNode secondary(&sim, config, pcie::FabricConfig{}, "sec");
  if (!primary.Init().ok() || !secondary.Init().ok()) {
    std::fprintf(stderr, "node init failed\n");
    return 1;
  }
  host::ReplicationGroup group({&primary, &secondary});
  Status setup = group.Setup(core::ReplicationProtocol::kEager, sim::UsF(0.8));
  if (!setup.ok()) {
    std::fprintf(stderr, "replication setup failed: %s\n",
                 setup.ToString().c_str());
    return 1;
  }

  fault::FaultInjector injector(&sim, plan, seed);
  injector.SetMetrics(&reporter.registry());
  injector.SetFlightRecorder(reporter.flight_recorder());
  primary.ArmFaults(&injector, /*install_crash_handler=*/false);
  bool drained = false;
  bool crash_graceful = true;
  injector.SetCrashHandler([&](const fault::FaultSpec& spec) {
    crash_graceful = spec.graceful;
    if (spec.graceful) {
      primary.device().PowerFail([&]() { drained = true; });
    } else {
      primary.device().CrashHard();
      drained = true;
    }
  });
  primary.EnableMetrics(&reporter.registry(), "pri.");
  secondary.EnableMetrics(&reporter.registry(), "sec.");
  primary.device().EnableFlightRecorder(reporter.flight_recorder());
  secondary.device().EnableFlightRecorder(reporter.flight_recorder());
  reporter.AttachTimeSeries(&sim, plan.name.empty() ? "plan" : plan.name);
  // Always-on span recording: the scenario's metrics snapshot carries a
  // latency-breakdown block, and segment/e2e conservation joins the
  // campaign invariants.
  obs::SpanRecorder spans(&sim);
  primary.EnableSpans(&spans, "pri");
  secondary.EnableSpans(&spans, "sec");

  // Seeded random reference stream, appended in random-sized records. The
  // driver loop is callback-chained (not blocking) so a mid-append crash
  // cannot wedge the campaign.
  sim::Rng rng(seed ^ 0xCA3B417Aull);
  std::vector<uint8_t> stream(60000);
  for (auto& b : stream) b = static_cast<uint8_t>(rng.Next());
  size_t submitted = 0;
  bool posted_all = false;
  std::function<void()> append_next = [&]() {
    size_t chunk =
        std::min<size_t>(64 + rng.Uniform(900), stream.size() - submitted);
    if (chunk == 0) {
      posted_all = true;
      return;
    }
    primary.client().Append(stream.data() + submitted, chunk,
                            [&](Status) { append_next(); });
    submitted += chunk;
  };
  append_next();
  sim.RunWhile([&]() { return posted_all || drained; });
  if (PlanHasCrash(plan) && !drained) {
    // The crash clause may fire during destage, after the append chain has
    // posted everything; give it bounded simulated time to land.
    for (int i = 0; i < 100 && !drained; ++i) sim.RunFor(sim::Ms(1));
  }

  int failures = 0;
  auto check = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "INVARIANT FAILED [%s seed %llu]: %s\n",
                   plan.name.c_str(), static_cast<unsigned long long>(seed),
                   what);
      ++failures;
    }
  };

  const std::string label = plan.name.empty() ? "plan" : plan.name;
  if (injector.crashed()) {
    // Crash path: reboot and recover; the chain walk must cover the
    // acknowledged prefix (graceful) and never fabricate or reorder bytes.
    check(drained, "crash fired but device never finished halting");
    uint64_t acknowledged = primary.device().cmb().local_credit();
    sim.RunFor(sim::Ms(5));  // let in-flight flash programs settle
    primary.device().Reboot();
    Result<host::RecoveredLog> recovered = host::RecoverLog(
        sim, primary.driver(), primary.device().destage().ring_start_lba(),
        primary.device().destage().ring_lba_count());
    check(recovered.ok(), "post-crash recovery scan failed");
    if (recovered.ok()) {
      if (crash_graceful) {
        check(recovered->end_offset() >= acknowledged,
              "recovery lost acknowledged bytes");
      }
      check(recovered->end_offset() <= submitted,
            "recovery returned bytes never submitted");
      check(std::memcmp(recovered->data.data(),
                        stream.data() + recovered->start_offset,
                        recovered->data.size()) == 0,
            "recovered bytes differ from the reference stream");
      reporter.SetResult(label, "recovered_end",
                         static_cast<double>(recovered->end_offset()));
    }
    reporter.SetResult(label, "acknowledged",
                       static_cast<double>(acknowledged));
  } else {
    // Fault-but-no-crash path: the workload must complete durably — every
    // byte replicated and destaged despite the injected faults.
    check(posted_all, "append workload never completed");
    check(host::x_fsync(sim, primary.client()) == 0, "x_fsync failed");
    sim.RunFor(sim::Ms(30));  // drain destage through any retry backoffs

    check(primary.device().cmb().local_credit() == stream.size(),
          "primary credit does not cover the stream");
    check(secondary.device().cmb().local_credit() == stream.size(),
          "secondary lost or duplicated replicated bytes");
    std::vector<uint8_t> replica(stream.size());
    secondary.device().cmb().CopyOut(0, replica.data(), replica.size());
    check(replica == stream, "replica differs from the reference stream");
    check(primary.device().destage().destaged() >= stream.size(),
          "destage never caught up");
    std::vector<uint8_t> tail(stream.size());
    check(host::x_pread(sim, primary.client(), primary.driver(), tail.data(),
                        tail.size()) == static_cast<ssize_t>(tail.size()),
          "x_pread of the destaged tail failed");
    check(tail == stream, "destaged bytes differ from the reference stream");
    if (injector.totals().ntb_dropped > 0) {
      check(primary.device().transport().retransmit_rounds() >= 1,
            "writes were dropped but retransmission never ran");
    }
    reporter.SetResult(
        label, "retransmit_rounds",
        static_cast<double>(primary.device().transport().retransmit_rounds()));
  }

  // A campaign that injected nothing proves nothing.
  check(TotalInjected(injector.totals()) > 0, "plan injected no faults");
  if (PlanHasCrash(plan)) {
    check(injector.crashed(), "plan has a crash clause that never fired");
  }

  obs::BreakdownReporter breakdown("fault_campaign");
  breakdown.AddRun(label, spans);
  breakdown.ExportGauges(&reporter.registry(),
                         "bench.fault_campaign." + label + ".");
  check(breakdown.conservation_violations() == 0,
        "latency attribution violated segment/e2e conservation");

  reporter.SetResult(label, "submitted", static_cast<double>(submitted));
  reporter.SetResult(label, "faults_injected",
                     static_cast<double>(TotalInjected(injector.totals())));
  reporter.SetResult(label, "invariant_failures",
                     static_cast<double>(failures));
  // Nonzero means some fault/workload site asked for a past timestamp and
  // the scheduler clamped it to Now() — an ordering bug in the plan.
  reporter.SetResult(label, "schedule_past_clamps",
                     static_cast<double>(sim.past_schedule_clamps()));
  std::printf("plan=%s seed=%llu submitted=%zu injected=%llu %s\n",
              label.c_str(), static_cast<unsigned long long>(seed), submitted,
              static_cast<unsigned long long>(TotalInjected(injector.totals())),
              failures == 0 ? "OK" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace xssd

int main(int argc, char** argv) {
  using namespace xssd;
  bench::BenchReporter reporter(argc, argv, "fault_campaign",
                               {.values = {"--plan", "--seed"}});

  std::string plan_arg = "flash-fail";
  uint64_t seed = 1;
  const std::vector<std::string>& args = reporter.positional();
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--plan" && i + 1 < args.size()) {
      plan_arg = args[++i];
    } else if (args[i] == "--seed" && i + 1 < args.size()) {
      seed = std::strtoull(args[++i].c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: fault_campaign [--plan name|path] [--seed N] "
                   "[--metrics out.json]\n  embedded plans:");
      for (const EmbeddedPlan& p : kEmbeddedPlans) {
        std::fprintf(stderr, " %s", p.name);
      }
      std::fprintf(stderr, "\n");
      return 2;
    }
  }

  Result<fault::FaultPlan> plan = ResolvePlan(plan_arg);
  if (!plan.ok()) {
    std::fprintf(stderr, "cannot load plan '%s': %s\n", plan_arg.c_str(),
                 plan.status().ToString().c_str());
    return 2;
  }

  bench::PrintHeader("Fault campaign: " + plan->name + " (seed " +
                     std::to_string(seed) + ")");
  int rc = RunCampaign(reporter, *plan, seed);
  int finish_rc = reporter.Finish();
  return rc != 0 ? rc : finish_rc;
}
