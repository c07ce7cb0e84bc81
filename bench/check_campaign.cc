// Conformance-fuzzing campaign: run seeded randomized schedules through
// the full DES stack and cross-check every observable protocol step
// against the reference model (src/check). Exits non-zero on the first
// oracle divergence, after dumping the failing schedule and its shrunk
// counterexample as replayable trace files.
//
//   check_campaign --runs 500 --seed 1 --ops 40 --shrink --metrics out.json
//   check_campaign --replay counterexample.trace
//   check_campaign --plant-bug --runs 50 --shrink
//
// Flags:
//   --runs N       schedules to run (seeds seed, seed+1, ...; default 100)
//   --seed S       first seed (default 1)
//   --ops N        ops per generated schedule (default 40)
//   --shrink       minimize a failing schedule before exiting
//   --dump-dir D   where failing traces go (default ".")
//   --replay PATH  run one schedule from a dumped trace file and exit
//   --plant-bug    enable the planted early-credit ordering bug; the
//                  campaign then must find a divergence and shrink it to
//                  <= 15 ops, and exits non-zero if the oracle misses it
//                  (the self-test CI gates on)
//
// Every verdict goes through the reporter: a divergence, a failed planted-
// bug self-test, a trace file that cannot be written and a failed metrics
// export all make the campaign exit 1.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_util.h"
#include "check/conformance.h"
#include "check/schedule.h"
#include "check/shrink.h"

namespace xssd {
namespace {

constexpr size_t kPlantedShrinkTarget = 15;  // acceptance: <= 15 ops

void WriteTrace(bench::BenchReporter& reporter, const std::string& path,
                const check::Schedule& schedule) {
  std::ofstream out(path);
  out << check::ToText(schedule);
  out.close();
  reporter.Check(static_cast<bool>(out), "cannot write " + path);
  if (out) std::printf("  dumped: %s\n", path.c_str());
}

void PrintResult(uint64_t seed, const check::CheckResult& result) {
  std::printf(
      "seed %llu: %s (%zu ops, %llu bytes appended%s%s)\n",
      static_cast<unsigned long long>(seed),
      result.ok ? "conforms" : result.first_divergence.c_str(),
      result.ops_executed,
      static_cast<unsigned long long>(result.appended),
      result.crashed ? (result.graceful_crash ? ", graceful crash"
                                              : ", hard crash")
                     : "",
      result.recovered ? ", recovered" : "");
}

}  // namespace

int Main(int argc, char** argv) {
  bench::BenchFlags flags;
  flags.values = {"--seed", "--runs", "--ops", "--dump-dir", "--replay"};
  flags.switches = {"--shrink", "--plant-bug"};
  bench::BenchReporter reporter(argc, argv, "check_campaign", flags);

  uint64_t first_seed = 1;
  size_t runs = 100;
  size_t ops = 40;
  bool shrink = false;
  bool plant_bug = false;
  std::string dump_dir = ".";
  std::string replay_path;

  // BenchReporter passes only the declared flags, value flags with their
  // value.
  const auto& args = reporter.positional();
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--seed") {
      first_seed = reporter.U64Flag("--seed", args[++i]);
    } else if (args[i] == "--runs") {
      runs = reporter.U64Flag("--runs", args[++i], 1);
    } else if (args[i] == "--ops") {
      ops = reporter.U64Flag("--ops", args[++i], 1);
    } else if (args[i] == "--shrink") {
      shrink = true;
    } else if (args[i] == "--plant-bug") {
      plant_bug = true;
    } else if (args[i] == "--dump-dir") {
      dump_dir = args[++i];
    } else {  // --replay
      replay_path = args[++i];
    }
  }

  check::CheckOptions options;
  options.plant_early_credit_bug = plant_bug;

  if (!replay_path.empty()) {
    std::ifstream in(replay_path);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", replay_path.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    Result<check::Schedule> schedule = check::ScheduleFromText(buf.str());
    if (!schedule.ok()) {
      std::fprintf(stderr, "bad trace: %s\n",
                   schedule.status().ToString().c_str());
      return 2;
    }
    check::CheckResult result = check::RunSchedule(*schedule, options);
    PrintResult(schedule->seed, result);
    for (const auto& d : result.divergences) {
      std::printf("  %s\n", d.ToString().c_str());
    }
    reporter.Check(result.ok, "the replayed schedule diverged");
    return reporter.Finish();
  }

  bench::PrintHeader(plant_bug
                         ? "conformance campaign (planted ordering bug)"
                         : "conformance campaign");
  size_t conforming = 0;
  size_t crashes = 0;
  size_t failovers = 0;
  size_t divergences = 0;

  for (size_t run = 0; run < runs; ++run) {
    uint64_t seed = first_seed + run;
    check::Schedule schedule = check::GenerateSchedule(seed, ops);
    check::CheckResult result = check::RunSchedule(schedule, options);
    if (result.crashed) ++crashes;
    if (result.failed_over) ++failovers;
    if (result.ok) {
      ++conforming;
      continue;
    }
    ++divergences;
    PrintResult(seed, result);

    if (plant_bug) {
      // The planted-bug self-test only needs one counterexample; prove
      // the shrinker can minimize it and stop.
      check::ShrinkResult shrunk =
          check::ShrinkSchedule(schedule, options);
      std::printf(
          "  planted bug caught; shrunk %zu -> %zu ops in %zu runs: %s\n",
          schedule.ops.size(), shrunk.schedule.ops.size(), shrunk.runs,
          shrunk.divergence.c_str());
      WriteTrace(reporter, dump_dir + "/planted.trace", schedule);
      WriteTrace(reporter, dump_dir + "/planted.shrunk.trace",
                 shrunk.schedule);
      reporter.SetResult("planted", "found", 1);
      reporter.SetResult("planted", "shrunk_ops",
                         static_cast<double>(shrunk.schedule.ops.size()));
      reporter.SetResult("planted", "shrink_runs",
                         static_cast<double>(shrunk.runs));
      const bool minimal = shrunk.still_failing &&
                           shrunk.schedule.ops.size() <= kPlantedShrinkTarget;
      reporter.Check(minimal,
                     "the planted bug did not shrink to <= 15 failing ops");
      if (minimal) {
        std::printf("\nplanted-bug self-test passed (%zu-op counterexample)\n",
                    shrunk.schedule.ops.size());
      }
      return reporter.Finish();
    }

    // A real divergence: dump the schedule (and its minimized form) for
    // replay, then fail the campaign.
    std::string base =
        dump_dir + "/diverged-seed" + std::to_string(seed);
    WriteTrace(reporter, base + ".trace", schedule);
    if (shrink) {
      check::ShrinkResult shrunk = check::ShrinkSchedule(schedule, options);
      std::printf("  shrunk %zu -> %zu ops in %zu runs: %s\n",
                  schedule.ops.size(), shrunk.schedule.ops.size(),
                  shrunk.runs, shrunk.divergence.c_str());
      WriteTrace(reporter, base + ".shrunk.trace", shrunk.schedule);
    }
    break;
  }

  if (plant_bug) {
    reporter.Check(false, "the planted ordering bug survived " +
                              std::to_string(runs) + " schedules undetected");
    return reporter.Finish();
  }

  std::printf("\n%zu/%zu schedules conform (%zu crash/recovery runs, "
              "%zu failover runs, %zu divergences)\n",
              conforming, runs, crashes, failovers, divergences);
  reporter.SetResult("campaign", "runs", static_cast<double>(runs));
  reporter.SetResult("campaign", "conforming",
                     static_cast<double>(conforming));
  reporter.SetResult("campaign", "crash_runs", static_cast<double>(crashes));
  reporter.SetResult("campaign", "failover_runs",
                     static_cast<double>(failovers));
  reporter.SetResult("campaign", "divergences",
                     static_cast<double>(divergences));
  reporter.Check(divergences == 0,
                 "a schedule diverged from the reference model");
  return reporter.Finish();
}

}  // namespace xssd

int main(int argc, char** argv) { return xssd::Main(argc, argv); }
