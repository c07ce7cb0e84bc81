#ifndef XSSD_BENCH_BENCH_UTIL_H_
#define XSSD_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "obs/critical_path.h"
#include "obs/flightrec.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "pcie/fabric.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace xssd::bench {

/// Villars configuration matching the paper's prototype environment (§6):
/// PCIe Gen2 ×4 (2 GB/s) for the CMB experiments, SRAM 4 GB/s / DRAM
/// 2 GB/s shared backing, 16 KiB flash pages, ~2 GB/s flash array.
inline core::VillarsConfig PaperVillarsConfig(core::BackingKind backing) {
  core::VillarsConfig config;
  config.cmb.backing = backing;
  if (backing == core::BackingKind::kDram) {
    // 128 MiB DRAM CMB would dominate memory; 8 MiB preserves behaviour
    // (the ring never limits; bandwidth does).
    config.cmb.ring_bytes = 8ull << 20;
  }
  config.destage.ring_lba_count = 2048;
  return config;
}

inline pcie::FabricConfig PaperFabricConfig() {
  pcie::FabricConfig config;
  config.generation = 2;
  config.lanes = 4;
  return config;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// A bench's own command-line flags. BenchReporter passes each one (with
/// its value, for `values`) through positional() for the bench to parse,
/// and rejects every other `--` argument. Bare (positional) arguments are
/// accepted only when `positional` describes them.
struct BenchFlags {
  std::vector<std::string> values = {};    ///< flags that take one value
  std::vector<std::string> switches = {};  ///< flags that take none
  std::string positional = {};             ///< usage text for positional args
};

/// \brief Uniform bench reporting: one MetricsRegistry per bench binary,
/// exported as a JSON snapshot on exit, plus an optional Chrome trace.
///
/// Flags consumed from argv (remaining arguments, and the bench's own
/// flags named in BenchFlags, are exposed through positional()):
///   --metrics PATH     snapshot destination (default: <name>.metrics.json)
///   --trace PATH       record simulator events as Chrome trace_event JSON
///   --breakdown PATH   record request spans and write the critical-path
///                      latency breakdown (per run, per request kind)
///   --timeseries PATH  per-window time series of every metric, one
///                      sampler per run (see AttachTimeSeries)
///   --ts-interval-us N sampling window length in virtual µs (default 1000)
///   --slo PATH         JSON SLO rules evaluated per window (implies
///                      sampling); a fatal rule's alert, or a rule whose
///                      metric never produced a series, fails the bench
///   --flightrec PATH   write the flight-recorder ring to PATH at exit
///                      (the recorder itself is always on; crash-site
///                      AutoDumps also land in PATH instead of stderr)
///
/// Any other `--` argument, a bare argument the bench does not declare, a
/// value flag given without its value, or a malformed --ts-interval-us
/// prints usage and exits with status 2.
///
/// Device counters accumulate across every run the bench performs; per-run
/// headline numbers go in as `bench.<name>.*` gauges via SetResult(), so
/// the snapshot carries both the raw device view and the figure's table.
class BenchReporter {
 public:
  BenchReporter(int argc, char** argv, const std::string& name,
                BenchFlags bench_flags = {})
      : name_(name), metrics_path_(name + ".metrics.json") {
    auto fail = [&](const std::string& error) {
      UsageExit(argv[0], bench_flags, error);
    };
    auto value = [&](int* i) -> std::string {
      if (*i + 1 >= argc) fail(std::string(argv[*i]) + " needs a value");
      return argv[++*i];
    };
    auto listed = [](const std::vector<std::string>& flags,
                     const std::string& arg) {
      for (const std::string& flag : flags) {
        if (flag == arg) return true;
      }
      return false;
    };
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--metrics") {
        metrics_path_ = value(&i);
      } else if (arg == "--trace") {
        trace_path_ = value(&i);
        trace_ = std::make_unique<obs::ChromeTraceWriter>();
      } else if (arg == "--breakdown") {
        breakdown_path_ = value(&i);
      } else if (arg == "--timeseries") {
        timeseries_path_ = value(&i);
      } else if (arg == "--ts-interval-us") {
        std::string text = value(&i);
        ts_interval_us_ = std::strtoull(text.c_str(), nullptr, 10);
        if (text.find_first_not_of("0123456789") != std::string::npos ||
            ts_interval_us_ == 0) {
          fail("--ts-interval-us needs a positive integer, got '" + text +
               "'");
        }
      } else if (arg == "--slo") {
        std::string path = value(&i);
        Status status = LoadSloFile(path);
        if (!status.ok()) {
          std::fprintf(stderr, "--slo %s: %s\n", path.c_str(),
                       status.ToString().c_str());
          flag_error_ = true;
        }
      } else if (arg == "--flightrec") {
        flightrec_path_ = value(&i);
        flightrec_.set_dump_path(flightrec_path_);
      } else if (listed(bench_flags.values, arg)) {
        positional_.push_back(arg);
        positional_.push_back(value(&i));
      } else if (listed(bench_flags.switches, arg)) {
        positional_.push_back(std::move(arg));
      } else if (arg.rfind("--", 0) == 0) {
        fail("unknown flag " + arg);
      } else if (bench_flags.positional.empty()) {
        fail("unexpected argument " + arg);
      } else {
        positional_.push_back(std::move(arg));
      }
    }
    flightrec_.SetMetrics(&registry_);
  }

  obs::MetricsRegistry& registry() { return registry_; }
  const std::vector<std::string>& positional() const { return positional_; }

  /// Hook the trace writer (if --trace was given) into `sim`, grouping the
  /// run's events under `run_label` in the viewer.
  void AttachTrace(sim::Simulator* sim, const std::string& run_label) {
    if (!trace_) return;
    trace_->BeginProcess(run_label);
    sim->set_trace_sink(trace_.get());
  }

  /// Allocate a fresh span recorder for one run (nullptr unless
  /// --breakdown was given). The bench wires it into its nodes via
  /// EnableSpans; Finish() analyses every recorder into the breakdown
  /// report. One recorder per run keeps stream-offset joins unambiguous.
  obs::SpanRecorder* AttachSpans(sim::Simulator* sim,
                                 const std::string& run_label) {
    if (breakdown_path_.empty()) return nullptr;
    span_runs_.push_back(
        {run_label, std::make_unique<obs::SpanRecorder>(sim)});
    return span_runs_.back().recorder.get();
  }

  bool breakdown_enabled() const { return !breakdown_path_.empty(); }

  /// True when per-window sampling is on: --timeseries was given, --slo
  /// loaded rules, or the bench added rules programmatically.
  bool sampling_enabled() const {
    return !timeseries_path_.empty() || !slo_rules_.empty();
  }

  /// Add an SLO rule programmatically (campaign headline gates). Must be
  /// called before the runs whose samplers should evaluate it. Adding a
  /// rule enables sampling even without --timeseries.
  void AddSloRule(obs::SloRule rule) { slo_rules_.push_back(std::move(rule)); }

  /// The bench-wide black-box ring: always on, shared by every run.
  /// Benches hand it to devices (EnableFlightRecorder), injectors, and
  /// supervisors; crash sites AutoDump it.
  obs::FlightRecorder* flight_recorder() { return &flightrec_; }

  /// Allocate a per-run sampler (plus watchdog when rules exist) over the
  /// shared registry and start it at `sim`'s current time; nullptr when
  /// sampling is off. The sampler rides the simulator's time-observer
  /// hook, so the run's event sequence is identical with sampling on or
  /// off. Safe to let `sim` die first — teardown finalizes the sampler.
  obs::TimeSeriesSampler* AttachTimeSeries(sim::Simulator* sim,
                                           const std::string& run_label) {
    if (!sampling_enabled()) return nullptr;
    obs::TimeSeriesOptions options;
    options.interval = sim::Us(ts_interval_us_);
    TsRun run;
    run.label = run_label;
    if (!slo_rules_.empty()) {
      run.watchdog = std::make_unique<obs::SloWatchdog>();
      run.watchdog->SetMetrics(&registry_);
      for (const obs::SloRule& rule : slo_rules_) run.watchdog->AddRule(rule);
      run.watchdog->set_flight_recorder(&flightrec_);
    }
    run.sampler =
        std::make_unique<obs::TimeSeriesSampler>(sim, &registry_, options);
    if (run.watchdog) run.sampler->set_watchdog(run.watchdog.get());
    if (trace_) run.sampler->set_trace(trace_.get());
    run.sampler->Start();
    ts_runs_.push_back(std::move(run));
    return ts_runs_.back().sampler.get();
  }

  /// Alerts of the rule named `name`, summed over every run's watchdog.
  uint64_t SloAlerts(std::string_view name) const {
    uint64_t total = 0;
    for (const TsRun& run : ts_runs_) {
      if (run.watchdog) total += run.watchdog->AlertsFor(name);
    }
    return total;
  }

  /// Record one headline result as a gauge named
  /// "bench.<name>.<label>.<field>".
  void SetResult(const std::string& label, const std::string& field,
                 double value) {
    registry_.GetGauge("bench." + name_ + "." + label + "." + field)
        ->Set(value);
  }
  double Result(const std::string& label, const std::string& field) {
    return registry_.GetGauge("bench." + name_ + "." + label + "." + field)
        ->value();
  }

  /// Write the metrics snapshot (and the trace / time series / flight
  /// recorder, when recording). Call once at the end of main(). Returns
  /// non-zero on export failures, on any fatal SLO alert and on any SLO
  /// rule that never bound to a series.
  int Finish() {
    if (flag_error_) return 1;
    // Close trailing partial windows before exporting anything: samplers
    // whose simulators are still alive detach here; ones whose simulators
    // already died were finalized at teardown (Finalize is idempotent).
    for (TsRun& run : ts_runs_) run.sampler->Finalize();
    obs::JsonExporter exporter(&registry_);
    Status status = exporter.WriteFile(metrics_path_);
    if (!status.ok()) {
      std::fprintf(stderr, "metrics export failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("\nmetrics snapshot: %s (%zu metrics)\n",
                metrics_path_.c_str(), registry_.size());
    if (!breakdown_path_.empty()) {
      obs::BreakdownReporter breakdown(name_);
      for (const SpanRun& run : span_runs_) {
        breakdown.AddRun(run.label, *run.recorder);
        if (trace_) EmitSpansToTrace(*run.recorder, trace_.get());
      }
      status = breakdown.WriteFile(breakdown_path_);
      if (!status.ok()) {
        std::fprintf(stderr, "breakdown export failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      std::printf("breakdown: %s (%llu requests)\n", breakdown_path_.c_str(),
                  static_cast<unsigned long long>(breakdown.request_count()));
      if (breakdown.conservation_violations() > 0) {
        // The invariant every consumer of the report relies on: attributed
        // segments partition each request's end-to-end latency exactly.
        std::fprintf(stderr,
                     "breakdown conservation violated for %llu requests\n",
                     static_cast<unsigned long long>(
                         breakdown.conservation_violations()));
        return 1;
      }
    }
    if (!timeseries_path_.empty()) {
      std::string doc = "{\"schema\": \"xssd.timeseries.v1\", \"bench\": \"" +
                        obs::JsonEscape(name_) + "\", \"runs\": {";
      bool first = true;
      for (const TsRun& run : ts_runs_) {
        if (!first) doc += ", ";
        first = false;
        doc += "\"" + obs::JsonEscape(run.label) + "\": ";
        run.sampler->AppendJson(&doc);
      }
      doc += "}}\n";
      std::ofstream ts_out(timeseries_path_);
      ts_out << doc;
      ts_out.close();
      if (!ts_out) {
        std::fprintf(stderr, "timeseries export failed: cannot write %s\n",
                     timeseries_path_.c_str());
        return 1;
      }
      size_t windows = 0;
      for (const TsRun& run : ts_runs_) windows += run.sampler->windows();
      std::printf("timeseries: %s (%zu runs, %zu windows)\n",
                  timeseries_path_.c_str(), ts_runs_.size(), windows);
    }
    if (!flightrec_path_.empty()) {
      status = flightrec_.DumpToFile(flightrec_path_, "bench exit");
      if (!status.ok()) {
        std::fprintf(stderr, "flight recorder export failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      std::printf("flight recorder: %s (%llu events)\n",
                  flightrec_path_.c_str(),
                  static_cast<unsigned long long>(flightrec_.appended()));
    }
    if (trace_) {
      status = trace_->WriteFile(trace_path_);
      if (!status.ok()) {
        std::fprintf(stderr, "trace export failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      std::printf("trace: %s (%zu events, %llu dropped)\n",
                  trace_path_.c_str(), trace_->event_count(),
                  static_cast<unsigned long long>(trace_->dropped()));
    }
    uint64_t fatal = 0;
    // Every run's watchdog holds a prefix of slo_rules_, in order.
    std::vector<bool> bound(slo_rules_.size(), false);
    for (const TsRun& run : ts_runs_) {
      if (!run.watchdog) continue;
      fatal += run.watchdog->fatal_alerts();
      const auto& rules = run.watchdog->rules();
      for (size_t r = 0; r < rules.size(); ++r) {
        if (rules[r].bound) bound[r] = true;
      }
    }
    size_t unbound = 0;
    for (size_t r = 0; r < slo_rules_.size(); ++r) {
      if (bound[r]) continue;
      ++unbound;
      std::fprintf(stderr,
                   "SLO rule %s: metric %s never produced a series in any "
                   "window (misspelt?)\n",
                   slo_rules_[r].name.c_str(), slo_rules_[r].metric.c_str());
    }
    if (fatal > 0 || unbound > 0) {
      std::fprintf(stderr,
                   "%llu fatal SLO alert(s), %zu unbound SLO rule(s) — "
                   "failing the bench\n",
                   static_cast<unsigned long long>(fatal), unbound);
      return 1;
    }
    return 0;
  }

 private:
  struct SpanRun {
    std::string label;
    std::unique_ptr<obs::SpanRecorder> recorder;
  };
  /// Watchdog before sampler: the sampler's destructor finalizes trailing
  /// windows, which evaluates the watchdog.
  struct TsRun {
    std::string label;
    std::unique_ptr<obs::SloWatchdog> watchdog;
    std::unique_ptr<obs::TimeSeriesSampler> sampler;
  };

  [[noreturn]] static void UsageExit(const char* argv0,
                                     const BenchFlags& bench_flags,
                                     const std::string& error) {
    std::fprintf(stderr,
                 "%s: %s\nusage: %s [--metrics PATH] [--trace PATH] "
                 "[--breakdown PATH] [--timeseries PATH] "
                 "[--ts-interval-us N] [--slo PATH] [--flightrec PATH]",
                 argv0, error.c_str(), argv0);
    for (const std::string& flag : bench_flags.values) {
      std::fprintf(stderr, " [%s V]", flag.c_str());
    }
    for (const std::string& flag : bench_flags.switches) {
      std::fprintf(stderr, " [%s]", flag.c_str());
    }
    std::fprintf(stderr, "%s%s\n", bench_flags.positional.empty() ? "" : " ",
                 bench_flags.positional.c_str());
    std::exit(2);
  }

  Status LoadSloFile(const std::string& path) {
    std::ifstream in(path);
    if (!in) return Status::IoError("cannot open " + path);
    std::ostringstream text;
    text << in.rdbuf();
    // Qualified: the Result(...) accessor above shadows xssd::Result<T>.
    xssd::Result<std::vector<obs::SloRule>> rules =
        obs::ParseSloRules(text.str());
    if (!rules.ok()) return rules.status();
    for (obs::SloRule& rule : *rules) slo_rules_.push_back(std::move(rule));
    return Status::OK();
  }

  std::string name_;
  std::string metrics_path_;
  std::string trace_path_;
  std::string breakdown_path_;
  std::string timeseries_path_;
  std::string flightrec_path_;
  uint64_t ts_interval_us_ = 1000;
  bool flag_error_ = false;
  std::vector<std::string> positional_;
  obs::MetricsRegistry registry_;
  obs::FlightRecorder flightrec_;
  std::unique_ptr<obs::ChromeTraceWriter> trace_;
  std::vector<SpanRun> span_runs_;
  std::vector<obs::SloRule> slo_rules_;
  std::vector<TsRun> ts_runs_;
};

}  // namespace xssd::bench

#endif  // XSSD_BENCH_BENCH_UTIL_H_
