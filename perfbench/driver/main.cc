// Benchmark driver: runs one workload for a host-time window and prints its
// metrics. Built twice (see CMakeLists.txt): `perfbench` reports the
// end-to-end metrics, `perfbench_traced` the per-layer split.
//
//   perfbench --workload tpcc-replicated --seed 7 --seconds 10
//   perfbench --workload conformance --seed 7 --seconds 1 --tiny
//
// The window is filled with whole iterations (at least three, one with
// --tiny), each on the same seeded input. Host times are medians over the
// iterations; virtual-time results must repeat exactly in every one. The
// last stdout line is one JSON object; run.py turns it into the benchmark
// result.

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "trace.h"
#include "workloads.h"
#ifdef PERFBENCH_TRACED
#include "wraps.h"
#endif

namespace perfbench {
namespace {

namespace tr = trace;

struct Workload {
  const char* name;
  IterationResult (*run)(const RunConfig&);
};

constexpr Workload kWorkloads[] = {
    {"tpcc-replicated", RunTpccReplicated},
    {"destage-mixed", RunDestageMixed},
    {"conformance", RunConformance},
};

struct Options {
  const Workload* workload = nullptr;
  RunConfig run;
  double seconds = 0;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --workload NAME --seed N --seconds S [--tiny] "
      "[--break CHECK]\n"
      "  --workload  tpcc-replicated | destage-mixed | conformance\n"
      "  --seed      non-negative integer; the workload's inputs derive "
      "from it\n"
      "  --seconds   host-time window to fill with iterations (> 0)\n"
      "  --tiny      smoke-test sizes\n"
      "  --break     replica-log | read-version | conformance: corrupt "
      "one expectation so that check must fail\n",
      argv0);
}

bool ParseUint(const char* text, uint64_t* out) {
  if (text == nullptr || *text < '0' || *text > '9') return false;
  errno = 0;
  char* end = nullptr;
  unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = value;
  return true;
}

bool ParseSeconds(const char* text, double* out) {
  if (text == nullptr || *text == '\0' || *text == '-') return false;
  char* end = nullptr;
  double value = std::strtod(text, &end);
  if (*end != '\0' || !std::isfinite(value) || value <= 0) return false;
  *out = value;
  return true;
}

/// Strict: every flag is known, takes its value, and nothing is positional.
bool ParseArgs(int argc, char** argv, Options* options) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view flag = argv[i];
    if (flag == "--tiny") {
      options->run.tiny = true;
      continue;
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--break") {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return false;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s needs a value\n", argv[i]);
      return false;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (w.name == std::string_view(value)) options->workload = &w;
      }
      if (options->workload == nullptr) {
        std::fprintf(stderr, "unknown workload: %s\n", value);
        return false;
      }
    } else if (flag == "--seed") {
      if (!ParseUint(value, &options->run.seed)) {
        std::fprintf(stderr, "bad --seed: %s\n", value);
        return false;
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseSeconds(value, &options->seconds)) {
        std::fprintf(stderr, "bad --seconds (must be > 0): %s\n", value);
        return false;
      }
    } else {
      std::string_view check = value;
      if (check == "replica-log") {
        options->run.break_check = Break::kReplicaLog;
      } else if (check == "read-version") {
        options->run.break_check = Break::kReadVersion;
      } else if (check == "conformance") {
        options->run.break_check = Break::kConformance;
      } else {
        std::fprintf(stderr, "unknown --break check: %s\n", value);
        return false;
      }
    }
  }
  if (options->workload == nullptr || !have_seed || options->seconds <= 0) {
    std::fprintf(stderr, "--workload, --seed and --seconds are required\n");
    return false;
  }
  return true;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

/// JSON string literal (failure texts are plain ASCII from the workloads).
std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string FormatNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

using MetricMap = std::map<std::string, Metric>;

void PrintMetrics(const char* title, const MetricMap& metrics) {
  std::printf("  -- %s\n", title);
  for (const auto& [name, metric] : metrics) {
    std::printf("  %-32s %20.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

std::string MetricsJson(const MetricMap& metrics) {
  std::string json = "{";
  for (const auto& [name, metric] : metrics) {
    json += (json.size() > 1 ? ", " : "") + Quote(name) +
            ": {\"value\": " + FormatNumber(metric.value) +
            ", \"unit\": " + Quote(metric.unit) + "}";
  }
  return json + "}";
}

bool SameSim(const IterationResult& a, const IterationResult& b) {
  if (a.digest != b.digest || a.sim.size() != b.sim.size()) return false;
  for (const auto& [name, metric] : a.sim) {
    auto it = b.sim.find(name);
    if (it == b.sim.end() || it->second.value != metric.value) return false;
  }
  return true;
}

#ifdef PERFBENCH_TRACED
/// Per-layer metrics of the traced driver, as per-iteration means.
/// Returns the number of iterations whose spans do not add up.
uint64_t AddLayerMetrics(const std::vector<IterationResult>& iterations,
                         MetricMap* metrics,
                         std::vector<std::string>* failures) {
  uint64_t broken = 0;
  double n = static_cast<double>(iterations.size());
  tr::Totals drive;
  tr::Totals all;
  std::vector<double> driven;
  for (const IterationResult& it : iterations) {
    int64_t self_sum = 0;
    for (int l = 0; l < tr::kLayerCount; ++l) {
      self_sum += it.spans.self_ticks[l];
      drive.calls[l] += it.spans.calls[l];
      drive.self_ticks[l] += it.spans.self_ticks[l];
      drive.total_ticks[l] += it.spans.total_ticks[l];
      all.calls[l] += it.spans.calls[l] + it.outside.calls[l];
      all.self_ticks[l] += it.spans.self_ticks[l] + it.outside.self_ticks[l];
    }
    drive.crc_bytes += it.spans.crc_bytes;
    drive.sim_events += it.spans.sim_events;
    driven.push_back(it.driven_s);
    // Conservation: the self times of every span in the driven phase (the
    // root's is sim.kernel, the event callbacks' is trace.unattributed)
    // add up to the root span, to the clock tick.
    const int64_t root = it.spans.total_ticks[tr::kDrive];
    if (it.spans.stack_errors != 0 || it.outside.stack_errors != 0 ||
        it.spans.calls[tr::kDrive] != 1 || self_sum != root) {
      ++broken;
      failures->push_back(
          "conservation: layer self times sum to " + std::to_string(self_sum) +
          " ticks, driven phase took " + std::to_string(root) + " (" +
          std::to_string(it.spans.stack_errors + it.outside.stack_errors) +
          " unbalanced spans)");
    }
  }
  auto seconds = [n](int64_t ticks) { return tr::TicksToSeconds(ticks) / n; };
  auto per_iteration = [n](uint64_t count) {
    return static_cast<double>(count) / n;
  };
  // Spans that run only inside the driven phase.
  const tr::Layer driven_layers[] = {
      tr::kCrc,           tr::kDbPrepare,     tr::kDbCommit,
      tr::kHostAppend,    tr::kHostAppendDurable, tr::kNvmeRead,
      tr::kNvmeWrite,     tr::kPcieHostWrite, tr::kPciePeerWrite,
      tr::kNtbMmioWrite,  tr::kFlashProgram,  tr::kFlashRead,
      tr::kFtlWrite,      tr::kFtlRead,       tr::kCheckGenerate,
      tr::kCheckRun,
  };
  for (tr::Layer layer : driven_layers) {
    std::string stem = tr::LayerName(layer);
    (*metrics)[stem + "_calls"] = {per_iteration(drive.calls[layer]), "count"};
    (*metrics)[stem + "_s"] = {seconds(drive.self_ticks[layer]), "s"};
  }
  // Set-up and teardown spans, wherever they ran.
  for (tr::Layer layer : {tr::kDbPopulate, tr::kCoreBuild, tr::kCoreTeardown}) {
    std::string stem = tr::LayerName(layer);
    (*metrics)[stem + "_calls"] = {per_iteration(all.calls[layer]), "count"};
    (*metrics)[stem + "_s"] = {seconds(all.self_ticks[layer]), "s"};
  }
  (*metrics)["common.crc_bytes"] = {per_iteration(drive.crc_bytes), "bytes"};
  (*metrics)["sim.callback_s"] = {seconds(drive.total_ticks[tr::kSimCallback]),
                                  "s"};
  (*metrics)["sim.kernel_s"] = {seconds(drive.self_ticks[tr::kDrive]), "s"};
  (*metrics)["sim.events"] = {per_iteration(drive.sim_events), "count"};
  double unattributed = seconds(drive.self_ticks[tr::kSimCallback]);
  (*metrics)["trace.unattributed_s"] = {unattributed, "s"};
  // Driven-phase wall time of the traced iterations (steady_clock, like
  // the untraced driver's driven_s), and the unattributed share of it.
  (*metrics)["trace.drive_s"] = {Median(driven), "s"};
  const double traced = seconds(drive.total_ticks[tr::kDrive]);
  (*metrics)["trace.unattributed_share"] = {
      traced > 0 ? unattributed / traced : 0, "ratio"};
  return broken;
}
#endif  // PERFBENCH_TRACED

int Run(const Options& options, const char* argv0) {
  const Workload& workload = *options.workload;
  std::printf("perfbench %s: workload %s, seed %" PRIu64 ", window %.3g s%s\n",
              tr::kTracing ? "(traced)" : "(untraced)", workload.name,
              options.run.seed, options.seconds,
              options.run.tiny ? ", tiny" : "");

  // The traced driver spends its first iteration recording virtual-time
  // spans and times layers in the others, so it needs one more.
  const size_t min_iterations = (options.run.tiny ? 1 : 3) + tr::kTracing;
  std::vector<IterationResult> iterations;
  std::vector<double> user_s, sys_s, minflt;
  int64_t window_start = tr::NowNs();
  while (iterations.size() < min_iterations ||
         static_cast<double>(tr::NowNs() - window_start) * 1e-9 <
             options.seconds) {
    rusage before{};
    getrusage(RUSAGE_SELF, &before);
    RunConfig run = options.run;
    run.record_waits = tr::kTracing && iterations.empty();
    iterations.push_back(workload.run(run));
    rusage after{};
    getrusage(RUSAGE_SELF, &after);
#ifdef PERFBENCH_TRACED
    wraps::ReleaseTaps();
#endif
    user_s.push_back(TimevalSeconds(after.ru_utime) -
                     TimevalSeconds(before.ru_utime));
    sys_s.push_back(TimevalSeconds(after.ru_stime) -
                    TimevalSeconds(before.ru_stime));
    minflt.push_back(static_cast<double>(after.ru_minflt - before.ru_minflt));
    const IterationResult& it = iterations.back();
    std::printf(
        "  iteration %zu: setup %.4f s, driven %.4f s, teardown %.4f s, "
        "%" PRIu64 "/%" PRIu64 " ops, %" PRIu64 " failed, digest %016" PRIx64
        "\n",
        iterations.size(), it.setup_s, it.driven_s, it.teardown_s,
        it.completed, it.attempted, it.failed, it.digest);
    if (it.attempted == 0) break;  // set-up failed: no point repeating
  }

  std::vector<std::string> failures;
  uint64_t attempted = 0, failed = 0, completed = 0;
  std::vector<double> wall, setup, driven, ops_rate;
  for (const IterationResult& it : iterations) {
    attempted += it.attempted;
    failed += it.failed;
    completed += it.completed;
    wall.push_back(it.setup_s + it.driven_s + it.teardown_s);
    setup.push_back(it.setup_s);
    driven.push_back(it.driven_s);
    ops_rate.push_back(it.driven_s > 0 ? it.completed / it.driven_s : 0);
    for (const std::string& f : it.failures) {
      if (failures.size() < 8) failures.push_back(f);
    }
    if (!SameSim(it, iterations.front())) {
      failures.push_back("simulation results differ between iterations");
      ++failed;
    }
  }
  if (completed == 0) {
    std::fprintf(stderr, "no operation completed in the window\n");
    Usage(argv0);
    return 1;
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  MetricMap host;
  host["wall_s"] = {Median(wall), "s"};
  host["setup_s"] = {Median(setup), "s"};
  host["driven_s"] = {Median(driven), "s"};
  host["ops_per_wall_s"] = {Median(ops_rate), "ops/s"};
  host["peak_rss_mb"] = {static_cast<double>(usage.ru_maxrss) / 1024.0,
                         "MiB"};
  host["proc.user_s"] = {Mean(user_s), "s"};
  host["proc.sys_s"] = {Mean(sys_s), "s"};
  host["proc.minflt"] = {Mean(minflt), "count"};
  MetricMap layers;
#ifdef PERFBENCH_TRACED
  std::vector<IterationResult> timed(iterations.begin() + 1, iterations.end());
  failed += AddLayerMetrics(timed, &layers, &failures);
  layers.insert(iterations.front().waits.begin(),
                iterations.front().waits.end());
#endif
  host["error_rate"] = {static_cast<double>(failed) / attempted, "ratio"};
  const MetricMap& sim = iterations.front().sim;

  PrintMetrics("host", host);
  PrintMetrics("simulation (deterministic)", sim);
  if (!layers.empty()) PrintMetrics("layers", layers);
  for (const std::string& f : failures) {
    std::printf("  FAILED: %s\n", f.c_str());
  }

  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016" PRIx64,
                iterations.front().digest);
  std::string json = "{\"workload\": " + Quote(workload.name) +
                     ", \"seed\": " + std::to_string(options.run.seed) +
                     ", \"traced\": " + (tr::kTracing ? "true" : "false") +
                     ", \"iterations\": " + std::to_string(iterations.size()) +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"sim_digest\": \"" + digest + "\", \"failures\": [";
  for (size_t i = 0; i < failures.size(); ++i) {
    json += (i ? ", " : "") + Quote(failures[i]);
  }
  json += "], \"host\": " + MetricsJson(host) +
          ", \"sim\": " + MetricsJson(sim) +
          ", \"layers\": " + MetricsJson(layers) + "}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::ParseArgs(argc, argv, &options)) {
    perfbench::Usage(argv[0]);
    return 2;
  }
  return perfbench::Run(options, argv[0]);
}
