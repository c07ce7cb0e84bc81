// Figure 9 — Logging to Local Storage (paper §6.1).
//
// Latency (left) and throughput (right) of TPC-C with an increasing number
// of log-writer workers under five local logging setups:
//   no-log          : durability disabled (ERMIA ceiling)
//   nvdimm          : log to host PM (battery-backed DIMMs)
//   nvme            : log to the Villars conventional side (pwrite+fsync)
//   villars-sram    : log to the fast side, SRAM-backed CMB
//   villars-dram    : log to the fast side, DRAM-backed CMB
//
// Paper shape: all methods track each other up to 4 workers; at 8 the
// conventional side saturates near ~200 ktxn/s while the rest reach the
// ~300 ktxn/s CPU ceiling; NVMe latency sits well above the PM-class
// methods; DRAM-backed CMB shows back-pressure at 8 workers.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "db/log_backend.h"
#include "db/log_manager.h"
#include "db/tpcc.h"
#include "db/workload.h"
#include "host/node.h"

namespace xssd {
namespace {

struct RunResult {
  double txns_per_sec;
  double mean_latency_us;
  double p50_us;
  double p99_us;
};

enum class Method { kNoLog, kNvdimm, kNvme, kVillarsSram, kVillarsDram };

const char* MethodName(Method method) {
  switch (method) {
    case Method::kNoLog:
      return "no-log";
    case Method::kNvdimm:
      return "nvdimm";
    case Method::kNvme:
      return "nvme";
    case Method::kVillarsSram:
      return "villars-sram";
    case Method::kVillarsDram:
      return "villars-dram";
  }
  return "?";
}

std::string RunLabel(Method method, uint32_t workers) {
  return std::string(MethodName(method)) + ".w" + std::to_string(workers);
}

RunResult RunOne(Method method, uint32_t workers, sim::SimTime measure,
                 bench::BenchReporter* reporter) {
  sim::Simulator sim;
  reporter->AttachTrace(&sim, RunLabel(method, workers));
  reporter->AttachTimeSeries(&sim, RunLabel(method, workers));

  core::BackingKind backing = method == Method::kVillarsDram
                                  ? core::BackingKind::kDram
                                  : core::BackingKind::kSram;
  host::StorageNode node(&sim, bench::PaperVillarsConfig(backing),
                         bench::PaperFabricConfig(), "bench");
  Status status = node.Init();
  if (!status.ok()) {
    std::fprintf(stderr, "node init failed: %s\n", status.ToString().c_str());
    std::exit(1);
  }
  // Unprefixed registration: the snapshot carries the plain device-metric
  // namespace (cmb.*, destage.*, flash.*, ...), accumulated across runs.
  node.EnableMetrics(&reporter->registry());
  if (obs::SpanRecorder* spans =
          reporter->AttachSpans(&sim, RunLabel(method, workers))) {
    node.EnableSpans(spans, "dev");
  }

  std::unique_ptr<db::LogBackend> backend;
  switch (method) {
    case Method::kNoLog:
      backend = std::make_unique<db::NoLogBackend>(&sim);
      break;
    case Method::kNvdimm:
      backend = std::make_unique<db::NvdimmBackend>(&sim);
      break;
    case Method::kNvme:
      // Log file region above the destage ring.
      backend = std::make_unique<db::NvmeLogBackend>(&node.driver(), 4096,
                                                     4096);
      break;
    case Method::kVillarsSram:
    case Method::kVillarsDram:
      backend = std::make_unique<db::VillarsLogBackend>(&node.client());
      break;
  }

  db::LogManager log(&sim, backend.get());
  db::Database database(&log);
  db::TpccConfig tpcc_config;
  db::TpccWorkload workload(&database, tpcc_config, 1234);
  workload.Populate();

  db::WorkloadDriver driver(&sim, &database, &workload, workers);
  db::WorkloadResult result = driver.Run(sim::Ms(100), measure);

  RunResult r{result.txns_per_sec, result.latency_us.Mean(),
              result.latency_us.Percentile(50),
              result.latency_us.Percentile(99)};
  std::string label = RunLabel(method, workers);
  reporter->SetResult(label, "txns_per_sec", r.txns_per_sec);
  reporter->SetResult(label, "mean_latency_us", r.mean_latency_us);
  reporter->SetResult(label, "p50_us", r.p50_us);
  reporter->SetResult(label, "p99_us", r.p99_us);
  return r;
}

}  // namespace
}  // namespace xssd

int main(int argc, char** argv) {
  using namespace xssd;
  bench::BenchReporter reporter(argc, argv, "fig09",
                               {.positional = "[measure_ms]"});
  sim::SimTime measure = sim::Ms(400);
  const std::vector<std::string>& args = reporter.positional();
  if (!args.empty()) {
    const std::string& text = args[0];
    uint64_t ms = std::strtoull(text.c_str(), nullptr, 10);
    if (args.size() > 1 || ms == 0 ||
        text.find_first_not_of("0123456789") != std::string::npos) {
      std::fprintf(stderr,
                   "usage: fig09_local_logging [measure_ms] "
                   "[--metrics out.json]\n  measure_ms must be a positive "
                   "integer\n");
      return 2;
    }
    measure = sim::Ms(ms);
  }

  bench::PrintHeader("Figure 9: logging to local storage (TPC-C, 16 WH)");
  std::printf("%-14s %8s %14s %12s %10s %10s\n", "method", "workers",
              "txn/s", "mean_lat_us", "p50_us", "p99_us");
  for (Method method :
       {Method::kNoLog, Method::kNvdimm, Method::kNvme,
        Method::kVillarsSram, Method::kVillarsDram}) {
    for (uint32_t workers : {1u, 2u, 4u, 8u}) {
      RunResult r = RunOne(method, workers, measure, &reporter);
      std::printf("%-14s %8u %14.0f %12.1f %10.1f %10.1f\n",
                  MethodName(method), workers, r.txns_per_sec,
                  r.mean_latency_us, r.p50_us, r.p99_us);
    }
  }
  return reporter.Finish();
}
