// Figure 10 — Effects of Write Combining (paper §6.2).
//
// Throughput of a raw store stream into the fast side while sweeping the
// application write size, under Write-Combining vs Uncached MMIO mappings
// and SRAM vs DRAM CMB backing. Results are normalized to the best
// observed throughput, as in the paper.
//
// Paper shape: WC beats UC at every size; SRAM reaches its peak only at
// 64-byte writes (one full WC line per TLP); DRAM-backed CMB tops out from
// 16 bytes on (the shared DDR bus, not the link, is the ceiling).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "host/node.h"

namespace xssd {
namespace {

std::string RunLabel(core::BackingKind backing, pcie::MmioMode mode,
                     uint32_t write_size) {
  return std::string(backing == core::BackingKind::kSram ? "sram" : "dram") +
         (mode == pcie::MmioMode::kWriteCombining ? ".wc." : ".uc.") +
         std::to_string(write_size) + "B";
}

double RunOne(core::BackingKind backing, pcie::MmioMode mode,
              uint32_t write_size, sim::SimTime duration,
              bench::BenchReporter* reporter) {
  const std::string label = RunLabel(backing, mode, write_size);
  sim::Simulator sim;
  reporter->AttachTrace(&sim, label);
  reporter->AttachTimeSeries(&sim, label);
  host::XLogClientOptions options;
  options.mmio_mode = mode;
  options.respect_ring_capacity = false;  // raw intake measurement
  host::StorageNode node(&sim, bench::PaperVillarsConfig(backing),
                         bench::PaperFabricConfig(), "bench", options);
  Status status = node.Init();
  if (!status.ok()) {
    std::fprintf(stderr, "init failed: %s\n", status.ToString().c_str());
    std::exit(1);
  }
  node.EnableMetrics(&reporter->registry());
  if (obs::SpanRecorder* spans = reporter->AttachSpans(&sim, label)) {
    node.EnableSpans(spans, "dev");
  }

  // This is a pure intake-path microbenchmark (as in the paper): destaging
  // is parked with a zero barrier so the conventional side does not become
  // the measured bottleneck, and the ring-room check is moot.
  uint64_t barrier = 0;
  Status barrier_status = node.fabric().FunctionalWrite(
      host::NodeLayout::kCmbBase + core::kRegDestageBarrier,
      reinterpret_cast<const uint8_t*>(&barrier), 8);
  if (!barrier_status.ok()) std::exit(1);

  std::vector<uint8_t> chunk(write_size, 0xAB);
  uint64_t appended = 0;
  bool stop = false;

  // Issue back-to-back writes of `write_size` (each one fenced, as a log
  // append is), as fast as the flow control allows.
  std::function<void()> pump = [&]() {
    if (stop) return;
    node.client().Append(chunk.data(), chunk.size(), [&](Status s) {
      if (!s.ok()) {
        stop = true;
        return;
      }
      appended += chunk.size();
      pump();
    });
  };
  pump();

  sim.RunFor(sim::Ms(2));  // warmup
  uint64_t start_bytes = appended;
  sim::SimTime start = sim.Now();
  sim.RunFor(duration);
  double secs = sim::ToSec(sim.Now() - start);
  stop = true;
  double bytes_per_sec = static_cast<double>(appended - start_bytes) / secs;
  reporter->SetResult(label, "mb_per_sec", bytes_per_sec / 1e6);
  return bytes_per_sec;
}

}  // namespace
}  // namespace xssd

int main(int argc, char** argv) {
  using namespace xssd;
  bench::BenchReporter reporter(argc, argv, "fig10");
  // Raw-intake runs intentionally lap the ring; silence the advisory note.
  SetLogLevel(LogLevel::kError);
  const uint32_t sizes[] = {1, 2, 4, 8, 16, 32, 64, 128, 256};

  bench::PrintHeader("Figure 10: write combining vs uncached, by write size");

  for (core::BackingKind backing :
       {core::BackingKind::kSram, core::BackingKind::kDram}) {
    const char* backing_name =
        backing == core::BackingKind::kSram ? "SRAM" : "DRAM";
    double results[2][9];
    double best = 0;
    int mi = 0;
    for (pcie::MmioMode mode : {pcie::MmioMode::kWriteCombining,
                                pcie::MmioMode::kUncached}) {
      for (int si = 0; si < 9; ++si) {
        // Small writes dominate event counts; a shorter window suffices
        // for a steady-state rate.
        sim::SimTime duration =
            sizes[si] < 16
                ? sim::Ms(1)
                : (sizes[si] < 64 ? sim::Ms(4) : sim::Ms(10));
        results[mi][si] =
            RunOne(backing, mode, sizes[si], duration, &reporter);
        best = std::max(best, results[mi][si]);
      }
      ++mi;
    }
    std::printf("\n-- %s-backed CMB (normalized to best = %.0f MB/s) --\n",
                backing_name, best / 1e6);
    std::printf("%-6s %12s %12s %10s %10s\n", "size", "WC_MB/s", "UC_MB/s",
                "WC_norm", "UC_norm");
    for (int si = 0; si < 9; ++si) {
      std::printf("%-6u %12.1f %12.1f %10.3f %10.3f\n", sizes[si],
                  results[0][si] / 1e6, results[1][si] / 1e6,
                  results[0][si] / best, results[1][si] / best);
    }
  }
  return reporter.Finish();
}
