// Figure 11 — Effects of CMB Queue Size (paper §6.3).
//
// A controlled append workload (group-commit-sized durable writes, i.e.
// x_pwrite + x_fsync) through the fast side while sweeping both the write
// size (1..64 KiB) and the CMB staging-queue size (4..64 KiB), SRAM
// backing.
//
// Paper shape: once the queue is at least as big as the write, latency is
// dominated by the write size; a 32 KiB queue achieves the best
// throughput across all group-commit sizes.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "host/node.h"
#include "sim/stats.h"

namespace xssd {
namespace {

struct CellResult {
  double mean_latency_us;
  double throughput_mb_s;
};

CellResult RunOne(uint64_t queue_bytes, uint32_t write_bytes,
                  sim::SimTime duration, bench::BenchReporter* reporter) {
  const std::string label = "q" + std::to_string(queue_bytes / 1024) +
                            "K.w" + std::to_string(write_bytes / 1024) + "K";
  sim::Simulator sim;
  reporter->AttachTrace(&sim, label);
  reporter->AttachTimeSeries(&sim, label);
  core::VillarsConfig config =
      bench::PaperVillarsConfig(core::BackingKind::kSram);
  config.cmb.queue_bytes = queue_bytes;
  // A ring large enough that destage pipelining never caps the intake —
  // the sweep isolates the staging-queue flow control.
  config.cmb.ring_bytes = 4ull << 20;

  host::StorageNode node(&sim, config, bench::PaperFabricConfig(), "bench");
  Status status = node.Init();
  if (!status.ok()) std::exit(1);
  node.EnableMetrics(&reporter->registry());
  if (obs::SpanRecorder* spans = reporter->AttachSpans(&sim, label)) {
    node.EnableSpans(spans, "dev");
  }

  std::vector<uint8_t> group(write_bytes, 0x5A);
  sim::LatencyRecorder latency;
  uint64_t bytes_done = 0;
  bool stop = false;

  std::function<void()> pump = [&]() {
    if (stop) return;
    sim::SimTime start = sim.Now();
    node.client().AppendDurable(
        group.data(), group.size(), [&, start](Status s) {
          if (!s.ok()) {
            stop = true;
            return;
          }
          latency.Add(sim::ToUs(sim.Now() - start));
          bytes_done += group.size();
          pump();
        });
  };
  pump();

  sim.RunFor(sim::Ms(2));
  latency.Clear();
  uint64_t start_bytes = bytes_done;
  sim::SimTime start = sim.Now();
  sim.RunFor(duration);
  double secs = sim::ToSec(sim.Now() - start);
  stop = true;
  CellResult result{latency.Mean(),
                    static_cast<double>(bytes_done - start_bytes) / secs / 1e6};
  reporter->SetResult(label, "mean_latency_us", result.mean_latency_us);
  reporter->SetResult(label, "throughput_mb_s", result.throughput_mb_s);
  return result;
}

}  // namespace
}  // namespace xssd

int main(int argc, char** argv) {
  using namespace xssd;
  bench::BenchReporter reporter(argc, argv, "fig11");
  const uint32_t write_kb[] = {1, 2, 4, 8, 16, 32, 64};
  const uint64_t queue_kb[] = {4, 8, 16, 32, 64};

  bench::PrintHeader(
      "Figure 11: group-commit size x CMB queue size (SRAM backing)");

  CellResult grid[5][7];
  for (int qi = 0; qi < 5; ++qi) {
    for (int wi = 0; wi < 7; ++wi) {
      grid[qi][wi] = RunOne(queue_kb[qi] * 1024, write_kb[wi] * 1024,
                            sim::Ms(10), &reporter);
    }
  }

  std::printf("\n-- mean durable-append latency (us) --\n");
  std::printf("%-10s", "queue\\wr");
  for (uint32_t w : write_kb) std::printf("%9uK", w);
  std::printf("\n");
  for (int qi = 0; qi < 5; ++qi) {
    std::printf("%8luK ", queue_kb[qi]);
    for (int wi = 0; wi < 7; ++wi) {
      std::printf("%10.1f", grid[qi][wi].mean_latency_us);
    }
    std::printf("\n");
  }

  std::printf("\n-- throughput (MB/s) --\n");
  std::printf("%-10s", "queue\\wr");
  for (uint32_t w : write_kb) std::printf("%9uK", w);
  std::printf("\n");
  for (int qi = 0; qi < 5; ++qi) {
    std::printf("%8luK ", queue_kb[qi]);
    for (int wi = 0; wi < 7; ++wi) {
      std::printf("%10.1f", grid[qi][wi].throughput_mb_s);
    }
    std::printf("\n");
  }
  return reporter.Finish();
}
