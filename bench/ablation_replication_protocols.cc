// Ablation B — Replication protocol semantics (paper §4.2).
//
// A primary with two secondaries, one of them slow (its shadow-counter
// update period is 20x longer). The protocol decides what the credit
// counter the database reads means:
//   eager : min over all secondaries — commit waits for the slowest
//   lazy  : local counter — commit is independent of the secondaries
//   chain : the tail secondary's counter
//
// The bench reports durable-append latency under each protocol. Shape:
// lazy ≈ local PM latency; eager tracks the slow secondary; chain tracks
// whichever secondary is the tail.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "host/node.h"
#include "sim/stats.h"

namespace xssd {
namespace {

void RunOne(core::ReplicationProtocol protocol, const char* name,
            bench::BenchReporter* reporter, bool slow_is_tail = true) {
  sim::Simulator sim;
  reporter->AttachTrace(&sim, name);
  reporter->AttachTimeSeries(&sim, name);
  core::VillarsConfig config =
      bench::PaperVillarsConfig(core::BackingKind::kSram);
  host::StorageNode primary(&sim, config, bench::PaperFabricConfig(), "pri");
  host::StorageNode fast_sec(&sim, config, bench::PaperFabricConfig(), "s1");
  host::StorageNode slow_sec(&sim, config, bench::PaperFabricConfig(), "s2");
  if (!primary.Init().ok() || !fast_sec.Init().ok() || !slow_sec.Init().ok())
    std::exit(1);
  // Node prefixes keep the three devices' metric namespaces apart.
  primary.EnableMetrics(&reporter->registry(), "pri.");
  fast_sec.EnableMetrics(&reporter->registry(), "s1.");
  slow_sec.EnableMetrics(&reporter->registry(), "s2.");
  if (obs::SpanRecorder* spans = reporter->AttachSpans(&sim, name)) {
    primary.EnableSpans(spans, "pri");
    fast_sec.EnableSpans(spans, "s1");
    slow_sec.EnableSpans(spans, "s2");
  }

  host::ReplicationGroup group(
      slow_is_tail
          ? std::vector<host::StorageNode*>{&primary, &fast_sec, &slow_sec}
          : std::vector<host::StorageNode*>{&primary, &slow_sec, &fast_sec});
  Status status = group.Setup(protocol, sim::UsF(0.8));
  if (!status.ok()) std::exit(1);

  // Slow down the second secondary's updates.
  slow_sec.device().transport().set_update_period(sim::Us(16));

  sim::LatencyRecorder latency_us;
  std::vector<uint8_t> entry(256, 0x11);
  bool stop = false;
  std::function<void()> writer = [&]() {
    if (stop) return;
    sim::SimTime start = sim.Now();
    primary.client().AppendDurable(entry.data(), entry.size(),
                                   [&, start](Status) {
                                     latency_us.Add(
                                         sim::ToUs(sim.Now() - start));
                                     writer();
                                   });
  };
  writer();

  sim.RunFor(sim::Ms(2));
  latency_us.Clear();
  sim.RunFor(sim::Ms(20));
  stop = true;

  auto candle = latency_us.Candlestick();
  std::printf("%-8s %10.2f %10.2f %10.2f %10.2f %10.2f %10lu\n", name,
              candle.min, candle.p25, candle.p50, candle.p75, candle.max,
              static_cast<unsigned long>(latency_us.count()));
  reporter->SetResult(name, "p50_us", candle.p50);
  reporter->SetResult(name, "max_us", candle.max);
  reporter->SetResult(name, "ops", static_cast<double>(latency_us.count()));
}

}  // namespace
}  // namespace xssd

int main(int argc, char** argv) {
  using namespace xssd;
  bench::BenchReporter reporter(argc, argv, "ablation_replication_protocols");
  bench::PrintHeader(
      "Ablation B: replication protocols (2 secondaries, one slow)");
  std::printf("%-8s %10s %10s %10s %10s %10s %10s\n", "proto", "min_us",
              "p25_us", "p50_us", "p75_us", "max_us", "ops");
  RunOne(core::ReplicationProtocol::kLazy, "lazy", &reporter);
  RunOne(core::ReplicationProtocol::kEager, "eager", &reporter);
  // Chain semantics: only the tail's counter gates commit. With the slow
  // node at the tail, chain == eager; with the fast node at the tail, the
  // slow node no longer gates latency.
  RunOne(core::ReplicationProtocol::kChain, "chain-s", &reporter,
         /*slow_is_tail=*/true);
  RunOne(core::ReplicationProtocol::kChain, "chain-f", &reporter,
         /*slow_is_tail=*/false);
  return reporter.Finish();
}
