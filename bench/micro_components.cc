// Component microbenchmarks (google-benchmark): hot paths of the library
// itself — these measure the *simulator's* execution cost, complementing
// the virtual-time figure benches.

#include <benchmark/benchmark.h>

#include "common/crc32.h"
#include "common/crc32_internal.h"
#include "core/page_format.h"
#include "db/log_record.h"
#include "ftl/mapping.h"
#include "pcie/tlp.h"
#include "sim/interval_set.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace xssd {
namespace {

void BM_SimulatorScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule(static_cast<sim::SimTime>(i), []() {});
    }
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorScheduleRun);

// Sizes: OOB record (24 B), log-record header (29 B), small, 4 KiB block,
// 16 KiB destage page.
void CrcSizes(benchmark::internal::Benchmark* b) {
  for (int64_t size : {24, 29, 64, 4096, 16384}) b->Arg(size);
}

// The dispatched entry point (the SSE4.2 kernel where the CPU has it).
void BM_Crc32c(benchmark::State& state) {
  std::vector<uint8_t> data(state.range(0), 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Apply(CrcSizes);

// The slicing-by-8 fallback, run directly so its speed is visible on CPUs
// that would never pick it.
void BM_Crc32cPortable(benchmark::State& state) {
  std::vector<uint8_t> data(state.range(0), 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crc32_internal::Crc32cPortable(data.data(), data.size(), 0));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32cPortable)->Apply(CrcSizes);

void BM_TlpEncodeDecode(benchmark::State& state) {
  pcie::Tlp tlp;
  tlp.type = pcie::TlpType::kMemWrite;
  tlp.address = 0xE0001000;
  tlp.payload.assign(64, 0xAB);
  for (auto _ : state) {
    auto wire = pcie::EncodeTlp(tlp);
    auto decoded = pcie::DecodeTlp(wire);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_TlpEncodeDecode);

void BM_IntervalSetInsertContiguous(benchmark::State& state) {
  for (auto _ : state) {
    sim::IntervalSet set;
    uint64_t offset = 0;
    for (int i = 0; i < 1000; ++i) {
      set.Insert(offset, offset + 64);
      offset += 64;
    }
    benchmark::DoNotOptimize(set.ContiguousEnd(0));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_IntervalSetInsertContiguous);

void BM_IntervalSetInsertShuffled(benchmark::State& state) {
  sim::Rng rng(7);
  std::vector<uint64_t> order(1000);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i * 64;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  for (auto _ : state) {
    sim::IntervalSet set;
    for (uint64_t offset : order) set.Insert(offset, offset + 64);
    benchmark::DoNotOptimize(set.ContiguousEnd(0));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_IntervalSetInsertShuffled);

void BM_PageMapUpdate(benchmark::State& state) {
  flash::Geometry geometry;
  geometry.channels = 4;
  geometry.dies_per_channel = 2;
  ftl::PageMap map(geometry, geometry.pages() / 2);
  sim::Rng rng(3);
  uint64_t seq = 0;
  for (auto _ : state) {
    uint64_t lpn = rng.Uniform(map.lpn_count());
    uint64_t ppn = rng.Uniform(geometry.pages());
    map.Map(lpn, ppn, ++seq);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageMapUpdate);

void BM_DestagePageBuildParse(benchmark::State& state) {
  std::vector<uint8_t> data(8192, 0x3C);
  for (auto _ : state) {
    core::DestagePageHeader header;
    header.sequence = 1;
    header.stream_offset = 0;
    header.data_len = static_cast<uint32_t>(data.size());
    auto page = core::BuildDestagePage(header, data.data(), data.size(),
                                       16 * 1024);
    auto parsed = core::ParseDestagePage(page);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(state.iterations() * 16 * 1024);
}
BENCHMARK(BM_DestagePageBuildParse);

void BM_LogRecordRoundTrip(benchmark::State& state) {
  db::LogRecord record;
  record.txn_id = 42;
  record.table_id = 3;
  record.op = db::LogOp::kInsert;
  record.key = 123456;
  record.payload.assign(256, 0x77);
  for (auto _ : state) {
    std::vector<uint8_t> wire;
    db::SerializeLogRecord(record, &wire);
    size_t offset = 0;
    auto parsed = db::ParseLogRecord(wire, &offset);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_LogRecordRoundTrip);

}  // namespace
}  // namespace xssd

BENCHMARK_MAIN();
