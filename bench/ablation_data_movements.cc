// Ablation A — Destaging Efficiency (paper §5.1).
//
// Host-managed PM logging moves every logged byte across the host memory
// system four times (app -> PM, PM -> read, -> device buffer, -> flash);
// the X-SSD path does it in two (app -> CMB backing, backing -> flash),
// entirely inside the device. This bench logs the same TPC-C stream both
// ways and reports the host-side memory-bus bytes each consumes, plus the
// throughput impact when host memory bandwidth is scarce.

#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "db/log_backend.h"
#include "db/log_manager.h"
#include "db/tpcc.h"
#include "db/workload.h"
#include "host/node.h"

namespace xssd {
namespace {

/// NVDIMM backend that also performs host-driven destaging to the SSD:
/// after `destage_unit` bytes accumulate in PM, the host reads them back
/// from PM (movement 2) and writes them to the conventional side
/// (movements 3 and 4 happen in the device; movement 2's PM read and the
/// DMA source traffic are host-bus costs).
class HostDestagingNvdimmBackend : public db::NvdimmBackend {
 public:
  HostDestagingNvdimmBackend(sim::Simulator* sim, nvme::Driver* driver,
                             uint64_t start_lba, uint64_t lba_count)
      : db::NvdimmBackend(sim),
        sim_(sim),
        driver_(driver),
        start_lba_(start_lba),
        lba_count_(lba_count) {}

  void AppendDurable(const uint8_t* data, size_t len,
                     std::function<void(Status)> done) override {
    db::NvdimmBackend::AppendDurable(data, len, std::move(done));
    pending_destage_ += len;
    host_bus_bytes_ += len;  // movement 1: app store stream into PM
    MaybeDestage();
  }

  uint64_t host_bus_bytes() const { return host_bus_bytes_; }

 private:
  void MaybeDestage() {
    const uint64_t unit = 64 * 1024;
    while (pending_destage_ >= unit && !destaging_) {
      pending_destage_ -= unit;
      destaging_ = true;
      // Movement 2: read back from PM...
      pm_port().Acquire(unit);
      host_bus_bytes_ += unit;
      // ...and movement 3: the DMA engine pulls the buffer from host
      // memory (also host-bus traffic).
      host_bus_bytes_ += unit;
      std::vector<uint8_t> buffer(unit, 0xDD);
      uint32_t blocks =
          static_cast<uint32_t>(unit / driver_->block_bytes());
      uint64_t lba = start_lba_ + cursor_;
      cursor_ = (cursor_ + blocks) % (lba_count_ - blocks);
      driver_->Write(lba, buffer.data(), blocks, [this](Status) {
        destaging_ = false;
        MaybeDestage();
      });
    }
  }

  sim::Simulator* sim_;
  nvme::Driver* driver_;
  uint64_t start_lba_;
  uint64_t lba_count_;
  uint64_t cursor_ = 0;
  uint64_t pending_destage_ = 0;
  bool destaging_ = false;
  uint64_t host_bus_bytes_ = 0;
};

}  // namespace
}  // namespace xssd

int main(int argc, char** argv) {
  using namespace xssd;
  bench::BenchReporter reporter(argc, argv, "ablation_data_movements");
  bench::PrintHeader("Ablation A: host data movements per logged byte");
  std::printf("%-22s %10s %14s %16s %14s\n", "method", "txn/s",
              "log_MB", "host_bus_MB", "movements/byte");

  for (int method = 0; method < 2; ++method) {
    const char* label = method == 0 ? "host-managed-pm" : "villars-fast";
    sim::Simulator sim;
    reporter.AttachTrace(&sim, label);
    reporter.AttachTimeSeries(&sim, label);
    host::StorageNode node(&sim,
                           bench::PaperVillarsConfig(core::BackingKind::kSram),
                           bench::PaperFabricConfig(), "bench");
    if (!node.Init().ok()) return 1;
    node.EnableMetrics(&reporter.registry());
    if (obs::SpanRecorder* spans = reporter.AttachSpans(&sim, label)) {
      node.EnableSpans(spans, "dev");
    }

    std::unique_ptr<db::LogBackend> backend;
    HostDestagingNvdimmBackend* nvdimm = nullptr;
    if (method == 0) {
      auto owned = std::make_unique<HostDestagingNvdimmBackend>(
          &sim, &node.driver(), 4096, 8192);
      nvdimm = owned.get();
      backend = std::move(owned);
    } else {
      backend = std::make_unique<db::VillarsLogBackend>(&node.client());
    }

    db::LogManager log(&sim, backend.get());
    db::Database database(&log);
    db::TpccWorkload workload(&database, db::TpccConfig{}, 77);
    workload.Populate();
    db::WorkloadDriver driver(&sim, &database, &workload, 8);
    db::WorkloadResult result = driver.Run(sim::Ms(50), sim::Ms(200));

    double log_mb = result.log_bytes / 1e6;
    double bus_mb =
        nvdimm ? nvdimm->host_bus_bytes() / 1e6 : result.log_bytes / 1e6;
    // Villars: one host-bus crossing (the MMIO store stream source reads).
    double movements = log_mb > 0 ? bus_mb / log_mb : 0;
    std::printf("%-22s %10.0f %14.1f %16.1f %14.1f\n", label,
                result.txns_per_sec, log_mb, bus_mb, movements);
    reporter.SetResult(label, "txns_per_sec", result.txns_per_sec);
    reporter.SetResult(label, "log_mb", log_mb);
    reporter.SetResult(label, "host_bus_mb", bus_mb);
    reporter.SetResult(label, "movements_per_byte", movements);
  }
  std::printf(
      "\n(host-managed PM destaging crosses the host bus ~3x per byte on\n"
      " top of the device's internal flash write; the X-SSD path crosses\n"
      " it once — the device moves data internally: 4 vs 2 total\n"
      " movements, paper section 5.1)\n");
  return reporter.Finish();
}
