#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/conformance.h"
#include "check/schedule.h"
#include "core/registers.h"
#include "db/database.h"
#include "db/log_backend.h"
#include "db/log_manager.h"
#include "db/tpcc.h"
#include "db/workload.h"
#include "host/node.h"
#include "obs/critical_path.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace perfbench {
namespace {

using namespace xssd;
namespace tr = trace;

constexpr size_t kMaxReportedFailures = 4;

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

uint64_t Fnv1a(const void* data, size_t len, uint64_t hash) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

uint64_t RegistryDigest(const obs::MetricsRegistry& registry) {
  std::string snapshot = obs::JsonExporter(&registry).ToString();
  return Fnv1a(snapshot.data(), snapshot.size(), kFnvBasis);
}

void Fail(IterationResult* result, std::string what) {
  ++result->failed;
  if (result->failures.size() < kMaxReportedFailures) {
    result->failures.push_back(std::move(what));
  }
}

/// Sum of the registry counters ending in `suffix` (across node prefixes).
double SumCounters(const obs::MetricsRegistry& registry,
                   const std::string& suffix) {
  double total = 0;
  for (const auto& [name, counter] : registry.counters()) {
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += static_cast<double>(counter->value());
    }
  }
  return total;
}

/// Paper prototype (§6): PCIe Gen2 x4, SRAM-backed CMB, 2048-LBA destage
/// ring.
core::VillarsConfig PaperDeviceConfig() {
  core::VillarsConfig config;
  config.cmb.backing = core::BackingKind::kSram;
  config.destage.ring_lba_count = 2048;
  return config;
}

pcie::FabricConfig PaperFabricConfig() {
  pcie::FabricConfig config;
  config.generation = 2;
  config.lanes = 4;
  return config;
}

/// Host-time phases of one iteration, stamped by the workload.
class Phases {
 public:
  Phases() : start_(tr::NowNs()), outside_before_(tr::totals()) {}

  void BeginDrive() {
    drive_start_ = tr::NowNs();
    if constexpr (tr::kTracing) {
      before_ = tr::totals();
      tr::Enter(tr::kDrive);
    }
  }
  void EndDrive() {
    if constexpr (tr::kTracing) {
      tr::Exit(tr::kDrive);
      after_ = tr::totals();
    }
    drive_end_ = tr::NowNs();
  }
  void Finish(IterationResult* result) {
    int64_t end = tr::NowNs();
    result->setup_s = Seconds(start_, drive_start_);
    result->driven_s = Seconds(drive_start_, drive_end_);
    result->teardown_s = Seconds(drive_end_, end);
    if constexpr (tr::kTracing) {
      result->spans = tr::Diff(after_, before_);
      tr::Totals all = tr::Diff(tr::totals(), outside_before_);
      result->outside = tr::Diff(all, result->spans);
    }
  }

 private:
  int64_t start_;
  int64_t drive_start_ = 0;
  int64_t drive_end_ = 0;
  tr::Totals outside_before_;
  tr::Totals before_;
  tr::Totals after_;
};

/// Per-stage totals of the critical-path breakdown, in virtual µs.
void AddVirtualWaits(const obs::SpanRecorder& spans, IterationResult* result) {
  struct StageMetric {
    obs::Stage stage;
    const char* name;
  };
  const StageMetric stages[] = {
      {obs::Stage::kCmbStage, "vt.cmb_stage_us"},
      {obs::Stage::kReplicationWait, "vt.replication_wait_us"},
      {obs::Stage::kNtbLink, "vt.ntb_link_us"},
      {obs::Stage::kDestagePage, "vt.destage_page_us"},
      {obs::Stage::kFlashProgram, "vt.flash_program_us"},
  };
  std::vector<obs::RequestBreakdown> breakdowns =
      obs::CriticalPathAnalyzer(&spans).Analyze();
  for (const StageMetric& s : stages) {
    sim::SimTime total = 0;
    for (const obs::RequestBreakdown& b : breakdowns) {
      for (const obs::PathSegment& seg : b.segments) {
        if (seg.stage == s.stage) total += seg.end - seg.begin;
      }
    }
    result->waits[s.name] = {sim::ToUs(total), "us"};
  }
}

/// Counts every workload reports: device counters from the metrics
/// registry, summed over nodes, and the wire bytes of each node's PCIe
/// link servers.
void AddDeviceCounts(const obs::MetricsRegistry& registry,
                     const std::vector<host::StorageNode*>& nodes,
                     IterationResult* result) {
  struct CountMetric {
    const char* suffix;
    const char* name;
  };
  const CountMetric counts[] = {
      {"flash.programs", "flash.programs"},
      {"flash.reads", "flash.reads"},
      {"flash.erases", "flash.erases"},
      {"destage.pages_written", "core.destage_pages"},
      {"ftl.gc.pages_moved", "ftl.gc_copies"},
      {"ntb.wire_bytes", "ntb.forwarded_wire_bytes"},
  };
  for (const CountMetric& c : counts) {
    result->sim[c.name] = {SumCounters(registry, c.suffix),
                           std::string(c.name).ends_with("bytes") ? "bytes"
                                                                  : "count"};
  }
  uint64_t wire = 0;
  uint64_t host_writes = 0;
  uint64_t flash_programs = 0;
  for (host::StorageNode* node : nodes) {
    pcie::PcieFabric& fabric = node->fabric();
    wire += fabric.downstream().total_bytes() +
            fabric.upstream().total_bytes() + fabric.peer().total_bytes();
    const ftl::FtlStats& stats = node->device().ftl().stats();
    host_writes += stats.host_writes;
    flash_programs += stats.flash_programs;
  }
  result->sim["pcie.wire_bytes"] = {static_cast<double>(wire), "bytes"};
  result->sim["ftl.write_amp"] = {
      host_writes ? static_cast<double>(flash_programs) / host_writes : 0,
      "ratio"};
}

// ---------------------------------------------------------------------------
// tpcc-replicated

/// Forwards to the real backend and keeps a copy of every byte it was asked
/// to make durable: the reference the replica is compared against.
class RecordingBackend : public db::LogBackend {
 public:
  /// `corrupt` records the first append with one byte flipped, so the
  /// replica check must report a mismatch.
  RecordingBackend(db::LogBackend* inner, bool corrupt)
      : inner_(inner), corrupt_(corrupt) {}

  void AppendDurable(const uint8_t* data, size_t len,
                     std::function<void(Status)> done) override {
    tr::Scope span(tr::kHostAppendDurable);
    appended_.insert(appended_.end(), data, data + len);
    if (corrupt_ && len > 0) {
      appended_[appended_.size() - len / 2 - 1] ^= 0x5A;
      corrupt_ = false;
    }
    Account(len);
    inner_->AppendDurable(data, len, std::move(done));
  }
  std::string name() const override { return inner_->name(); }
  int data_movements_per_byte() const override {
    return inner_->data_movements_per_byte();
  }

  std::vector<uint8_t>& appended() { return appended_; }

 private:
  db::LogBackend* inner_;
  bool corrupt_;
  std::vector<uint8_t> appended_;
};

/// Compares the secondary's CMB ring, through its functional (untimed)
/// read port, against the primary's appended stream each time the
/// secondary reports more bytes persisted.
class ReplicaVerifier {
 public:
  ReplicaVerifier(host::StorageNode* secondary, uint64_t ring_bytes,
                  const std::vector<uint8_t>* appended)
      : secondary_(secondary), ring_bytes_(ring_bytes), appended_(appended) {}

  void Advance(uint64_t persisted) {
    if (persisted <= verified_) return;
    if (persisted > appended_->size()) {
      Mismatch("secondary persisted " + std::to_string(persisted) +
               " bytes, primary appended " +
               std::to_string(appended_->size()));
      return;
    }
    buffer_.resize(persisted - verified_);
    uint64_t pos = verified_;
    size_t done = 0;
    while (pos < persisted) {
      uint64_t slot = pos % ring_bytes_;
      uint64_t n = std::min(persisted - pos, ring_bytes_ - slot);
      Status status = secondary_->fabric().FunctionalRead(
          host::NodeLayout::kCmbBase + core::kRingWindowOffset + slot,
          buffer_.data() + done, n);
      if (!status.ok()) {
        Mismatch("ring read failed: " + status.ToString());
        return;
      }
      pos += n;
      done += n;
    }
    if (std::memcmp(buffer_.data(), appended_->data() + verified_,
                    buffer_.size()) != 0) {
      Mismatch("replica ring differs from the primary's log in [" +
               std::to_string(verified_) + ", " + std::to_string(persisted) +
               ")");
    }
    verified_ = persisted;
  }

  uint64_t verified() const { return verified_; }
  uint64_t mismatches() const { return mismatches_; }
  const std::string& first_mismatch() const { return first_mismatch_; }

 private:
  void Mismatch(std::string what) {
    if (mismatches_++ == 0) first_mismatch_ = std::move(what);
  }

  host::StorageNode* secondary_;
  uint64_t ring_bytes_;
  const std::vector<uint8_t>* appended_;
  std::vector<uint8_t> buffer_;
  uint64_t verified_ = 0;
  uint64_t mismatches_ = 0;
  std::string first_mismatch_;
};

}  // namespace

IterationResult RunTpccReplicated(const RunConfig& config) {
  IterationResult result;
  Phases phases;

  // Set-up: two nodes in their own scheduler domains (as fig13), eager
  // replication over NTB, TPC-C populated on the primary's log.
  auto sim = std::make_unique<sim::Simulator>();
  sim->ConfigureDomains(2);
  obs::MetricsRegistry registry;
  core::VillarsConfig device = PaperDeviceConfig();
  pcie::FabricConfig secondary_fabric = PaperFabricConfig();
  secondary_fabric.domain = 1;
  auto primary = std::make_unique<host::StorageNode>(
      sim.get(), device, PaperFabricConfig(), "pri");
  auto secondary = std::make_unique<host::StorageNode>(
      sim.get(), device, secondary_fabric, "sec");
  if (!primary->Init().ok() || !secondary->Init().ok()) {
    Fail(&result, "node init failed");
    return result;
  }
  primary->EnableMetrics(&registry, "pri.");
  secondary->EnableMetrics(&registry, "sec.");
  host::ReplicationGroup group({primary.get(), secondary.get()});
  Status status =
      group.Setup(core::ReplicationProtocol::kEager, sim::Us(1));
  if (!status.ok()) {
    Fail(&result, "replication setup failed: " + status.ToString());
    return result;
  }

  db::VillarsLogBackend villars(&primary->client());
  auto backend = std::make_unique<RecordingBackend>(
      &villars, config.break_check == Break::kReplicaLog);
  auto log = std::make_unique<db::LogManager>(sim.get(), backend.get());
  auto database = std::make_unique<db::Database>(log.get());
  db::TpccConfig tpcc;  // 16 warehouses
  auto workload =
      std::make_unique<db::TpccWorkload>(database.get(), tpcc, config.seed);
  {
    tr::Scope span(tr::kDbPopulate);
    workload->Populate();
  }
  constexpr uint32_t kWorkers = 8;
  auto driver = std::make_unique<db::WorkloadDriver>(
      sim.get(), database.get(), workload.get(), kWorkers,
      config.seed * 0x9E3779B97F4A7C15ull + 1);

  ReplicaVerifier verifier(secondary.get(), device.cmb.ring_bytes,
                           &backend->appended());
  primary->device().transport().SetShadowHook(
      [&verifier](uint32_t, uint64_t persisted) {
        verifier.Advance(persisted);
      });

  std::unique_ptr<obs::SpanRecorder> spans;
  if (config.record_waits) {
    spans = std::make_unique<obs::SpanRecorder>(sim.get());
    primary->EnableSpans(spans.get(), "pri");
    secondary->EnableSpans(spans.get(), "sec");
  }

  // Driven phase: closed loop of 8 workers with pipelined group commit.
  // WorkloadDriver::Run adds a fixed 50 ms drain after the window.
  sim::SimTime warmup = config.tiny ? sim::Ms(2) : sim::Ms(10);
  sim::SimTime measure = config.tiny ? sim::Ms(5) : sim::Ms(60);
  phases.BeginDrive();
  db::WorkloadResult run = driver->Run(warmup, measure);
  phases.EndDrive();

  // Checks: every byte covered by the credit counter is on the secondary,
  // byte for byte, and everything appended became durable.
  uint64_t appended = backend->appended().size();
  uint64_t credit = primary->client().credit_cache();
  if (verifier.mismatches() > 0) {
    Fail(&result, "replica: " + verifier.first_mismatch());
  }
  if (verifier.verified() < credit) {
    Fail(&result, "replica: credit counter covers " + std::to_string(credit) +
                      " bytes, secondary verified only " +
                      std::to_string(verifier.verified()));
  }
  if (credit != appended || log->durable_lsn() != log->next_lsn()) {
    Fail(&result, "log: " + std::to_string(appended) + " bytes appended, " +
                      std::to_string(credit) + " durable after the drain");
  }

  result.attempted = run.committed_txns + result.failed;
  result.completed = run.committed_txns;
  if (run.committed_txns == 0) Fail(&result, "no transaction committed");
  size_t samples = run.latency_us.count();
  result.sim["sim_txn_per_s"] = {run.txns_per_sec, "txn/s"};
  result.sim["commit_p50_us"] = {run.latency_us.Percentile(50), "us"};
  result.sim["commit_p999_us"] = {run.latency_us.Percentile(99.9), "us"};
  result.sim["commit_samples"] = {static_cast<double>(samples), "count"};
  result.sim["db.log_bytes"] = {static_cast<double>(appended), "bytes"};
  result.sim["sim.executed_events"] = {
      static_cast<double>(sim->executed_events()), "count"};
  AddDeviceCounts(registry, {primary.get(), secondary.get()}, &result);
  if (spans) AddVirtualWaits(*spans, &result);
  result.digest = RegistryDigest(registry);
  result.digest = Fnv1a(backend->appended().data(), appended, result.digest);

  // Teardown, in reverse order of construction.
  primary->device().transport().SetShadowHook({});
  driver.reset();
  workload.reset();
  database.reset();
  log.reset();
  backend.reset();
  spans.reset();
  secondary.reset();
  primary.reset();
  sim.reset();
  phases.Finish(&result);
  return result;
}

// ---------------------------------------------------------------------------
// destage-mixed

namespace {

constexpr uint64_t kConvFirstLba = 8192;  // above the 8192-LBA destage ring
constexpr uint64_t kConvLbas = 16384;     // 64 MiB of 4 KiB blocks
constexpr uint32_t kMaxOutstanding = 64;

/// Every conventional block carries its LBA and write version, then a fill
/// word derived from both, so a read can be checked byte for byte.
uint64_t FillWord(uint64_t lba, uint64_t version) {
  uint64_t x = (lba << 20) ^ version ^ 0xD1B54A32D192ED03ull;
  x ^= x >> 31;
  x *= 0x9E3779B97F4A7C15ull;
  x ^= x >> 29;
  return x;
}

void StampBlock(uint64_t lba, uint64_t version, std::vector<uint8_t>* block) {
  uint64_t words[2] = {lba, version};
  std::memcpy(block->data(), words, sizeof(words));
  uint64_t fill = FillWord(lba, version);
  for (size_t off = sizeof(words); off + 8 <= block->size(); off += 8) {
    std::memcpy(block->data() + off, &fill, 8);
  }
}

/// Empty when `block` is exactly a stamp of `lba` at a version in
/// [lo, hi]; otherwise what is wrong with it.
std::string CheckBlock(uint64_t lba, uint64_t lo, uint64_t hi,
                       const std::vector<uint8_t>& block) {
  if (block.size() < 16) return "short read";
  uint64_t words[2];
  std::memcpy(words, block.data(), sizeof(words));
  if (words[0] != lba) {
    return "lba " + std::to_string(lba) + " returned the block of lba " +
           std::to_string(words[0]);
  }
  if (words[1] < lo || words[1] > hi) {
    return "lba " + std::to_string(lba) + " returned version " +
           std::to_string(words[1]) + ", expected " + std::to_string(lo) +
           ".." + std::to_string(hi);
  }
  uint64_t fill = FillWord(lba, words[1]);
  for (size_t off = sizeof(words); off + 8 <= block.size(); off += 8) {
    if (std::memcmp(block.data() + off, &fill, 8) != 0) {
      return "lba " + std::to_string(lba) + " payload differs at byte " +
             std::to_string(off);
    }
  }
  return "";
}

}  // namespace

IterationResult RunDestageMixed(const RunConfig& config) {
  IterationResult result;
  Phases phases;

  // Set-up: fig12's device (Neutral policy, deep balanced pipelines, a
  // x8 link so the flash array is the contended resource), with the
  // conventional range pre-written so reads reach flash.
  auto sim = std::make_unique<sim::Simulator>();
  obs::MetricsRegistry registry;
  core::VillarsConfig device = PaperDeviceConfig();
  device.scheduling = ftl::SchedulingPolicy::kNeutral;
  device.cmb.ring_bytes = 4ull << 20;
  device.destage.ring_lba_count = 8192;
  device.destage.max_inflight = 128;
  device.ftl.max_writeback_inflight = 128;
  pcie::FabricConfig fabric = PaperFabricConfig();
  fabric.lanes = 8;
  auto node = std::make_unique<host::StorageNode>(sim.get(), device, fabric,
                                                  "dev");
  if (!node->Init().ok()) {
    Fail(&result, "node init failed");
    return result;
  }
  node->EnableMetrics(&registry);
  nvme::Driver& nvme = node->driver();
  const uint32_t block = nvme.block_bytes();
  const uint64_t lbas = config.tiny ? 1024 : kConvLbas;

  std::vector<uint64_t> issued(lbas, 0);     // newest version issued
  std::vector<uint64_t> completed(lbas, 0);  // newest version acknowledged
  std::vector<bool> writing(lbas, false);    // one write per LBA in flight
  std::vector<uint8_t> payload(block);
  uint32_t outstanding = 0;
  {
    uint64_t next = 0;
    uint64_t prefilled = 0;
    bool prefill_ok = true;
    std::function<void()> pump = [&]() {
      while (outstanding < kMaxOutstanding && next < lbas) {
        StampBlock(next, 0, &payload);
        ++outstanding;
        nvme.Write(kConvFirstLba + next, payload.data(), 1,
                   [&](Status s) {
                     --outstanding;
                     ++prefilled;
                     prefill_ok = prefill_ok && s.ok();
                     pump();
                   });
        ++next;
      }
    };
    pump();
    sim->RunWhile([&]() { return prefilled == lbas; });
    if (!prefill_ok || prefilled != lbas) {
      Fail(&result, "prefill failed");
      return result;
    }
  }

  std::unique_ptr<obs::SpanRecorder> spans;
  if (config.record_waits) {
    spans = std::make_unique<obs::SpanRecorder>(sim.get());
    node->EnableSpans(spans.get(), "dev");
  }

  // Driven phase. Conventional: open loop at 50% of flash program
  // bandwidth, 70% writes / 30% reads, uniform over the range; an arrival
  // finding 64 commands outstanding is refused. Fast side: 16 KiB appends
  // paced at 50% (an append is skipped while the previous one is posting,
  // as in fig12).
  double device_bw = node->device().flash_array().MaxProgramBandwidth();
  const sim::SimTime conv_interval = sim::TransferTime(block, device_bw * 0.5);
  std::vector<uint8_t> fast_payload(16 * 1024, 0xFA);
  const sim::SimTime fast_interval =
      sim::TransferTime(fast_payload.size(), device_bw * 0.5);
  const sim::SimTime warmup = config.tiny ? sim::Ms(2) : sim::Ms(10);
  const sim::SimTime measure = config.tiny ? sim::Ms(5) : sim::Ms(170);

  sim::Rng rng(config.seed);
  sim::LatencyRecorder io_latency_us;
  bool arrivals_on = true;
  uint64_t conv_attempted = 0, conv_refused = 0, conv_done = 0;
  uint64_t appends_issued = 0, appends_done = 0;
  uint64_t read_checks = 0;
  bool broke_expectation = false;
  sim::SimTime start = sim->Now() + warmup;
  sim::SimTime stop = start + measure;

  // Latency covers the I/Os due inside the measured window; the drain
  // below completes every one of them.
  auto record = [&](sim::SimTime due) {
    ++conv_done;
    if (due >= start && due < stop) {
      io_latency_us.Add(sim::ToUs(sim->Now() - due));
    }
  };
  std::function<void()> conv_arrival = [&]() {
    if (!arrivals_on) return;
    const sim::SimTime due = sim->Now();
    ++conv_attempted;
    if (outstanding >= kMaxOutstanding) {
      ++conv_refused;
    } else if (rng.NextDouble() < 0.7) {
      uint64_t lba = rng.Uniform(lbas);
      while (writing[lba]) lba = (lba + 1) % lbas;
      writing[lba] = true;
      uint64_t version = ++issued[lba];
      StampBlock(lba, version, &payload);
      ++outstanding;
      nvme.Write(kConvFirstLba + lba, payload.data(), 1,
                 [&, lba, version, due](Status s) {
                   --outstanding;
                   writing[lba] = false;
                   completed[lba] = std::max(completed[lba], version);
                   if (!s.ok()) Fail(&result, "write failed: " + s.ToString());
                   record(due);
                 });
    } else {
      uint64_t lba = rng.Uniform(lbas);
      uint64_t lo = completed[lba];
      uint64_t hi = issued[lba];
      if (config.break_check == Break::kReadVersion && !broke_expectation) {
        broke_expectation = true;  // expect a write that never happened
        lo = hi = issued[lba] + 1;
      }
      ++outstanding;
      nvme.Read(kConvFirstLba + lba, 1,
                [&, lba, lo, hi, due](Status s, std::vector<uint8_t> data) {
                  --outstanding;
                  ++read_checks;
                  std::string wrong =
                      s.ok() ? CheckBlock(lba, lo, hi, data)
                             : "read failed: " + s.ToString();
                  if (!wrong.empty()) Fail(&result, "read: " + wrong);
                  record(due);
                });
    }
    sim->Schedule(conv_interval, conv_arrival);
  };
  bool fast_busy = false;
  std::function<void()> fast_arrival = [&]() {
    if (!arrivals_on) return;
    if (!fast_busy) {
      fast_busy = true;
      ++appends_issued;
      node->client().Append(fast_payload.data(), fast_payload.size(),
                            [&](Status s) {
                              fast_busy = false;
                              ++appends_done;
                              if (!s.ok()) {
                                Fail(&result, "append failed: " + s.ToString());
                              }
                            });
    }
    sim->Schedule(fast_interval, fast_arrival);
  };

  phases.BeginDrive();
  conv_arrival();
  fast_arrival();
  sim->RunUntil(start);
  auto& scheduler = node->device().ftl().scheduler();
  uint64_t conv_bytes0 = scheduler.completed_bytes(ftl::IoClass::kConventional);
  uint64_t fast_bytes0 = scheduler.completed_bytes(ftl::IoClass::kDestage);
  sim->RunUntil(stop);
  double secs = sim::ToSec(measure);
  double conv_mb_s =
      (scheduler.completed_bytes(ftl::IoClass::kConventional) - conv_bytes0) /
      secs / 1e6;
  double fast_mb_s =
      (scheduler.completed_bytes(ftl::IoClass::kDestage) - fast_bytes0) /
      secs / 1e6;
  arrivals_on = false;
  sim->RunWhile([&]() { return outstanding == 0 && !fast_busy; });
  phases.EndDrive();

  if (outstanding != 0 || fast_busy) Fail(&result, "I/O left outstanding");
  result.failed += conv_refused;
  result.attempted = conv_attempted + appends_issued;
  result.completed = conv_done + appends_done;
  if (conv_done == 0) Fail(&result, "no conventional I/O completed");

  result.sim["conv_mb_s"] = {conv_mb_s, "MB/s"};
  result.sim["fast_mb_s"] = {fast_mb_s, "MB/s"};
  result.sim["io_p50_us"] = {io_latency_us.Percentile(50), "us"};
  result.sim["io_p999_us"] = {io_latency_us.Percentile(99.9), "us"};
  result.sim["io_samples"] = {static_cast<double>(io_latency_us.count()),
                              "count"};
  result.sim["io_refused"] = {static_cast<double>(conv_refused), "count"};
  result.sim["read_checks"] = {static_cast<double>(read_checks), "count"};
  result.sim["sim.executed_events"] = {
      static_cast<double>(sim->executed_events()), "count"};
  AddDeviceCounts(registry, {node.get()}, &result);
  if (spans) AddVirtualWaits(*spans, &result);
  result.digest = RegistryDigest(registry);

  spans.reset();
  node.reset();
  sim.reset();
  phases.Finish(&result);
  return result;
}

// ---------------------------------------------------------------------------
// conformance

IterationResult RunConformance(const RunConfig& config) {
  IterationResult result;
  // Equal numbers of standalone, one- and two-secondary schedules: host
  // time grows with the number of devices a schedule assembles, so a fixed
  // topology mix keeps the seed from deciding how much work a run does.
  constexpr uint32_t kTopologies = 3;  // 0, 1 or 2 secondaries
  const size_t per_topology = config.tiny ? 1 : 2;
  constexpr size_t kOpsPerSchedule = 40;
  check::CheckOptions options;
  options.plant_early_credit_bug = config.break_check == Break::kConformance;

  // Set-up: the device assembly every schedule starts from, measured as a
  // standalone schedule with no operations (build, wire, check, tear down).
  Phases phases;
  check::Schedule empty;
  empty.seed = config.seed;
  check::CheckResult probe = check::RunSchedule(empty, options);
  if (!probe.ok) Fail(&result, "empty schedule: " + probe.first_divergence);

  phases.BeginDrive();
  uint64_t digest = kFnvBasis;
  uint64_t divergences = 0, crashes = 0, failovers = 0, appended = 0;
  size_t taken[kTopologies] = {};
  size_t schedules = 0;
  for (uint64_t candidate = 0; schedules < kTopologies * per_topology;
       ++candidate) {
    uint64_t seed = config.seed * 1000003ull + candidate;
    check::Schedule schedule;
    {
      tr::Scope span(tr::kCheckGenerate);
      schedule = check::GenerateSchedule(seed, kOpsPerSchedule);
    }
    if (schedule.secondaries >= kTopologies ||
        taken[schedule.secondaries] == per_topology) {
      continue;
    }
    ++taken[schedule.secondaries];
    ++schedules;
    check::CheckResult run;
    {
      tr::Scope span(tr::kCheckRun);
      run = check::RunSchedule(schedule, options);
    }
    ++result.attempted;
    if (run.ok && run.divergences.empty()) {
      ++result.completed;
    } else {
      ++divergences;
      Fail(&result, "seed " + std::to_string(seed) + ": " +
                        run.first_divergence);
    }
    crashes += run.crashed;
    failovers += run.failed_over;
    appended += run.appended;
    uint64_t fields[] = {seed, run.ok, run.divergences.size(),
                         run.ops_executed, run.ops_skipped, run.crashed,
                         run.recovered, run.failed_over, run.promotions,
                         run.appended, run.recovered_bytes};
    digest = Fnv1a(fields, sizeof(fields), digest);
  }
  phases.EndDrive();

  result.sim["check.schedules"] = {static_cast<double>(schedules), "count"};
  result.sim["check.divergences"] = {static_cast<double>(divergences),
                                     "count"};
  result.sim["check.crashes"] = {static_cast<double>(crashes), "count"};
  result.sim["check.failovers"] = {static_cast<double>(failovers), "count"};
  result.sim["check.appended_bytes"] = {static_cast<double>(appended),
                                        "bytes"};
  result.digest = digest;
  phases.Finish(&result);
  return result;
}

}  // namespace perfbench
