#ifndef XSSD_CORE_VILLARS_DEVICE_H_
#define XSSD_CORE_VILLARS_DEVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cmb_module.h"
#include "core/config.h"
#include "core/destage_module.h"
#include "core/registers.h"
#include "core/transport_module.h"
#include "flash/array.h"
#include "ftl/ftl.h"
#include "ftl/scrub.h"
#include "nvme/controller.h"
#include "pcie/fabric.h"

namespace xssd::core {

/// \brief The Villars device: the reference X-SSD design (paper §4).
///
/// One object assembles the whole of Figure 4:
///  - the *conventional side*: flash array + FTL + NVMe controller (BAR0);
///  - the *fast side*: CMB module (PM ring behind a byte-addressable BAR),
///    Destage module, and optional Transport module.
///
/// The device registers two MMIO regions on its host's PCIe fabric: BAR0
/// (NVMe registers/doorbells) and the CMB BAR (control page + ring window).
/// Vendor-specific NVMe admin commands switch roles, add peers, and tune
/// destage/replication policy — "changing the networking mode ... is done
/// via software" (§4.2).
///
/// Partitions (§7.2, SR-IOV-style multi-tenancy): the fast side is
/// replicated once per partition — partition 0 from config.cmb/destage/
/// transport, partitions 1..N-1 from config.extra_partitions — while the
/// flash array, FTL, scrubber and NVMe controller stay shared. The CMB BAR
/// lays the partitions out back to back, each as [control page | ring
/// window | peer_intake_slots term-fenced aliases], so an unmodified
/// XLogClient pointed at partition_base(i) works as-is. Vendor admin
/// commands select their partition by cdw13; an index >= N completes with
/// kInvalidField. Each partition keeps its own destage epoch; power events
/// act on all partitions, and the supercap budget is shared between them.
class VillarsDevice : public pcie::MmioDevice {
 public:
  VillarsDevice(sim::Simulator* sim, pcie::PcieFabric* fabric,
                const VillarsConfig& config, std::string name);
  ~VillarsDevice();

  VillarsDevice(const VillarsDevice&) = delete;
  VillarsDevice& operator=(const VillarsDevice&) = delete;

  /// Map BAR0 and the CMB BAR onto the fabric.
  Status Attach(uint64_t bar0_base, uint64_t cmb_base);

  uint64_t bar0_base() const { return bar0_base_; }
  uint64_t cmb_base() const { return cmb_base_; }
  /// Bus address of partition 0's ring window (cmb_base + control page).
  uint64_t ring_window_base() const { return cmb_base_ + kRingWindowOffset; }
  /// Bus address of partition `i`'s control page (an XLogClient's
  /// cmb_base for that tenant).
  uint64_t partition_base(size_t i) const {
    return cmb_base_ + partitions_[i].bar_offset;
  }
  size_t partition_count() const { return partitions_.size(); }
  /// Whole CMB BAR: per partition, control page + direct ring window + one
  /// ring-sized intake alias per configured peer slot
  /// (CmbConfig::peer_intake_slots; 0 = legacy layout).
  uint64_t cmb_bar_bytes() const { return cmb_bar_bytes_; }

  // pcie::MmioDevice — the CMB BAR (control page + ring window).
  void OnMmioWrite(uint64_t offset, const uint8_t* data, size_t len) override;
  void OnMmioRead(uint64_t offset, uint8_t* out, size_t len) override;

  // -- Power events ---------------------------------------------------------

  /// Sudden power interruption: drain every partition's staging queue,
  /// destage the PM rings (together bounded by the supercap budget), then
  /// halt. `done` fires once, when the emergency destage finishes.
  void PowerFail(std::function<void()> done);

  /// Hard crash (firmware wedge / supercap failure): the device halts with
  /// NO staging drain and NO emergency destage. Only bytes that already
  /// reached the PM ring (and pages already durable in flash) survive into
  /// recovery — the worst case the recovery chain walk must handle.
  void CrashHard();

  /// Bring the device back: every partition's fast side restarts empty in
  /// a new epoch; the conventional side (flash) retains everything
  /// destaged.
  void Reboot();

  /// HA resync: discard partition `i`'s stream bytes at or above `offset`
  /// (the rejoining secondary's unreplicated suffix). If pages beyond the
  /// cut were already issued to flash, the destage stream restarts in a
  /// fresh epoch so the recovery chain walk ignores them; otherwise the
  /// cursor simply stops short of the cut. Exposed over admin as
  /// kXssdTruncate.
  void TruncateLog(uint64_t offset, size_t i = 0);

  bool halted() const { return halted_; }
  uint32_t epoch(size_t i = 0) const { return partitions_[i].epoch; }

  // -- Component access -----------------------------------------------------

  CmbModule& cmb(size_t i = 0) { return *partitions_[i].cmb; }
  DestageModule& destage(size_t i = 0) { return *partitions_[i].destage; }
  TransportModule& transport(size_t i = 0) {
    return *partitions_[i].transport;
  }
  ftl::Ftl& ftl() { return *ftl_; }
  /// Patrol scrubber over this device's FTL (running only when
  /// config.scrub.enabled; halted with the device, re-armed on Reboot).
  ftl::PatrolScrubber& scrubber() { return *scrubber_; }
  flash::Array& flash_array() { return *array_; }
  nvme::Controller& controller() { return *controller_; }
  const VillarsConfig& config() const { return config_; }
  const std::string& name() const { return name_; }

  /// Credit the host sees (protocol-dependent on a primary).
  uint64_t EffectiveCredit(size_t i = 0) const {
    const Partition& p = partitions_[i];
    return p.transport->EffectiveCredit(p.cmb->local_credit());
  }

  /// Register metrics for every component under `prefix` (e.g. "cmb.*",
  /// "destage.*", "flash.*"); partition i >= 1 adds "part<i>." after the
  /// prefix. The registry pointer is retained so the destage modules
  /// recreated by Reboot() are re-instrumented.
  void EnableMetrics(obs::MetricsRegistry* registry,
                     const std::string& prefix = "");

  /// Attach span tracing to every component under node tag `node_tag`
  /// (partition i >= 1: `node_tag` + "/part<i>"; nullptr detaches). The
  /// recorder is retained so the destage modules recreated by
  /// Reboot()/TruncateLog() are re-instrumented.
  void EnableSpans(obs::SpanRecorder* spans, const std::string& node_tag);

  /// Attach a flight recorder to every component of this device (nullptr
  /// detaches). Components record their rare, load-bearing events (ring
  /// wraps, fenced writes, uncorrectable-read escalations, GC collects)
  /// tagged with this device's name; the device itself records power
  /// fails, hard crashes, reboots, and log truncations, and AutoDumps the
  /// ring at both crash flavours. Retained so the destage modules
  /// recreated by Reboot()/TruncateLog() stay instrumented.
  void EnableFlightRecorder(obs::FlightRecorder* recorder);

  /// Attach a fault injector to every component of this device (nullptr
  /// detaches). Crash sites are namespaced `name() + "/"` (partition
  /// i >= 1: `name() + "/part<i>/"`; a plan site "destage.emit_page"
  /// matches any device; "pri/destage.emit_page" only this one). With
  /// `install_crash_handler`, a firing crash clause drives this device:
  /// graceful → PowerFail (supercap flush + emergency destage), otherwise
  /// → CrashHard. The injector is retained so the destage modules
  /// recreated by Reboot() stay instrumented.
  void ArmFaults(fault::FaultInjector* injector,
                 bool install_crash_handler = true);

 private:
  /// One partition's fast side.
  struct Partition {
    PartitionConfig config;
    uint64_t bar_offset = 0;  ///< of the control page within the CMB BAR
    uint64_t bar_bytes = 0;   ///< control page + ring window + aliases
    uint32_t epoch = 0;       ///< of this partition's destage stream
    std::string tag;          ///< "" for partition 0, else "part<i>"
    std::unique_ptr<CmbModule> cmb;
    std::unique_ptr<DestageModule> destage;
    /// Modules replaced by RestartDestage, kept (inert) for the closures
    /// they still have pending.
    std::vector<std::unique_ptr<DestageModule>> retired_destages;
    std::unique_ptr<TransportModule> transport;

    /// `base` + "/" + tag (node tags, fault sites, flight-recorder tags).
    std::string Under(const std::string& base) const {
      return tag.empty() ? base : base + "/" + tag;
    }
    /// `prefix` + tag + "." (metric names).
    std::string MetricsPrefix(const std::string& prefix) const {
      return tag.empty() ? prefix : prefix + tag + ".";
    }
  };

  /// Partition holding CMB BAR offset `offset` (always one: the fabric
  /// routes only offsets inside the BAR).
  Partition& Find(uint64_t offset);

  /// Vendor-specific admin command dispatch.
  void HandleVendorAdmin(const nvme::Command& cmd,
                         std::function<void(nvme::Completion)> done);

  /// Read one of `p`'s control-page registers.
  uint64_t ReadRegister(const Partition& p, uint64_t offset) const;

  /// Connect `p`'s CMB, destage and transport modules to each other.
  void WireHooks(Partition& p);

  /// Replace `p`'s destage module with a fresh one in `p.epoch`, carrying
  /// over the attached instrumentation, and rewire.
  void RestartDestage(Partition& p);

  /// Emergency-destage partitions i..N-1 in turn within `pages_left`
  /// pages of supercap energy, then call `done`.
  void EmergencyDestage(size_t i, uint32_t pages_left,
                        std::function<void()> done);

  sim::Simulator* sim_;
  pcie::PcieFabric* fabric_;
  VillarsConfig config_;
  std::string name_;

  std::unique_ptr<flash::Array> array_;
  std::unique_ptr<ftl::Ftl> ftl_;
  std::unique_ptr<ftl::PatrolScrubber> scrubber_;
  std::unique_ptr<nvme::Controller> controller_;
  /// Sized once in the ctor: hooks hold Partition pointers.
  std::vector<Partition> partitions_;

  uint64_t bar0_base_ = 0;
  uint64_t cmb_base_ = 0;
  uint64_t cmb_bar_bytes_ = 0;
  bool halted_ = false;

  // Observability (set by EnableMetrics; survives Reboot()).
  obs::MetricsRegistry* metrics_registry_ = nullptr;
  std::string metrics_prefix_;

  // Span tracing (set by EnableSpans; survives Reboot()).
  obs::SpanRecorder* spans_ = nullptr;
  std::string span_node_tag_;

  // Fault injection (set by ArmFaults; survives Reboot()).
  fault::FaultInjector* injector_ = nullptr;

  // Flight recorder (set by EnableFlightRecorder; survives Reboot()).
  obs::FlightRecorder* flightrec_ = nullptr;
};

}  // namespace xssd::core

#endif  // XSSD_CORE_VILLARS_DEVICE_H_
