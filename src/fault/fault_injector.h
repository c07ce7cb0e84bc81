#ifndef XSSD_FAULT_FAULT_INJECTOR_H_
#define XSSD_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace xssd::obs {
class FlightRecorder;
}  // namespace xssd::obs

namespace xssd::fault {

/// \brief Seeded, deterministic fault oracle consulted by the component
/// hooks (flash, NTB, PCIe, NVMe, cmb/destage crash sites).
///
/// Components that were handed an injector call the matching Inject*/
/// CrashPoint hook at each candidate event; the injector answers from the
/// plan's active windows and its own Rng. Because draws happen only inside
/// active windows and the simulator is single-threaded with deterministic
/// event order, a (plan, seed) pair replays bit-identically.
///
/// The injector never mutates the system itself — it only decides. The one
/// exception is CrashPoint, which invokes the registered crash handler
/// (synchronously) the first time a crash clause trips.
class FaultInjector {
 public:
  FaultInjector(sim::Simulator* sim, FaultPlan plan, uint64_t seed);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Register `fault.*` counters; pass nullptr to detach. Counters record
  /// *injected* events; the components' own metrics record how they coped.
  void SetMetrics(obs::MetricsRegistry* registry);

  /// Attach a flight recorder (nullptr detaches): every injected fault and
  /// crash-site firing is recorded, and a firing crash clause AutoDumps
  /// the ring after the crash handler runs — the post-mortem then shows
  /// both the injection and the device's reaction to it.
  void SetFlightRecorder(obs::FlightRecorder* recorder) {
    flightrec_ = recorder;
  }

  /// Invoked (once, synchronously) when a crash clause fires; receives the
  /// spec so the handler can honour `graceful`.
  using CrashHandler = std::function<void(const FaultSpec&)>;
  void SetCrashHandler(CrashHandler handler) { crash_handler_ = std::move(handler); }

  // --- Component hooks ------------------------------------------------------

  /// flash::Array::Program — true forces the program op to fail.
  bool InjectFlashProgramFail();
  /// flash::Array::Erase — true forces the erase op to fail.
  bool InjectFlashEraseFail();
  /// flash::Array::Read — true forces an uncorrectable (beyond-ECC) read.
  bool InjectFlashReadUncorrectable();
  /// flash::Array read-BER sampling — extra retention dwell (virtual time)
  /// added to the block's organic dwell; 0 when no clause is active.
  sim::SimTime InjectFlashRetentionDwell();
  /// flash::Array read-BER sampling — extra disturb-equivalent reads added
  /// to the block's organic count; 0 when no clause is active.
  uint64_t InjectFlashDisturbReads();

  /// ntb::NtbAdapter forwarding decision for one translated write.
  enum class LinkAction { kForward, kDrop, kStall };
  struct NtbDecision {
    LinkAction action = LinkAction::kForward;
    sim::SimTime delay = 0;  ///< extra latency when action == kStall
  };
  NtbDecision NtbForwardDecision();

  /// pcie::PcieFabric — extra latency added to a routed store (0 = none).
  sim::SimTime InjectPcieStoreDelay();
  /// pcie::PcieFabric — bytes of a peer-path store that actually land
  /// (returns `len` when no truncation fault is active).
  uint64_t InjectPcieTruncation(uint64_t len);

  /// nvme::Controller — I/O command timeout decision.
  struct NvmeDecision {
    bool timeout = false;
    sim::SimTime delay = 0;  ///< when the error completion is delivered
  };
  NvmeDecision InjectNvmeTimeout();

  /// Whole-device crash sites. Components announce a site as
  /// "<device>/<site>" (e.g. "pri/destage.emit_page"); a spec matches on
  /// the full name or on the unprefixed tail. Fires at most once per
  /// injector; after the crash every hook reports "no fault" so recovery
  /// and emergency destage run uninstrumented.
  bool CrashPoint(std::string_view site);
  bool crashed() const { return crashed_; }

  /// Injection totals, usable without a metrics registry.
  struct Totals {
    obs::Tally flash_program_fails;
    obs::Tally flash_erase_fails;
    obs::Tally flash_read_uncorrectable;
    obs::Tally flash_retention_boosts;
    obs::Tally flash_disturb_boosts;
    obs::Tally ntb_dropped;
    obs::Tally ntb_stalled;
    obs::Tally pcie_delayed;
    obs::Tally pcie_truncated;
    obs::Tally nvme_timeouts;
    obs::Tally crashes;
  };
  const Totals& totals() const { return totals_; }
  const FaultPlan& plan() const { return plan_; }

 private:
  struct Clause {
    FaultSpec spec;
    uint64_t hits = 0;  ///< crash clauses: matching site visits so far
  };

  /// True when `spec`'s window covers Now() and its probability draw (if
  /// any) passes. Draws consume Rng state only for probabilistic clauses
  /// inside their window.
  bool Fires(const FaultSpec& spec);
  /// First firing clause of `kind`, else nullptr.
  const FaultSpec* Match(FaultKind kind);

  /// Flight-recorder append for one injected fault (no-op when detached).
  void RecordFault(std::string message);

  sim::Simulator* sim_;
  FaultPlan plan_;
  sim::Rng rng_;
  std::vector<Clause> clauses_;
  CrashHandler crash_handler_;
  bool crashed_ = false;
  Totals totals_;
  obs::FlightRecorder* flightrec_ = nullptr;
};

}  // namespace xssd::fault

#endif  // XSSD_FAULT_FAULT_INJECTOR_H_
