#include "fault/fault_injector.h"

#include "obs/flightrec.h"

namespace xssd::fault {

FaultInjector::FaultInjector(sim::Simulator* sim, FaultPlan plan, uint64_t seed)
    : sim_(sim), plan_(std::move(plan)), rng_(seed ^ 0xFA017FA017FA017Aull) {
  clauses_.reserve(plan_.faults.size());
  for (const FaultSpec& spec : plan_.faults) {
    clauses_.push_back(Clause{spec});
  }
}

void FaultInjector::SetMetrics(obs::MetricsRegistry* registry) {
  auto publish = [&](obs::Tally& tally, const char* name) {
    tally.PublishTo(registry != nullptr ? registry->GetCounter(name) : nullptr);
  };
  publish(totals_.flash_program_fails, "fault.flash.program_fails");
  publish(totals_.flash_erase_fails, "fault.flash.erase_fails");
  publish(totals_.flash_read_uncorrectable, "fault.flash.read_uncorrectable");
  publish(totals_.flash_retention_boosts, "fault.flash.retention_boosts");
  publish(totals_.flash_disturb_boosts, "fault.flash.disturb_boosts");
  publish(totals_.ntb_dropped, "fault.ntb.dropped_writes");
  publish(totals_.ntb_stalled, "fault.ntb.stalled_writes");
  publish(totals_.pcie_delayed, "fault.pcie.delayed_stores");
  publish(totals_.pcie_truncated, "fault.pcie.truncated_stores");
  publish(totals_.nvme_timeouts, "fault.nvme.timeouts");
  publish(totals_.crashes, "fault.crashes");
}

void FaultInjector::RecordFault(std::string message) {
  if (flightrec_ != nullptr) {
    flightrec_->Record(sim_->Now(), "fault", std::move(message));
  }
}

bool FaultInjector::Fires(const FaultSpec& spec) {
  const sim::SimTime now = sim_->Now();
  if (now < spec.at || now >= spec.end()) return false;
  if (spec.probability >= 1.0) return true;
  // Rng state advances only for probabilistic clauses inside their window,
  // so adding an unrelated clause to a plan cannot shift existing draws.
  return rng_.Bernoulli(spec.probability);
}

const FaultSpec* FaultInjector::Match(FaultKind kind) {
  if (crashed_) return nullptr;
  for (Clause& clause : clauses_) {
    if (clause.spec.kind != kind) continue;
    if (Fires(clause.spec)) return &clause.spec;
  }
  return nullptr;
}

bool FaultInjector::InjectFlashProgramFail() {
  if (Match(FaultKind::kFlashProgramFail) == nullptr) return false;
  ++totals_.flash_program_fails;
  RecordFault("flash program fail injected");
  return true;
}

bool FaultInjector::InjectFlashEraseFail() {
  if (Match(FaultKind::kFlashEraseFail) == nullptr) return false;
  ++totals_.flash_erase_fails;
  RecordFault("flash erase fail injected");
  return true;
}

bool FaultInjector::InjectFlashReadUncorrectable() {
  if (Match(FaultKind::kFlashReadUncorrectable) == nullptr) return false;
  ++totals_.flash_read_uncorrectable;
  RecordFault("uncorrectable flash read injected");
  return true;
}

sim::SimTime FaultInjector::InjectFlashRetentionDwell() {
  const FaultSpec* spec = Match(FaultKind::kFlashRetention);
  if (spec == nullptr) return 0;
  ++totals_.flash_retention_boosts;
  RecordFault("retention dwell boost injected (" +
              std::to_string(spec->delay) + " ns)");
  return spec->delay;
}

uint64_t FaultInjector::InjectFlashDisturbReads() {
  const FaultSpec* spec = Match(FaultKind::kFlashDisturb);
  if (spec == nullptr) return 0;
  ++totals_.flash_disturb_boosts;
  RecordFault("read-disturb boost injected");
  return static_cast<uint64_t>(spec->magnitude);
}

FaultInjector::NtbDecision FaultInjector::NtbForwardDecision() {
  if (Match(FaultKind::kNtbLinkDown) != nullptr) {
    ++totals_.ntb_dropped;
    RecordFault("ntb write dropped (link down)");
    return {LinkAction::kDrop, 0};
  }
  if (const FaultSpec* spec = Match(FaultKind::kNtbLinkStall)) {
    ++totals_.ntb_stalled;
    RecordFault("ntb write stalled " + std::to_string(spec->delay) + " ns");
    return {LinkAction::kStall, spec->delay};
  }
  return {LinkAction::kForward, 0};
}

sim::SimTime FaultInjector::InjectPcieStoreDelay() {
  const FaultSpec* spec = Match(FaultKind::kPcieStoreDelay);
  if (spec == nullptr) return 0;
  ++totals_.pcie_delayed;
  RecordFault("pcie store delayed " + std::to_string(spec->delay) + " ns");
  return spec->delay;
}

uint64_t FaultInjector::InjectPcieTruncation(uint64_t len) {
  if (len == 0) return 0;
  if (Match(FaultKind::kPcieStoreTruncate) == nullptr) return len;
  ++totals_.pcie_truncated;
  RecordFault("pcie store truncated");
  // Drop the tail: at least one byte lands (a fully-dropped store is the
  // NTB link-down fault's job), at least one byte is lost.
  if (len == 1) return 0;
  return 1 + rng_.Uniform(len - 1);
}

FaultInjector::NvmeDecision FaultInjector::InjectNvmeTimeout() {
  const FaultSpec* spec = Match(FaultKind::kNvmeTimeout);
  if (spec == nullptr) return {};
  ++totals_.nvme_timeouts;
  RecordFault("nvme command timeout injected");
  return {true, spec->delay};
}

bool FaultInjector::CrashPoint(std::string_view site) {
  if (crashed_) return false;
  for (Clause& clause : clauses_) {
    if (clause.spec.kind != FaultKind::kCrash) continue;
    const std::string& want = clause.spec.site;
    // Accept the full "<device>/<site>" name or the unprefixed tail, so a
    // plan can target one device or every device sharing the injector.
    const bool matches =
        site == want ||
        (site.size() > want.size() &&
         site.substr(site.size() - want.size()) == want &&
         site[site.size() - want.size() - 1] == '/');
    if (!matches) continue;
    const sim::SimTime now = sim_->Now();
    if (now < clause.spec.at || now >= clause.spec.end()) continue;
    if (++clause.hits < clause.spec.after_hits) continue;
    crashed_ = true;
    ++totals_.crashes;
    RecordFault("crash clause fired at site " + std::string(site) +
                (clause.spec.graceful ? " (graceful)" : " (hard)"));
    if (crash_handler_) crash_handler_(clause.spec);
    // Dump after the handler so the post-mortem includes the device's own
    // halt/power-fail entries alongside the injection that caused them.
    if (flightrec_ != nullptr) {
      flightrec_->AutoDump("injected crash at " + std::string(site));
    }
    return true;
  }
  return false;
}

}  // namespace xssd::fault
