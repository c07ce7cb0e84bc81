#include "core/villars_device.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "fault/fault_injector.h"
#include "obs/flightrec.h"
#include "fault/fault_plan.h"

namespace xssd::core {

VillarsDevice::VillarsDevice(sim::Simulator* sim, pcie::PcieFabric* fabric,
                             const VillarsConfig& config, std::string name)
    : sim_(sim), fabric_(fabric), config_(config), name_(std::move(name)) {
  array_ = std::make_unique<flash::Array>(sim_, config_.geometry,
                                          config_.flash_timing,
                                          config_.reliability, config_.seed);
  ftl_ = std::make_unique<ftl::Ftl>(sim_, array_.get(), config_.ftl);
  ftl_->scheduler().set_policy(config_.scheduling);
  scrubber_ = std::make_unique<ftl::PatrolScrubber>(sim_, ftl_.get(),
                                                    array_.get(),
                                                    config_.scrub);
  scrubber_->Start();  // no-op unless config_.scrub.enabled
  controller_ = std::make_unique<nvme::Controller>(sim_, fabric_, ftl_.get(),
                                                   name_ + "/nvme");

  partitions_.reserve(1 + config_.extra_partitions.size());
  auto add_partition = [this](const PartitionConfig& pc) {
    size_t index = partitions_.size();
    Partition& p = partitions_.emplace_back();
    p.config = pc;
    p.bar_offset = cmb_bar_bytes_;
    p.bar_bytes =
        kCtrlPageBytes + pc.cmb.ring_bytes * (1 + pc.cmb.peer_intake_slots);
    if (index > 0) p.tag = "part" + std::to_string(index);
    p.cmb = std::make_unique<CmbModule>(sim_, pc.cmb);
    p.destage = std::make_unique<DestageModule>(sim_, ftl_.get(), p.cmb.get(),
                                                pc.destage, p.epoch);
    p.transport =
        std::make_unique<TransportModule>(sim_, fabric_, pc.transport);
    p.transport->set_ring_bytes(pc.cmb.ring_bytes);
    WireHooks(p);
    cmb_bar_bytes_ += p.bar_bytes;
  };
  add_partition({config_.cmb, config_.destage, config_.transport});
  for (const PartitionConfig& pc : config_.extra_partitions) {
    add_partition(pc);
  }

  // Partitions share the conventional side: their destage rings must not
  // overlap.
  for (size_t i = 0; i < partitions_.size(); ++i) {
    for (size_t j = i + 1; j < partitions_.size(); ++j) {
      const DestageConfig& a = partitions_[i].config.destage;
      const DestageConfig& b = partitions_[j].config.destage;
      XSSD_CHECK(a.ring_start_lba + a.ring_lba_count <= b.ring_start_lba ||
                 b.ring_start_lba + b.ring_lba_count <= a.ring_start_lba);
    }
  }

  controller_->SetVendorHandler(
      [this](const nvme::Command& cmd,
             std::function<void(nvme::Completion)> done) {
        HandleVendorAdmin(cmd, std::move(done));
      });
}

VillarsDevice::~VillarsDevice() = default;

void VillarsDevice::WireHooks(Partition& p) {
  Partition* part = &p;
  p.cmb->SetCreditHook([part](uint64_t credit) {
    part->destage->OnCreditAdvance(credit);
    part->transport->OnLocalCredit(credit);
  });
  p.cmb->SetArrivalHook(
      [part](uint64_t stream_offset, const uint8_t* data, size_t len) {
        part->transport->OnCmbArrival(stream_offset, data, len);
      });
  p.transport->SetRingReader(
      [part](uint64_t stream_offset, uint8_t* out, size_t len) {
        part->cmb->CopyOut(stream_offset, out, len);
      });
}

void VillarsDevice::RestartDestage(Partition& p) {
  if (p.destage) {
    p.destage->Retire();
    p.retired_destages.push_back(std::move(p.destage));
  }
  p.destage = std::make_unique<DestageModule>(sim_, ftl_.get(), p.cmb.get(),
                                              p.config.destage, p.epoch);
  if (metrics_registry_ != nullptr) {
    p.destage->SetMetrics(metrics_registry_, p.MetricsPrefix(metrics_prefix_));
  }
  if (injector_ != nullptr) {
    p.destage->SetFaultInjector(injector_, p.Under(name_) + "/");
  }
  if (spans_ != nullptr) {
    p.destage->SetSpans(spans_, p.Under(span_node_tag_));
  }
  if (flightrec_ != nullptr) {
    p.destage->SetFlightRecorder(flightrec_, p.Under(name_));
  }
  WireHooks(p);
}

void VillarsDevice::EnableMetrics(obs::MetricsRegistry* registry,
                                  const std::string& prefix) {
  metrics_registry_ = registry;
  metrics_prefix_ = prefix;
  array_->SetMetrics(registry, prefix);
  ftl_->SetMetrics(registry, prefix);
  scrubber_->SetMetrics(registry, prefix);
  controller_->SetMetrics(registry, prefix);
  for (Partition& p : partitions_) {
    std::string part_prefix = p.MetricsPrefix(prefix);
    p.cmb->SetMetrics(registry, part_prefix);
    p.destage->SetMetrics(registry, part_prefix);
    p.transport->SetMetrics(registry, part_prefix);
  }
}

void VillarsDevice::EnableSpans(obs::SpanRecorder* spans,
                                const std::string& node_tag) {
  spans_ = spans;
  span_node_tag_ = node_tag;
  for (Partition& p : partitions_) {
    std::string tag = p.Under(node_tag);
    p.cmb->SetSpans(spans, tag);
    p.destage->SetSpans(spans, tag);
    p.transport->SetSpans(spans, tag);
  }
  ftl_->SetSpans(spans, node_tag);
}

void VillarsDevice::EnableFlightRecorder(obs::FlightRecorder* recorder) {
  flightrec_ = recorder;
  ftl_->SetFlightRecorder(recorder, name_);
  for (Partition& p : partitions_) {
    p.destage->SetFlightRecorder(recorder, p.Under(name_));
    p.transport->SetFlightRecorder(recorder, p.Under(name_));
  }
}

void VillarsDevice::ArmFaults(fault::FaultInjector* injector,
                              bool install_crash_handler) {
  injector_ = injector;
  array_->set_fault_injector(injector);
  controller_->set_fault_injector(injector);
  for (Partition& p : partitions_) {
    p.cmb->SetFaultInjector(injector, p.Under(name_) + "/");
    p.destage->SetFaultInjector(injector, p.Under(name_) + "/");
  }
  ftl_->SetFaultInjector(injector, name_ + "/");
  if (injector != nullptr && install_crash_handler) {
    injector->SetCrashHandler([this](const fault::FaultSpec& spec) {
      if (spec.graceful) {
        PowerFail([] {});
      } else {
        CrashHard();
      }
    });
  }
}

Status VillarsDevice::Attach(uint64_t bar0_base, uint64_t cmb_base) {
  XSSD_RETURN_IF_ERROR(fabric_->AddMmioRegion(
      bar0_base, nvme::kBar0Bytes, controller_.get(), name_ + "/bar0"));
  XSSD_RETURN_IF_ERROR(fabric_->AddMmioRegion(cmb_base, cmb_bar_bytes(), this,
                                              name_ + "/cmb"));
  bar0_base_ = bar0_base;
  cmb_base_ = cmb_base;
  return Status::OK();
}

VillarsDevice::Partition& VillarsDevice::Find(uint64_t offset) {
  for (Partition& p : partitions_) {
    if (offset < p.bar_offset + p.bar_bytes) return p;
  }
  return partitions_.back();
}

void VillarsDevice::OnMmioWrite(uint64_t offset, const uint8_t* data,
                                size_t len) {
  if (halted_) return;
  Partition& p = Find(offset);
  offset -= p.bar_offset;
  if (offset >= kRingWindowOffset) {
    // Ring region: the direct host window first, then one intake alias per
    // peer slot (same ring, but writes are attributed to a member slot and
    // term-fenced — a deposed primary's stale pushes die here).
    uint64_t rel = offset - kRingWindowOffset;
    uint64_t window = rel / p.config.cmb.ring_bytes;
    uint64_t ring_offset = rel % p.config.cmb.ring_bytes;
    if (window > 0 &&
        !p.transport->AdmitRingWrite(static_cast<uint32_t>(window - 1))) {
      return;
    }
    p.cmb->OnRingWrite(ring_offset, data, len);
    return;
  }
  // Control-page writes.
  if (offset >= kRegShadowBase &&
      offset + len <= kRegShadowBase + 8 * kMaxPeers && len == 8) {
    uint64_t value = 0;
    std::memcpy(&value, data, 8);
    uint32_t index = static_cast<uint32_t>((offset - kRegShadowBase) / 8);
    p.transport->OnShadowWrite(index, value);
    return;
  }
  if (offset == kRegDestageBarrier && len == 8) {
    uint64_t value = 0;
    std::memcpy(&value, data, 8);
    p.destage->SetBarrier(value);
    return;
  }
  XSSD_LOG(kDebug) << name_ << ": ignored control write at offset "
                   << offset;
}

uint64_t VillarsDevice::ReadRegister(const Partition& p,
                                     uint64_t offset) const {
  CmbModule& cmb = *p.cmb;
  DestageModule& destage = *p.destage;
  TransportModule& transport = *p.transport;
  switch (offset) {
    case kRegCredit:
      return transport.EffectiveCredit(cmb.local_credit());
    case kRegLocalCredit:
      return cmb.local_credit();
    case kRegQueueBytes:
      return cmb.queue_bytes();
    case kRegRingBytes:
      return cmb.ring_bytes();
    case kRegDestaged:
      return destage.destaged();
    case kRegDestageStartLba:
      return destage.ring_start_lba();
    case kRegDestageLbaCount:
      return destage.ring_lba_count();
    case kRegTransportStatus: {
      uint64_t word = transport.StatusWord(cmb.local_credit());
      if (halted_) word |= StatusBits::kHalted;
      return word;
    }
    case kRegDestageBarrier:
      return destage.barrier();
    case kRegEpoch:
      return p.epoch;
    case kRegTerm:
      return transport.term();
    case kRegFencedWrites:
      return transport.fenced_writes();
    default:
      if (offset >= kRegShadowBase && offset < kRegShadowBase + 8 * kMaxPeers) {
        return transport.shadow_counter(
            static_cast<uint32_t>((offset - kRegShadowBase) / 8));
      }
      if (offset >= kRegWriterTermBase &&
          offset < kRegWriterTermBase + 8 * kMaxPeers) {
        return transport.writer_term(
            static_cast<uint32_t>((offset - kRegWriterTermBase) / 8));
      }
      return 0;
  }
}

void VillarsDevice::OnMmioRead(uint64_t offset, uint8_t* out, size_t len) {
  const Partition& p = Find(offset);
  offset -= p.bar_offset;
  if (offset >= kRingWindowOffset) {
    if (halted_) {
      std::memset(out, 0, len);
      return;
    }
    p.cmb->ReadRing((offset - kRingWindowOffset) % p.config.cmb.ring_bytes,
                    out, len);
    return;
  }
  // Control registers are 8-byte aligned; serve any aligned span.
  std::memset(out, 0, len);
  uint64_t reg = offset & ~7ull;
  uint64_t value = ReadRegister(p, reg);
  size_t shift = offset - reg;
  for (size_t i = 0; i < len && shift + i < 8; ++i) {
    out[i] = static_cast<uint8_t>(value >> (8 * (shift + i)));
  }
}

void VillarsDevice::HandleVendorAdmin(
    const nvme::Command& cmd, std::function<void(nvme::Completion)> done) {
  nvme::Completion cpl;
  cpl.cid = cmd.cid;
  cpl.status = nvme::CmdStatus::kSuccess;
  if (halted_) {
    // A halted device answers nothing; the error completion models the
    // driver-side timeout a dead peer would produce mid-setup.
    cpl.status = nvme::CmdStatus::kInternalError;
    done(cpl);
    return;
  }
  // cdw13 selects the partition (a virtual function in SR-IOV terms).
  if (cmd.cdw13 >= partitions_.size()) {
    cpl.status = nvme::CmdStatus::kInvalidField;
    done(cpl);
    return;
  }
  TransportModule& transport = *partitions_[cmd.cdw13].transport;
  switch (static_cast<nvme::AdminOpcode>(cmd.opcode)) {
    case nvme::AdminOpcode::kXssdSetRole: {
      if (cmd.cdw10 > static_cast<uint32_t>(Role::kSecondary)) {
        cpl.status = nvme::CmdStatus::kInvalidField;
        break;
      }
      transport.SetRole(static_cast<Role>(cmd.cdw10));
      // cdw11/cdw12: secondary's shadow mailbox address through NTB
      // (64-bit split across the dwords).
      if (static_cast<Role>(cmd.cdw10) == Role::kSecondary) {
        uint64_t addr =
            (static_cast<uint64_t>(cmd.cdw12) << 32) | cmd.cdw11;
        transport.ConfigureSecondary(addr);
      }
      break;
    }
    case nvme::AdminOpcode::kXssdAddPeer: {
      uint64_t addr = (static_cast<uint64_t>(cmd.cdw12) << 32) | cmd.cdw11;
      Status status = transport.AddPeerAt(cmd.cdw10, addr);
      if (!status.ok()) cpl.status = nvme::CmdStatus::kInvalidField;
      break;
    }
    case nvme::AdminOpcode::kXssdRemovePeer: {
      Status status = transport.RemovePeer(cmd.cdw10);
      if (!status.ok()) cpl.status = nvme::CmdStatus::kInvalidField;
      break;
    }
    case nvme::AdminOpcode::kXssdClearPeers:
      transport.ClearPeers();
      break;
    case nvme::AdminOpcode::kXssdSetTerm: {
      if (cmd.cdw11 >= kMaxPeers) {
        cpl.status = nvme::CmdStatus::kInvalidField;
        break;
      }
      transport.SetTerm(cmd.cdw10, cmd.cdw11);
      break;
    }
    case nvme::AdminOpcode::kXssdTruncate: {
      uint64_t cut = (static_cast<uint64_t>(cmd.cdw11) << 32) | cmd.cdw10;
      TruncateLog(cut, cmd.cdw13);
      break;
    }
    case nvme::AdminOpcode::kXssdSetUpdatePeriod:
      transport.set_update_period(sim::Ns(cmd.cdw10));
      break;
    case nvme::AdminOpcode::kXssdSetDestagePolicy: {
      if (cmd.cdw10 >
          static_cast<uint32_t>(ftl::SchedulingPolicy::kConventionalPriority)) {
        cpl.status = nvme::CmdStatus::kInvalidField;
        break;
      }
      ftl_->scheduler().set_policy(
          static_cast<ftl::SchedulingPolicy>(cmd.cdw10));
      break;
    }
    case nvme::AdminOpcode::kXssdSetReplication: {
      if (cmd.cdw10 > static_cast<uint32_t>(ReplicationProtocol::kChain)) {
        cpl.status = nvme::CmdStatus::kInvalidField;
        break;
      }
      transport.set_protocol(static_cast<ReplicationProtocol>(cmd.cdw10));
      break;
    }
    case nvme::AdminOpcode::kXssdGetLogRing:
      cpl.result = static_cast<uint32_t>(
          partitions_[cmd.cdw13].destage->next_sequence());
      break;
    default:
      cpl.status = nvme::CmdStatus::kInvalidOpcode;
      break;
  }
  done(cpl);
}

void VillarsDevice::PowerFail(std::function<void()> done) {
  XSSD_LOG(kInfo) << name_ << ": POWER FAIL — emergency destage";
  if (flightrec_ != nullptr) {
    flightrec_->Record(sim_->Now(), "device",
                       name_ + " power fail, emergency destage (supercap "
                               "budget " +
                           std::to_string(config_.power.supercap_page_budget) +
                           " pages)");
  }
  halted_ = true;  // reject further host traffic immediately
  scrubber_->Stop();
  // Freeze the background pumps first so the emergency destage (below)
  // accounts every page against the supercap energy budget.
  for (Partition& p : partitions_) {
    p.destage->set_frozen(true);
    p.cmb->DrainStagingForPowerLoss();
  }
  EmergencyDestage(0, config_.power.supercap_page_budget, std::move(done));
  if (flightrec_ != nullptr) {
    flightrec_->AutoDump(name_ + " power fail");
  }
}

void VillarsDevice::EmergencyDestage(size_t i, uint32_t pages_left,
                                     std::function<void()> done) {
  if (i == partitions_.size()) {
    done();
    return;
  }
  // One energy store: each partition spends what the previous ones left.
  partitions_[i].destage->DestageAllForPowerLoss(
      pages_left,
      [this, i, pages_left, done = std::move(done)](uint32_t spent) mutable {
        EmergencyDestage(i + 1, pages_left - std::min(spent, pages_left),
                         std::move(done));
      });
}

void VillarsDevice::CrashHard() {
  XSSD_LOG(kWarning) << name_ << ": HARD CRASH — no supercap flush";
  if (flightrec_ != nullptr) {
    flightrec_->Record(sim_->Now(), "device",
                       name_ + " hard crash, staged data abandoned");
  }
  halted_ = true;
  scrubber_->Stop();
  // Order matters: halt the destage pipeline (cancelling any backed-off
  // write retries) before dropping staged chunks, so nothing schedules new
  // flash traffic against the dead device.
  for (Partition& p : partitions_) {
    p.destage->HaltForCrash();
    p.cmb->AbandonStagingForCrash();
  }
  if (flightrec_ != nullptr) {
    flightrec_->AutoDump(name_ + " hard crash");
  }
}

void VillarsDevice::TruncateLog(uint64_t offset, size_t i) {
  Partition& p = partitions_[i];
  if (flightrec_ != nullptr) {
    flightrec_->Record(sim_->Now(), "device",
                       p.Under(name_) + " log truncate to offset " +
                           std::to_string(offset));
  }
  p.cmb->TruncateTo(offset);
  if (p.destage->destage_cursor() > offset) {
    // Pages beyond the cut already went to flash and cannot be unwritten;
    // rolling the cursor back would break the sequence-chain law. Restart
    // the destage stream in a fresh epoch instead — recovery keeps only
    // the newest epoch, so the stale pages are ignored, and [0, offset)
    // re-destages under the new epoch stamp.
    ++p.epoch;
    RestartDestage(p);
    p.cmb->set_destaged_floor(0);
  }
  p.destage->OnCreditAdvance(p.cmb->local_credit());
  p.transport->OnLocalCredit(p.cmb->local_credit());
}

void VillarsDevice::Reboot() {
  if (flightrec_ != nullptr) {
    flightrec_->Record(sim_->Now(), "device",
                       name_ + " reboot into epoch " +
                           std::to_string(epoch() + 1));
  }
  halted_ = false;
  for (Partition& p : partitions_) {
    ++p.epoch;
    p.cmb->ResetForReboot();
    // The destage module restarts with a fresh cursor in the new epoch;
    // the conventional side keeps all destaged pages (recovery reads
    // them).
    RestartDestage(p);
  }
  // The scrubber survives the reboot (its per-block risk inputs live in
  // the flash array, which persists); only the tick needs re-arming.
  scrubber_->Start();
  // The transport modules survive the reboot (term fence, role, peers),
  // but their credit view must follow the reset CMB: a rebooted secondary
  // advertising its pre-crash counter would make the primary skip the
  // catch-up prefix during resync.
  for (Partition& p : partitions_) {
    p.transport->OnLocalCredit(p.cmb->local_credit());
  }
}

}  // namespace xssd::core
