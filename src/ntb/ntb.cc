#include "ntb/ntb.h"

#include "common/logging.h"
#include "fault/fault_injector.h"
#include "pcie/tlp.h"

namespace xssd::ntb {

NtbAdapter::NtbAdapter(sim::Simulator* sim, pcie::PcieFabric* local,
                       NtbConfig config, std::string name)
    : sim_(sim),
      local_(local),
      config_(config),
      name_(std::move(name)),
      link_(sim, config.bytes_per_sec) {
  scratchpad_.resize(config_.scratchpad_bytes, 0);
  // The NTB hop is the only cross-fabric edge in the module graph, so its
  // cut-through latency is the parallel scheduler's lookahead horizon: no
  // forwarded write can land on the far fabric sooner than this.
  if (config_.hop_latency > 0) sim_->DeclareLookahead(config_.hop_latency);
}

void NtbAdapter::SetMetrics(obs::MetricsRegistry* registry,
                            const std::string& prefix) {
  auto publish = [&](obs::Tally& tally, const char* name) {
    tally.PublishTo(registry->GetCounter(prefix + name));
  };
  publish(forwarded_wire_bytes_, "ntb.wire_bytes");
  publish(forwarded_payload_bytes_, "ntb.payload_bytes");
  publish(forwarded_packets_, "ntb.packets");
  publish(forwards_, "ntb.forwards");
  publish(dropped_writes_, "ntb.dropped_writes");
  publish(dropped_payload_bytes_, "ntb.dropped_bytes");
  m_link_busy_us_ = registry->GetGauge(prefix + "ntb.link_busy_us");
}

void NtbAdapter::SetSpans(obs::SpanRecorder* spans,
                          const std::string& node_tag) {
  spans_ = spans;
  span_node_ = spans ? spans->InternNode(node_tag) : 0;
  // Span recorders are shared across domains and not thread-safe: pin the
  // parallel backend to its (identical) serial merge while one is attached.
  if (spans != nullptr) sim_->set_force_serial(true);
}

Status NtbAdapter::CheckOverlap(uint64_t offset, uint64_t size) const {
  for (const Window& w : windows_) {
    bool disjoint = offset + size <= w.offset || w.offset + w.size <= offset;
    if (!disjoint) return Status::InvalidArgument("NTB windows overlap");
  }
  return Status::OK();
}

Status NtbAdapter::AddWindow(uint64_t offset, uint64_t size,
                             pcie::PcieFabric* remote_fabric,
                             uint64_t remote_base) {
  if (remote_fabric == nullptr || size == 0) {
    return Status::InvalidArgument("bad NTB window");
  }
  XSSD_RETURN_IF_ERROR(CheckOverlap(offset, size));
  windows_.push_back(
      Window{offset, size, {MulticastTarget{remote_fabric, remote_base}}});
  return Status::OK();
}

Status NtbAdapter::AddMulticastWindow(uint64_t offset, uint64_t size,
                                      std::vector<MulticastTarget> members) {
  if (members.empty() || size == 0) {
    return Status::InvalidArgument("empty multicast group");
  }
  for (const MulticastTarget& member : members) {
    if (member.remote == nullptr) {
      return Status::InvalidArgument("null multicast member");
    }
  }
  XSSD_RETURN_IF_ERROR(CheckOverlap(offset, size));
  windows_.push_back(Window{offset, size, std::move(members)});
  return Status::OK();
}

const NtbAdapter::Window* NtbAdapter::FindWindow(uint64_t offset) const {
  for (const Window& w : windows_) {
    if (offset >= w.offset && offset < w.offset + w.size) return &w;
  }
  return nullptr;
}

void NtbAdapter::OnMmioWrite(uint64_t offset, const uint8_t* data,
                             size_t len) {
  if (config_.scratchpad_bytes > 0 && offset >= config_.scratchpad_offset &&
      offset + len <= config_.scratchpad_offset + config_.scratchpad_bytes) {
    // Scratchpad store: terminate locally, never forward. An inbound
    // link-down window loses it the same way it loses a forwarded write —
    // a heartbeat the failure detector simply never sees.
    if (scratchpad_injector_ != nullptr &&
        scratchpad_injector_->NtbForwardDecision().action ==
            fault::FaultInjector::LinkAction::kDrop) {
      ++scratchpad_dropped_;
      return;
    }
    std::copy(data, data + len,
              scratchpad_.begin() +
                  static_cast<ptrdiff_t>(offset - config_.scratchpad_offset));
    ++scratchpad_writes_;
    return;
  }
  const Window* window = FindWindow(offset);
  if (window == nullptr || offset + len > window->offset + window->size) {
    XSSD_LOG(kWarning) << name_ << ": write outside any NTB window";
    return;
  }
  uint64_t window_offset = offset - window->offset;

  sim::SimTime stall_delay = 0;
  if (injector_ != nullptr) {
    auto decision = injector_->NtbForwardDecision();
    if (decision.action == fault::FaultInjector::LinkAction::kDrop) {
      // Link is down: the posted write vanishes on the cable. The sender
      // gets no error — recovering these bytes is the transport module's
      // retransmit job.
      ++dropped_writes_;
      dropped_payload_bytes_ += len;
      return;
    }
    if (decision.action == fault::FaultInjector::LinkAction::kStall) {
      stall_delay = decision.delay;
    }
  }

  // One cable transfer regardless of fan-out: the adapter replicates in
  // hardware on the far side of the link.
  uint64_t wire = pcie::WireBytesFor(len, config_.forward_chunk);
  uint64_t packets = pcie::TlpCountFor(len, config_.forward_chunk);
  forwarded_wire_bytes_ += wire;
  forwarded_payload_bytes_ += len;
  forwarded_packets_ += packets;
  ++forwards_;

  std::vector<uint8_t> copy(data, data + len);
  sim::SimTime cable_done = link_.Acquire(wire);
  if (m_link_busy_us_) m_link_busy_us_->Set(sim::ToUs(link_.busy_time()));
  sim::SimTime delivered_at = cable_done + config_.hop_latency + stall_delay;
  // The link span covers cable serialisation plus the adapter hop; its end
  // is known now, so stamp it up front. The captured context is restored on
  // delivery so remote-side spans nest under this transfer.
  obs::SpanContext link_ctx;
  if (spans_) {
    link_ctx = spans_->StartSpan(obs::Stage::kNtbLink, span_node_,
                                 spans_->current());
    spans_->EndSpanAt(link_ctx, delivered_at);
  }
  bool cross_domain = false;
  for (const MulticastTarget& member : window->members) {
    if (member.remote->domain() != local_->domain()) cross_domain = true;
  }
  if (!cross_domain) {
    sim_->ScheduleAt(
        delivered_at,
        [this, link_ctx, members = window->members, window_offset,
         copy = std::move(copy), chunk = config_.forward_chunk]() {
          obs::ScopedContext scope(spans_, link_ctx);
          for (const MulticastTarget& member : members) {
            // Address translation is the only transformation NTB performs
            // (§2.3); inject into each member fabric as peer-to-peer traffic.
            member.remote->PeerWrite(member.remote_base + window_offset,
                                     copy.data(), copy.size(), chunk);
          }
        });
    return;
  }
  // Partitioned run: deliver into each member's own scheduler domain. The
  // delivery time satisfies the lookahead contract by construction
  // (delivered_at >= now + hop_latency >= now + lookahead). The payload is
  // shared, not copied per member — delivery callbacks only read it.
  auto shared_copy = std::make_shared<std::vector<uint8_t>>(std::move(copy));
  for (const MulticastTarget& member : window->members) {
    sim_->ScheduleAtIn(
        member.remote->domain(), delivered_at,
        [this, link_ctx, member, window_offset, shared_copy,
         chunk = config_.forward_chunk]() {
          obs::ScopedContext scope(spans_, link_ctx);
          member.remote->PeerWrite(member.remote_base + window_offset,
                                   shared_copy->data(), shared_copy->size(),
                                   chunk);
        });
  }
}

void NtbAdapter::OnMmioRead(uint64_t offset, uint8_t* out, size_t len) {
  if (config_.scratchpad_bytes > 0 && offset >= config_.scratchpad_offset &&
      offset + len <= config_.scratchpad_offset + config_.scratchpad_bytes) {
    auto base = scratchpad_.begin() +
                static_cast<ptrdiff_t>(offset - config_.scratchpad_offset);
    std::copy(base, base + static_cast<ptrdiff_t>(len), out);
    return;
  }
  // Cross-NTB reads exist but are slow and unused by the Villars protocol
  // (all coordination is done with posted writes). Serve them functionally
  // from the first member for completeness.
  const Window* window = FindWindow(offset);
  if (window == nullptr || offset + len > window->offset + window->size) {
    std::fill(out, out + len, 0);
    return;
  }
  const MulticastTarget& member = window->members.front();
  uint64_t remote_addr = member.remote_base + (offset - window->offset);
  Status status = member.remote->FunctionalRead(remote_addr, out, len);
  if (!status.ok()) std::fill(out, out + len, 0);
}

}  // namespace xssd::ntb
