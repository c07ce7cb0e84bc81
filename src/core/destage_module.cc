#include "core/destage_module.h"

#include "common/logging.h"
#include "fault/fault_injector.h"
#include "obs/flightrec.h"

namespace xssd::core {

DestageModule::DestageModule(sim::Simulator* sim, ftl::Ftl* ftl,
                             CmbModule* cmb, const DestageConfig& config,
                             uint32_t epoch)
    : sim_(sim), ftl_(ftl), cmb_(cmb), config_(config), epoch_(epoch) {
  XSSD_CHECK(config_.ring_lba_count > 0);
  XSSD_CHECK(config_.ring_start_lba + config_.ring_lba_count <=
             ftl_->lpn_count());
}

void DestageModule::SetMetrics(obs::MetricsRegistry* registry,
                               const std::string& prefix) {
  m_pages_written_ = registry->GetCounter(prefix + "destage.pages_written");
  m_partial_pages_ = registry->GetCounter(prefix + "destage.partial_pages");
  m_filler_bytes_ = registry->GetCounter(prefix + "destage.filler_bytes");
  m_stream_bytes_ = registry->GetCounter(prefix + "destage.stream_bytes");
  m_write_failures_ = registry->GetCounter(prefix + "destage.write_failures");
  m_write_retries_ = registry->GetCounter(prefix + "destage.write_retries");
  m_ring_trims_ = registry->GetCounter(prefix + "destage.ring_trims");
  m_inflight_ = registry->GetGauge(prefix + "destage.inflight");
  m_backlog_bytes_ = registry->GetGauge(prefix + "destage.backlog_bytes");
  m_page_latency_us_ =
      registry->GetLatency(prefix + "destage.page_latency_us");
}

void DestageModule::OnCreditAdvance(uint64_t credit) {
  if (credit > credit_seen_) {
    if (credit_seen_ == destage_cursor_) {
      // New data started pending; remember when, for the threshold timer.
      oldest_pending_since_ = sim_->Now();
    }
    credit_seen_ = credit;
  }
  if (m_backlog_bytes_) {
    m_backlog_bytes_->Set(
        static_cast<double>(credit_seen_ - destage_cursor_));
  }
  Pump();
}

void DestageModule::SetBarrier(uint64_t stream_offset) {
  barrier_ = stream_offset;
  Pump();
}

void DestageModule::SetFaultInjector(fault::FaultInjector* injector,
                                     std::string site_prefix) {
  injector_ = injector;
  site_prefix_ = std::move(site_prefix);
}

void DestageModule::SetSpans(obs::SpanRecorder* spans,
                             const std::string& node_tag) {
  spans_ = spans;
  span_node_ = spans ? spans->InternNode(node_tag) : 0;
}

void DestageModule::Pump() {
  if (frozen_) return;
  while (inflight_ < config_.max_inflight) {
    // Re-checked inside the loop: a crash point firing in EmitPage may
    // freeze the module from under us.
    if (frozen_) return;
    if (stats_.pages_written + inflight_ >= page_limit_) return;
    uint64_t limit = std::min(credit_seen_, barrier_);
    uint64_t pending = limit > destage_cursor_ ? limit - destage_cursor_ : 0;
    if (pending == 0) return;
    if (pending >= Capacity()) {
      EmitPage(Capacity());
      continue;
    }
    // Not a full page: wait for the latency threshold before padding.
    sim::SimTime age = sim_->Now() - oldest_pending_since_;
    if (age >= config_.latency_threshold) {
      EmitPage(static_cast<uint32_t>(pending));
      continue;
    }
    ArmTimer();
    return;
  }
}

void DestageModule::ArmTimer() {
  if (timer_armed_) return;
  timer_armed_ = true;
  sim::SimTime fire_at = oldest_pending_since_ + config_.latency_threshold;
  sim::SimTime delay = fire_at > sim_->Now() ? fire_at - sim_->Now() : 0;
  sim_->Schedule(delay, [this]() {
    if (retired_) return;
    timer_armed_ = false;
    Pump();
  });
}

void DestageModule::EmitPage(uint32_t len) {
  XSSD_CHECK(len > 0 && len <= Capacity());
  if (injector_ != nullptr &&
      injector_->CrashPoint(site_prefix_ + "destage.emit_page")) {
    // Crash before the page exists: the extent stays pending, so a
    // graceful shutdown's emergency destage will pick it up again.
    return;
  }
  DestagePageHeader header;
  header.sequence = next_sequence_;
  header.stream_offset = destage_cursor_;
  header.data_len = len;
  header.epoch = epoch_;

  if (emit_observer_) {
    emit_observer_(header,
                   config_.ring_start_lba +
                       (next_sequence_ % config_.ring_lba_count));
  }

  std::vector<uint8_t> data(len);
  cmb_->CopyOut(destage_cursor_, data.data(), len);
  // Reading the ring consumes backing-memory bandwidth too — the shared-
  // DRAM contention the paper's DRAM-backed CMB exhibits under load.
  cmb_->backing_port().Acquire(len);

  std::vector<uint8_t> page =
      BuildDestagePage(header, data.data(), len, ftl_->page_bytes());

  uint64_t begin = destage_cursor_;
  uint64_t end = destage_cursor_ + len;
  uint64_t lba = config_.ring_start_lba +
                 (next_sequence_ % config_.ring_lba_count);
  if (next_sequence_ >= config_.ring_lba_count) {
    // Ring wrap: the reused slot still maps the page written
    // ring_lba_count sequences ago, long superseded in the stream. Trim it
    // now so GC never wastes a relocation on a dead slot while the
    // replacing write is in flight. (Recovery is unaffected: the chain
    // walk stops at a stale sequence and at an unwritten page alike.)
    ftl_->Trim(lba);
    ++stats_.ring_trims;
    if (m_ring_trims_) m_ring_trims_->Add();
    if (flightrec_ != nullptr) {
      flightrec_->Record(sim_->Now(), "destage",
                         fr_tag_ + "ring wrap: trimmed slot lba " +
                             std::to_string(lba) + " for seq " +
                             std::to_string(next_sequence_));
    }
  }
  ++next_sequence_;
  destage_cursor_ = end;
  if (destage_cursor_ < std::min(credit_seen_, barrier_)) {
    // More is already pending behind this page.
  } else {
    oldest_pending_since_ = sim_->Now();
  }
  ++inflight_;
  if (m_inflight_) m_inflight_->Set(inflight_);
  if (m_backlog_bytes_) {
    m_backlog_bytes_->Set(static_cast<double>(
        std::min(credit_seen_, barrier_) - destage_cursor_));
  }
  sim::SimTime issued_at = sim_->Now();
  // Open the page's span: emit → durable, covering the stream extent. The
  // ambient parent is the chunk whose persistence pumped us; timer-cut
  // partial pages run with no ambient context and become orphans that the
  // analyzer re-attaches by offset range.
  obs::SpanContext page_span;
  if (spans_) {
    page_span = spans_->StartSpan(obs::Stage::kDestagePage, span_node_,
                                  spans_->current());
    spans_->SetRange(page_span, begin, end);
  }
  IssuePage(lba, std::move(page), begin, end, len, issued_at, /*attempt=*/0,
            page_span);
}

void DestageModule::IssuePage(uint64_t lba, std::vector<uint8_t> page,
                              uint64_t begin, uint64_t end, uint32_t len,
                              sim::SimTime issued_at, uint32_t attempt,
                              obs::SpanContext span) {
  // The FTL consumes its argument; keep the original for a potential
  // re-issue after a failed program.
  std::vector<uint8_t> copy = page;
  // Make the page span ambient so the FTL's flash.program span (and any
  // re-issue after backoff) nests under it.
  obs::ScopedContext span_scope(spans_, span);
  ftl_->WriteDirect(
      ftl::IoClass::kDestage, lba, std::move(copy),
      [this, lba, page = std::move(page), begin, end, len, issued_at,
       attempt, span](Status status) mutable {
        if (retired_) return;
        if (!status.ok()) {
          if (m_write_failures_) m_write_failures_->Add();
          if (attempt < config_.max_write_retries) {
            // Retry the same extent into the same ring slot after a
            // doubling backoff. The inflight_ slot stays held so the
            // power-loss drain waits for the outcome.
            ++stats_.write_retries;
            if (m_write_retries_) m_write_retries_->Add();
            sim::SimTime backoff = config_.retry_backoff << attempt;
            sim_->Schedule(backoff, [this, lba, page = std::move(page), begin,
                                     end, len, issued_at, attempt,
                                     span]() mutable {
              if (retired_) return;
              if (halted_) {
                // Hard crash while backing off: the device is gone; the
                // write never happens.
                --inflight_;
                if (m_inflight_) m_inflight_->Set(inflight_);
                return;
              }
              IssuePage(lba, std::move(page), begin, end, len, issued_at,
                        attempt + 1, span);
            });
            return;
          }
          --inflight_;
          if (m_inflight_) m_inflight_->Set(inflight_);
          if (spans_) spans_->EndSpan(span);
          // FTL bad-block retries and our own re-issues are exhausted;
          // the extent is lost. Keep the counter honest: destaged_ will
          // simply never cross the hole.
          XSSD_LOG(kError) << "destage write failed permanently: "
                           << status.ToString();
          Pump();
          return;
        }
        --inflight_;
        if (m_inflight_) m_inflight_->Set(inflight_);
        if (injector_ != nullptr &&
            injector_->CrashPoint(site_prefix_ + "destage.page_complete")) {
          // The page is durable in flash but the progress accounting dies
          // with the crash — recovery must find it via the chain walk.
          return;
        }
        ++stats_.pages_written;
        stats_.stream_bytes += len;
        if (m_pages_written_) {
          m_pages_written_->Add();
          m_stream_bytes_->Add(len);
          m_page_latency_us_->Add(sim::ToUs(sim_->Now() - issued_at));
        }
        if (len < Capacity()) {
          ++stats_.partial_pages;
          stats_.filler_bytes += Capacity() - len;
          if (m_partial_pages_) {
            m_partial_pages_->Add();
            m_filler_bytes_->Add(Capacity() - len);
          }
        }
        if (spans_) spans_->EndSpan(span);
        if (durable_observer_) durable_observer_(begin, end);
        completed_.Insert(begin, end);
        uint64_t new_destaged = completed_.ContiguousEnd(destaged_);
        if (new_destaged != destaged_) {
          destaged_ = new_destaged;
          completed_.TrimBelow(destaged_);
          cmb_->set_destaged_floor(destaged_);
          if (destaged_observer_) destaged_observer_(destaged_);
        }
        Pump();
      });
}

void DestageModule::DestageAllForPowerLoss(
    uint32_t page_budget, std::function<void(uint32_t pages)> done) {
  frozen_ = false;
  // Temporarily lift the latency threshold and barrier: on power loss the
  // device flushes everything persisted, immediately.
  sim::SimTime saved_threshold = config_.latency_threshold;
  config_.latency_threshold = 0;
  uint64_t saved_barrier = barrier_;
  barrier_ = ~0ull;

  uint64_t pages_before = stats_.pages_written;
  page_limit_ = pages_before + page_budget;
  auto poll = std::make_shared<std::function<void()>>();
  *poll = [this, pages_before, saved_threshold, saved_barrier,
           done = std::move(done), poll]() mutable {
    if (retired_) {
      *poll = nullptr;  // break the reference cycle; `done` never fires
      return;
    }
    bool budget_left = stats_.pages_written + inflight_ < page_limit_;
    // Also done when everything was issued and nothing is in flight —
    // destaged_ can be pinned below credit when completion accounting was
    // lost to a crash point, and no further progress is possible then.
    bool drained = inflight_ == 0 && (destaged_ >= credit_seen_ ||
                                      destage_cursor_ >= credit_seen_);
    if (drained || !budget_left) {
      if (!budget_left) {
        XSSD_LOG(kWarning) << "supercap budget exhausted during power-loss "
                              "destage";
      }
      config_.latency_threshold = saved_threshold;
      barrier_ = saved_barrier;
      page_limit_ = ~0ull;
      frozen_ = true;  // device halts after the emergency destage
      // Break the poll <-> closure reference cycle; this call runs on a
      // copy, so clearing the shared closure does not destroy it.
      *poll = nullptr;
      done(static_cast<uint32_t>(stats_.pages_written + inflight_ -
                                 pages_before));
      return;
    }
    Pump();
    sim_->Schedule(sim::Us(5), *poll);
  };
  std::function<void()> first = *poll;
  first();
}

}  // namespace xssd::core
