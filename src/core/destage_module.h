#ifndef XSSD_CORE_DESTAGE_MODULE_H_
#define XSSD_CORE_DESTAGE_MODULE_H_

#include <cstdint>
#include <functional>

#include "core/cmb_module.h"
#include "core/config.h"
#include "core/page_format.h"
#include "ftl/ftl.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace xssd::obs {
class FlightRecorder;
}  // namespace xssd::obs

namespace xssd::core {

/// Destage statistics.
struct DestageStats {
  uint64_t pages_written = 0;
  uint64_t partial_pages = 0;     ///< pages cut short by latency threshold
  uint64_t filler_bytes = 0;
  uint64_t stream_bytes = 0;      ///< payload destaged
  uint64_t write_retries = 0;     ///< re-issues after a failed page write
  uint64_t ring_trims = 0;        ///< wrapped slots invalidated before reuse
};

/// \brief The Destage module (paper §4.3): moves the PM ring's persisted
/// prefix into a ring of logical blocks on the conventional side.
///
/// It monitors the credit counter, bundles ring-head data into flash pages
/// (adding filler when the latency threshold forces a partial page), and
/// writes them through the FTL with IoClass::kDestage so the channel
/// scheduler can apply the opportunistic-destaging policies. Destaging is
/// pipelined across dies but the destaged counter advances strictly in
/// stream order.
class DestageModule {
 public:
  DestageModule(sim::Simulator* sim, ftl::Ftl* ftl, CmbModule* cmb,
                const DestageConfig& config, uint32_t epoch = 0);

  DestageModule(const DestageModule&) = delete;
  DestageModule& operator=(const DestageModule&) = delete;

  /// Hooked to the CMB credit counter; wakes the destage loop.
  void OnCreditAdvance(uint64_t credit);

  /// Stream bytes destaged to the conventional side (in-order).
  uint64_t destaged() const { return destaged_; }

  /// Next destage-ring slot (sequence number; LBA = start + seq % count).
  uint64_t next_sequence() const { return next_sequence_; }

  /// Stream bytes issued to flash so far (may run ahead of destaged()).
  uint64_t destage_cursor() const { return destage_cursor_; }

  uint64_t ring_start_lba() const { return config_.ring_start_lba; }
  uint64_t ring_lba_count() const { return config_.ring_lba_count; }

  /// Advanced-API barrier: stream offsets >= `stream_offset` are withheld
  /// from destaging (active x_alloc areas). ~0 disables.
  void SetBarrier(uint64_t stream_offset);
  uint64_t barrier() const { return barrier_; }

  /// Crash protocol step 2 (paper §4.1): destage everything persisted
  /// (stopping at the credit, which by construction stops at the first
  /// gap), bounded by the supercap energy budget in pages: pages still in
  /// flight at the call plus pages issued after it never exceed
  /// `page_budget`. `done(pages)` fires when the ring is fully drained or
  /// the budget is exhausted, with the pages charged to the budget.
  void DestageAllForPowerLoss(uint32_t page_budget,
                              std::function<void(uint32_t pages)> done);

  /// Freeze/unfreeze (used during power-loss handling to stop the normal
  /// background loop).
  void set_frozen(bool frozen) { frozen_ = frozen; }

  /// Hard crash: freeze permanently and cancel pending write retries (a
  /// halted device issues no more flash traffic). Unlike set_frozen this
  /// is not undone by the power-loss destage path.
  void HaltForCrash() {
    frozen_ = true;
    halted_ = true;
  }

  /// The device replaced this module (reboot, log truncation). The owner
  /// keeps it allocated until the device is destroyed, and every closure
  /// it still has pending — latency timer, retry backoff, FTL write
  /// completion, power-loss poll — returns without touching any state.
  void Retire() { retired_ = true; }

  const DestageStats& stats() const { return stats_; }

  /// Register this module's metrics under `prefix` + "destage.".
  void SetMetrics(obs::MetricsRegistry* registry,
                  const std::string& prefix = "");

  /// Attach span tracing (nullptr detaches). Each emitted page opens a
  /// destage.page span (emit → durable, spanning retries) covering its
  /// stream extent; pages cut by the latency timer have no ambient request
  /// context and are recorded as orphans joined by offset range.
  void SetSpans(obs::SpanRecorder* spans, const std::string& node_tag);

  /// Attach a fault injector (nullptr detaches). Crash sites:
  /// "destage.emit_page" (before a page is built/issued) and
  /// "destage.page_complete" (page durable in flash, progress accounting
  /// lost). `site_prefix` (e.g. "pri/") namespaces the sites per device.
  void SetFaultInjector(fault::FaultInjector* injector,
                        std::string site_prefix);

  /// Attach a flight recorder (nullptr detaches). Records ring wraps —
  /// each reuse of a log-ring slot trims the superseded page, a rare,
  /// load-bearing event worth having in every post-mortem. `node_tag`
  /// prefixes messages per device (e.g. "pri").
  void SetFlightRecorder(obs::FlightRecorder* recorder,
                         const std::string& node_tag = "") {
    flightrec_ = recorder;
    fr_tag_ = node_tag.empty() ? "" : node_tag + " ";
  }

  // -- Conformance observation taps (src/check) -----------------------------
  // Pure observers, called in addition to the normal control flow; the
  // checker's reference model cross-checks each step. Detach with nullptr.
  // Note a Reboot() recreates this module, so a checker must re-attach.

  /// A page was built and issued (fires strictly in stream order, before
  /// the flash write; retried pages do not re-fire).
  using EmitObserver =
      std::function<void(const DestagePageHeader& header, uint64_t lba)>;
  void SetEmitObserver(EmitObserver observer) {
    emit_observer_ = std::move(observer);
  }

  /// A page's completion was accounted — the extent [begin, end) is durable
  /// in flash (fires in completion order, which may reorder across dies).
  using DurableObserver = std::function<void(uint64_t begin, uint64_t end)>;
  void SetDurableObserver(DurableObserver observer) {
    durable_observer_ = std::move(observer);
  }

  /// The in-order destaged counter advanced.
  using DestagedObserver = std::function<void(uint64_t destaged)>;
  void SetDestagedObserver(DestagedObserver observer) {
    destaged_observer_ = std::move(observer);
  }

 private:
  /// Payload capacity of one destage page.
  uint32_t Capacity() const {
    return DestagePayloadCapacity(ftl_->page_bytes());
  }

  /// Destage eligible data: full pages immediately; partial pages once the
  /// latency threshold expires.
  void Pump();

  /// Emit one page covering [destage_cursor_, destage_cursor_ + len).
  void EmitPage(uint32_t len);

  /// Issue (or re-issue) a built page to the FTL. Retries keep the same
  /// sequence number and ring slot — the recovery chain walk depends on
  /// consecutive sequences with chaining stream offsets, so a retried page
  /// must land exactly where the failed attempt would have.
  void IssuePage(uint64_t lba, std::vector<uint8_t> page, uint64_t begin,
                 uint64_t end, uint32_t len, sim::SimTime issued_at,
                 uint32_t attempt, obs::SpanContext span);

  void ArmTimer();

  sim::Simulator* sim_;
  ftl::Ftl* ftl_;
  CmbModule* cmb_;
  DestageConfig config_;
  uint32_t epoch_;

  uint64_t credit_seen_ = 0;
  uint64_t destaged_ = 0;        ///< contiguous, completion-ordered
  uint64_t destage_cursor_ = 0;  ///< issued (may be ahead of destaged_)
  uint64_t next_sequence_ = 0;
  uint64_t barrier_ = ~0ull;
  /// Power-loss energy cap: Pump issues no page once pages_written +
  /// inflight_ reaches it (~0 outside DestageAllForPowerLoss).
  uint64_t page_limit_ = ~0ull;
  uint32_t inflight_ = 0;
  bool timer_armed_ = false;
  bool frozen_ = false;
  bool halted_ = false;  ///< hard crash: no further flash traffic
  bool retired_ = false;  ///< replaced: pending closures are no-ops
  sim::SimTime oldest_pending_since_ = 0;
  fault::FaultInjector* injector_ = nullptr;
  std::string site_prefix_;
  obs::SpanRecorder* spans_ = nullptr;
  uint16_t span_node_ = 0;
  obs::FlightRecorder* flightrec_ = nullptr;
  std::string fr_tag_;
  EmitObserver emit_observer_;
  DurableObserver durable_observer_;
  DestagedObserver destaged_observer_;

  // Completion reordering: pages finish out of order across dies; destaged_
  // advances over the contiguous prefix of completed stream extents.
  sim::IntervalSet completed_;

  DestageStats stats_;

  // Observability (null until SetMetrics).
  obs::Counter* m_pages_written_ = nullptr;
  obs::Counter* m_partial_pages_ = nullptr;
  obs::Counter* m_filler_bytes_ = nullptr;
  obs::Counter* m_stream_bytes_ = nullptr;
  obs::Counter* m_write_failures_ = nullptr;
  obs::Counter* m_write_retries_ = nullptr;
  obs::Counter* m_ring_trims_ = nullptr;
  obs::Gauge* m_inflight_ = nullptr;
  obs::Gauge* m_backlog_bytes_ = nullptr;
  obs::LatencyRecorder* m_page_latency_us_ = nullptr;
};

}  // namespace xssd::core

#endif  // XSSD_CORE_DESTAGE_MODULE_H_
