#ifndef XSSD_SIM_SIMULATOR_H_
#define XSSD_SIM_SIMULATOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "sim/event_pool.h"
#include "sim/parallel.h"
#include "sim/time.h"
#include "sim/timer_wheel.h"

namespace xssd::obs {
class TraceSink;
}  // namespace xssd::obs

namespace xssd::sim {

/// \brief Passive observer of virtual-time advancement (the time-series
/// sampler in obs/timeseries.h).
///
/// Attached via Simulator::set_time_observer() with a first due time. The
/// simulator calls OnTimeAdvance(when) immediately *before* executing any
/// event whose timestamp is >= the current due time; the observer snapshots
/// whatever it watches and returns the next due time. Because the observer
/// never appears in the event queue, never advances the clock, and must not
/// schedule events or consume randomness, an observed run executes the
/// exact same event sequence as an unobserved one — zero perturbation by
/// construction (the obs CI gate relies on this). An attached observer
/// forces the parallel backend into its serial merge, like a trace sink.
class TimeObserver {
 public:
  virtual ~TimeObserver() = default;

  /// The next event to execute carries timestamp `when` (>= the due time
  /// this observer last returned). Returns the new due time; return
  /// ~SimTime{0} to stop being called.
  virtual SimTime OnTimeAdvance(SimTime when) = 0;

  /// The simulator is being destroyed (benches keep per-run stack-local
  /// simulators); `last_now` is its final virtual time. The observer must
  /// not touch the simulator again.
  virtual void OnSimulatorTearDown(SimTime last_now) { (void)last_now; }
};

/// \brief Discrete-event simulation core: a virtual clock plus an ordered
/// event queue.
///
/// Every hardware component in the library (PCIe links, flash dies, PM
/// controllers, NTB hops) is modeled as callbacks scheduled on one Simulator.
/// Events at equal timestamps run in scheduling (FIFO) order, which makes
/// runs fully deterministic.
///
/// Events are queued per domain in a hierarchical timer wheel of pooled
/// nodes (O(1) schedule/fire, allocation-free in steady state). Two
/// backends execute them in the canonical order defined below:
///  - kWheel (default): one thread, serial merge of the domain queues.
///  - kParallel: the same queues plus conservative parallel execution of
///    Run()/RunUntil() when the model is partitioned into more than one
///    domain (one worker thread per simulated PCIe fabric; see below).
/// Select per-process with XSSD_SIM_SCHEDULER=wheel|parallel or
/// per-instance via the constructor. The differential tests check both
/// against an independent priority-queue reference of the canonical order
/// (tests/sim/reference_scheduler.h).
///
/// ## Domains and the parallel backend
///
/// A model may partition itself into up to kMaxDomains *domains* — disjoint
/// state islands (in X-SSD: one per PCIe fabric) that interact only through
/// explicitly declared cross-domain edges (the NTB link). Events scheduled
/// while an event runs stay in the executing domain; ScheduleAtIn/ScheduleIn
/// target another domain and are *cross events*, which must respect the
/// declared lookahead: a cross event may not land earlier than
/// `Now() + lookahead()`, where the lookahead is the minimum latency of any
/// cross-domain hop (DeclareLookahead(), min-accumulating — the NTB adapter
/// declares its hop latency at construction).
///
/// The canonical order is total and backend-independent: events execute in
/// ascending (when, domain id) order, and within one (when, domain) in
/// ascending key order, where local events carry per-domain sequence numbers
/// (assigned at schedule time, always below 1<<63) and cross events carry
/// sender-stamped keys (bit 63 set, then source domain, then the source's
/// issue counter) — so locals run before cross arrivals at equal timestamps,
/// and cross arrivals run in sender order, independent of thread timing.
///
/// Under kParallel with >1 domain, Run()/RunUntil() execute in lockstep
/// windows: each worker drains its domain's events with timestamps below
/// `T_min + lookahead` (T_min = earliest pending event across all domains);
/// cross events travel through bounded SPSC mailboxes and are merged into
/// the target domain's inbox at the window barrier. The lookahead contract
/// guarantees any cross event produced inside a window lands at or beyond
/// the window end, so no worker can receive work for a time it already
/// passed — the per-domain event sequence (and therefore every metric and
/// snapshot) is byte-identical to the serial backend. RunWhile(), attached
/// trace sinks, or a missing lookahead declaration fall back to an
/// equivalent serial merge of the per-domain queues. Stop() under parallel
/// execution takes effect at the current window boundary (the window always
/// completes, keeping the stop deterministic).
class Simulator {
  struct Domain;  // private; forward-declared for DomainScope below

 public:
  /// Move-only callable with a 48-byte inline capture buffer; converts
  /// implicitly from lambdas, function pointers and std::function.
  using Callback = EventFn;

  /// kParallel keeps the value 2 it had next to the removed heap backend,
  /// so value-printed test parameters keep their names.
  enum class SchedulerBackend { kWheel = 0, kParallel = 2 };

  /// Maximum number of domains (fabric partitions) per simulator.
  static constexpr uint32_t kMaxDomains = 16;
  /// Cross-event keys set bit 63 so they order after every local event of
  /// the same (when, domain); bits [48,63) carry the source domain.
  static constexpr uint64_t kCrossKeyBit = uint64_t{1} << 63;
  static constexpr int kCrossDomainShift = 48;
  /// lookahead() value before any DeclareLookahead() call.
  static constexpr SimTime kNoLookahead = ~SimTime{0};

  Simulator() : Simulator(DefaultBackend()) {}
  explicit Simulator(SchedulerBackend backend) : backend_(backend) {
    domains_.push_back(std::make_unique<Domain>(0));
    d0_ = domains_[0].get();
    idle_domain_ = d0_;
  }
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Backend named by the XSSD_SIM_SCHEDULER environment variable, read
  /// once per process via ParseBackend; any unaccepted value aborts.
  static SchedulerBackend DefaultBackend();

  /// Parses an XSSD_SIM_SCHEDULER value: unset (nullptr), empty or "wheel"
  /// is kWheel, "parallel" kParallel; anything else returns false.
  static bool ParseBackend(const char* value, SchedulerBackend* out);

  /// While alive, idle-context scheduling (calls made outside any event —
  /// setup code, blocking admin pumps) targets `domain` instead of domain 0,
  /// so a node's initialization timers land in its own partition. Nests;
  /// does not affect scheduling from inside events (those stay in the
  /// executing domain).
  class DomainScope {
   public:
    DomainScope(Simulator* sim, uint32_t domain);
    ~DomainScope();
    DomainScope(const DomainScope&) = delete;
    DomainScope& operator=(const DomainScope&) = delete;

   private:
    Simulator* sim_;
    Domain* saved_;
  };

  SchedulerBackend backend() const { return backend_; }

  /// Current virtual time — of the executing domain while an event runs,
  /// of the completed run otherwise.
  SimTime Now() const {
    if (parallel_active_) return tls_domain_->now;
    return executing_ != nullptr ? executing_->now : now_;
  }

  // ── Domain partitioning ───────────────────────────────────────────────

  /// Partition the simulator into `count` domains (1..kMaxDomains). Must be
  /// called on a fresh simulator, before anything is scheduled. A
  /// single-domain simulator (the default) behaves exactly as the classic
  /// serial core.
  void ConfigureDomains(uint32_t count);

  uint32_t domain_count() const {
    return static_cast<uint32_t>(domains_.size());
  }

  /// Domain of the currently executing event (outside execution: the active
  /// DomainScope's domain, or 0).
  uint32_t current_domain() const {
    if (parallel_active_) return tls_domain_->id;
    if (executing_ != nullptr) return executing_->id;
    return idle_domain_->id;
  }

  /// True while an event callback is running (any thread).
  bool in_event() const {
    return parallel_active_ ? tls_domain_ != nullptr : executing_ != nullptr;
  }

  /// Force serial execution even on the parallel backend. Models that
  /// attach observers shared across domains (a SpanRecorder, a debugger
  /// hook) set this: results are identical, just single-threaded.
  void set_force_serial(bool force) { force_serial_ = force; }

  /// Declare that cross-domain events are always scheduled at least `t` ns
  /// into the future (min-accumulates: the effective lookahead is the
  /// smallest declared bound). Cross-domain modules (the NTB adapter)
  /// declare their hop latency here; without a declaration cross-domain
  /// scheduling aborts and the parallel backend falls back to serial merge.
  void DeclareLookahead(SimTime t);

  SimTime lookahead() const { return lookahead_; }

  // ── Scheduling ────────────────────────────────────────────────────────

  /// Schedule `fn` to run `delay` nanoseconds from now, in the executing
  /// domain (domain 0 outside execution).
  void Schedule(SimTime delay, Callback fn) {
    ScheduleAt(Now() + delay, std::move(fn));
  }

  /// Schedule `fn` at an absolute virtual time in the executing domain.
  /// A `when` in the past is clamped to Now() — the event fires next, after
  /// already-queued events at the current timestamp — and counted in
  /// past_schedule_clamps() so fault-plan and workload authors can see the
  /// latent ordering bug. In debug builds the clamp aborts unless
  /// set_allow_past_schedules(true).
  void ScheduleAt(SimTime when, Callback fn);

  /// Schedule into an explicit domain. From inside an event of another
  /// domain this is a *cross-domain* event: `when` must be at least
  /// Now() + lookahead() (checked), and the event is stamped with the
  /// sender's issue counter so merged order is deterministic. Outside
  /// execution it simply seeds the target domain (workload setup).
  void ScheduleAtIn(uint32_t domain, SimTime when, Callback fn);

  /// Convenience: ScheduleAtIn(domain, Now() + delay, fn).
  void ScheduleIn(uint32_t domain, SimTime delay, Callback fn) {
    ScheduleAtIn(domain, Now() + delay, std::move(fn));
  }

  // ── Running ───────────────────────────────────────────────────────────

  /// Run until the event queue drains (or Stop() is called).
  void Run();

  /// Run events with timestamp <= `deadline`; afterwards Now() == deadline
  /// (unless stopped earlier). Returns the number of events executed.
  uint64_t RunUntil(SimTime deadline);

  /// Convenience: RunUntil(Now() + duration).
  uint64_t RunFor(SimTime duration) { return RunUntil(Now() + duration); }

  /// Drain events until `done` returns true (checked after each event) or
  /// the queue empties. Returns true if the predicate was satisfied.
  /// Always serial (the predicate is inherently sequential).
  bool RunWhile(const std::function<bool()>& done);

  /// Abort Run/RunUntil after the current event returns (serial), or at
  /// the current lockstep window boundary (parallel).
  void Stop() { stopped_.store(true, std::memory_order_relaxed); }

  // ── Introspection ─────────────────────────────────────────────────────

  bool empty() const { return pending_events() == 0; }

  /// Total pending events across domains. Not callable while a parallel
  /// run is in flight (worker queues are in motion); per-domain benches
  /// keep their own counters instead.
  size_t pending_events() const {
    size_t total = 0;
    for (const auto& d : domains_) total += d->wheel.size() + d->inbox.size();
    return total;
  }

  size_t domain_pending_events(uint32_t domain) const {
    const Domain& d = *domains_[domain];
    return d.wheel.size() + d.inbox.size();
  }

  uint64_t executed_events() const {
    uint64_t total = 0;
    for (const auto& d : domains_) total += d->executed;
    return total;
  }

  /// Number of ScheduleAt() calls whose `when` was in the past and got
  /// clamped to Now(). Campaign benches export this as a gauge.
  uint64_t past_schedule_clamps() const {
    uint64_t total = 0;
    for (const auto& d : domains_) total += d->past_clamps;
    return total;
  }

  /// Cross-domain events issued (all source domains).
  uint64_t cross_scheduled_events() const {
    uint64_t total = 0;
    for (const auto& d : domains_) total += d->cross_issued;
    return total;
  }

  /// Lockstep windows executed by the parallel backend.
  uint64_t parallel_windows() const { return parallel_windows_; }

  /// Cross events that overflowed a mailbox ring into its spill vector.
  uint64_t mailbox_spills() const {
    uint64_t total = 0;
    for (const auto& m : mailboxes_) total += m->spilled();
    return total;
  }

  /// Permit past-timestamp scheduling (still clamped and counted) without
  /// the debug-build abort. Intended for tests that exercise the clamp.
  void set_allow_past_schedules(bool allow) { allow_past_schedules_ = allow; }

  /// Event-pool allocation stats for one domain. kernel_bench reports these
  /// as the allocs/event trajectory.
  const EventPool& event_pool(uint32_t domain = 0) const {
    return domains_[domain]->pool;
  }
  const TimerWheel& timer_wheel(uint32_t domain = 0) const {
    return domains_[domain]->wheel;
  }

  /// Attach an observability sink (nullptr detaches). The simulator calls
  /// it on every schedule/fire with virtual timestamps; see obs/trace.h.
  /// Not owned; must outlive the simulator or be detached first. An
  /// attached sink forces serial execution on the parallel backend.
  void set_trace_sink(obs::TraceSink* sink) { trace_ = sink; }
  obs::TraceSink* trace_sink() const { return trace_; }

  /// Attach a passive time observer (nullptr detaches): it is called back
  /// just before the first event at or beyond `first_due` executes, and
  /// thereafter per the due times it returns. Not owned; must outlive the
  /// simulator or detach first (the destructor calls OnSimulatorTearDown).
  /// Costs one predictable branch per event when detached; forces the
  /// parallel backend into its (identical) serial merge when attached.
  void set_time_observer(TimeObserver* obs, SimTime first_due) {
    time_obs_ = obs;
    obs_due_ = obs == nullptr ? ~SimTime{0} : first_due;
  }
  TimeObserver* time_observer() const { return time_obs_; }

 private:
  struct NodeLater {
    bool operator()(const EventPool::Node* a, const EventPool::Node* b) const {
      if (a->when != b->when) return a->when > b->when;
      return a->seq > b->seq;
    }
  };

  /// One fabric partition: private clock, queues and pool. Single-domain
  /// simulators run entirely on domain 0.
  struct Domain {
    explicit Domain(uint32_t id_in) : id(id_in) {}
    const uint32_t id;
    SimTime now = 0;
    uint64_t next_seq = 0;      // local event keys (bit 63 always clear)
    uint64_t cross_issued = 0;  // outgoing cross-event stamp counter
    uint64_t executed = 0;
    uint64_t past_clamps = 0;
    EventPool pool;
    TimerWheel wheel;
    /// Cross arrivals: kept out of the wheel because bucket FIFO order must
    /// equal key order for locals; merged key-ordered at execution.
    std::priority_queue<EventPool::Node*, std::vector<EventPool::Node*>,
                        NodeLater>
        inbox;
  };

  /// Domain whose event is executing on this thread (nullptr when idle).
  Domain* ExecutingDomain() const {
    if (parallel_active_) return tls_domain_;
    return executing_;
  }

  void ScheduleAtDomain(Domain* dst, SimTime when, Callback fn);

  /// Pops and runs the earliest event if its timestamp is <= `bound`.
  /// Returns false (running nothing) otherwise.
  bool StepBounded(SimTime bound) {
    return domains_.size() == 1 ? StepBoundedSingle(bound)
                                : StepBoundedMerge(bound);
  }
  bool StepBoundedSingle(SimTime bound);  // classic single-domain hot path
  bool StepBoundedMerge(SimTime bound);   // serial merge of domain queues

  /// Out-of-line slow path of the per-event observer check: `when` has
  /// reached the observer's due time.
  void NotifyTimeObserver(SimTime when) {
    // `when >= obs_due_` with no observer only happens for an event at
    // literally ~0 ns; keep that degenerate case from dereferencing null.
    if (time_obs_ == nullptr) return;
    obs_due_ = time_obs_->OnTimeAdvance(when);
  }

  /// Earliest pending timestamp of `d` that is <= `deadline`, or
  /// TimerWheel::kNoEvent. May advance d's wheel clock (never past the
  /// inbox head or `deadline`).
  SimTime DomainNextTime(Domain* d, SimTime deadline);

  // Parallel engine (simulator.cc).
  bool ShouldRunParallel();
  uint64_t RunParallel(SimTime deadline);
  void ExecuteWindow(Domain* d, SimTime window_end, SimTime deadline);
  void DrainMailboxes();
  void PlanNextWindow(SimTime deadline);

  SchedulerBackend backend_;
  SimTime now_ = 0;
  SimTime lookahead_ = kNoLookahead;
  std::atomic<bool> stopped_{false};
  bool allow_past_schedules_ = false;
  bool force_serial_ = false;
  bool serial_fallback_warned_ = false;
  obs::TraceSink* trace_ = nullptr;
  TimeObserver* time_obs_ = nullptr;
  /// Next virtual time at which time_obs_ wants a callback; ~0 when no
  /// observer is attached, so the hot-path `when >= obs_due_` check is a
  /// single always-false branch in the common case.
  SimTime obs_due_ = ~SimTime{0};

  std::vector<std::unique_ptr<Domain>> domains_;
  Domain* d0_ = nullptr;           // domains_[0], cached for the hot path
  Domain* executing_ = nullptr;    // serial paths only
  Domain* idle_domain_ = nullptr;  // DomainScope target; defaults to d0_

  // Parallel run state. `parallel_active_` is written only before worker
  // spawn / after join; `window_end_`/`par_done_` only by the coordinator
  // between barriers (the barriers order those writes against the workers).
  bool parallel_active_ = false;
  SimTime window_end_ = 0;
  bool par_done_ = false;
  uint64_t parallel_windows_ = 0;
  std::vector<std::unique_ptr<SpscMailbox>> mailboxes_;  // [src * n + dst]

  static thread_local Domain* tls_domain_;
};

}  // namespace xssd::sim

#endif  // XSSD_SIM_SIMULATOR_H_
