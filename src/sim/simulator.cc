#include "sim/simulator.h"

#include <algorithm>
#include <barrier>
#include <cassert>
#include <cstdlib>
#include <string_view>
#include <thread>

#include "common/logging.h"
#include "obs/trace.h"

namespace xssd::sim {

thread_local Simulator::Domain* Simulator::tls_domain_ = nullptr;

Simulator::DomainScope::DomainScope(Simulator* sim, uint32_t domain)
    : sim_(sim), saved_(sim->idle_domain_) {
  XSSD_CHECK(domain < sim->domains_.size());
  XSSD_CHECK(!sim->parallel_active_);
  sim->idle_domain_ = sim->domains_[domain].get();
}

Simulator::DomainScope::~DomainScope() { sim_->idle_domain_ = saved_; }

Simulator::~Simulator() {
  if (time_obs_ != nullptr) {
    // Benches run one stack-local simulator per run; tearing it down is the
    // natural "run over" signal for an attached sampler (it closes its
    // final partial window there).
    time_obs_->OnSimulatorTearDown(now_);
    time_obs_ = nullptr;
  }
  for (auto& dp : domains_) {
    dp->wheel.ReleaseAll(&dp->pool);
    while (!dp->inbox.empty()) {
      dp->pool.Release(dp->inbox.top());
      dp->inbox.pop();
    }
  }
}

bool Simulator::ParseBackend(const char* value, SchedulerBackend* out) {
  std::string_view name = value == nullptr ? "" : value;
  if (name != "" && name != "wheel" && name != "parallel") return false;
  *out = name == "parallel" ? SchedulerBackend::kParallel
                            : SchedulerBackend::kWheel;
  return true;
}

Simulator::SchedulerBackend Simulator::DefaultBackend() {
  static const SchedulerBackend cached = [] {
    const char* env = std::getenv("XSSD_SIM_SCHEDULER");
    SchedulerBackend backend;
    if (!ParseBackend(env, &backend)) {
      // A stale value must not silently run the default: a "compare
      // backend A with backend B" script would then pass vacuously.
      XSSD_LOG(kError) << "unknown XSSD_SIM_SCHEDULER=" << env
                       << " (accepted: wheel, parallel)";
      std::abort();
    }
    return backend;
  }();
  return cached;
}

void Simulator::ConfigureDomains(uint32_t count) {
  XSSD_CHECK(count >= 1 && count <= kMaxDomains);
  XSSD_CHECK(!parallel_active_);
  // Partitioning is a construction-time decision: repartitioning mid-run
  // would have to split live queues between clocks that never agreed.
  XSSD_CHECK(executed_events() == 0 && pending_events() == 0 && now_ == 0);
  if (count == domains_.size()) return;
  domains_.clear();
  domains_.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    domains_.push_back(std::make_unique<Domain>(i));
  }
  d0_ = domains_[0].get();
  idle_domain_ = d0_;
  mailboxes_.clear();
}

void Simulator::DeclareLookahead(SimTime t) {
  XSSD_CHECK(t > 0);
  if (t < lookahead_) lookahead_ = t;
}

void Simulator::ScheduleAt(SimTime when, Callback fn) {
  Domain* src = ExecutingDomain();
  ScheduleAtDomain(src != nullptr ? src : idle_domain_, when, std::move(fn));
}

void Simulator::ScheduleAtIn(uint32_t domain, SimTime when, Callback fn) {
  XSSD_CHECK(domain < domains_.size());
  ScheduleAtDomain(domains_[domain].get(), when, std::move(fn));
}

void Simulator::ScheduleAtDomain(Domain* dst, SimTime when, Callback fn) {
  Domain* src = ExecutingDomain();
  if (src != nullptr && src != dst) {
    // Cross-domain event. The lookahead contract is what lets the parallel
    // backend run whole windows without consulting other domains — enforce
    // it on the serial path too, so a model that passes serially is
    // guaranteed to merge identically in parallel.
    XSSD_CHECK(lookahead_ != kNoLookahead);
    XSSD_CHECK(when >= src->now + lookahead_);
    uint64_t key = kCrossKeyBit |
                   (static_cast<uint64_t>(src->id) << kCrossDomainShift) |
                   src->cross_issued++;
    if (trace_) trace_->OnEventScheduled(src->now, when, key);
    if (parallel_active_) {
      mailboxes_[src->id * domains_.size() + dst->id]->Push(when, key,
                                                            std::move(fn));
    } else {
      dst->inbox.push(dst->pool.Acquire(when, key, std::move(fn)));
    }
    return;
  }
  SimTime ref = src != nullptr ? src->now : now_;
  if (when < ref) {
    ++dst->past_clamps;
    // A past timestamp is a latent ordering bug in the calling model
    // (e.g. a fault plan firing "before" the event that armed it): loud
    // in debug builds, clamped-and-counted in release so long campaigns
    // keep running and the gauge surfaces it.
    assert(allow_past_schedules_ &&
           "Simulator::ScheduleAt: `when` is in the past (clamped to Now)");
    when = ref;
  }
  uint64_t key = dst->next_seq++;
  if (trace_) trace_->OnEventScheduled(ref, when, key);
  EventPool::Node* n = dst->pool.Acquire(when, key, std::move(fn));
  if (when < dst->wheel.now()) {
    // The serial merge may have advanced this domain's wheel clock past a
    // cross arrival that was merged in behind it; locals scheduled by that
    // arrival ride the inbox instead (its (when, key) order is exactly
    // the order the wheel would have produced — and a wheel event with
    // this timestamp cannot exist, or the clock could not have passed it).
    dst->inbox.push(n);
  } else {
    dst->wheel.Insert(n);
  }
}

bool Simulator::StepBoundedSingle(SimTime bound) {
  Domain* d = d0_;
  EventPool::Node* n = d->wheel.PopNext(bound);
  if (n == nullptr) return false;
  if (n->when >= obs_due_) NotifyTimeObserver(n->when);
  now_ = n->when;
  ++d->executed;
  if (trace_) trace_->OnEventBegin(n->when, n->seq);
  n->fn();
  if (trace_) trace_->OnEventEnd(n->when, n->seq);
  d->pool.Release(n);
  return true;
}

SimTime Simulator::DomainNextTime(Domain* d, SimTime deadline) {
  SimTime inbox_t =
      d->inbox.empty() ? TimerWheel::kNoEvent : d->inbox.top()->when;
  // The wheel clock must never pass the inbox head (a cross arrival that
  // executes first may schedule locals at its own timestamp) or the caller's
  // horizon — both are Insert targets.
  SimTime wheel_t = d->wheel.PeekNextTime(std::min(inbox_t, deadline));
  SimTime cand = wheel_t;  // <= inbox_t when present: locals win ties
  if (inbox_t <= deadline && inbox_t < cand) cand = inbox_t;
  return cand;
}

bool Simulator::StepBoundedMerge(SimTime bound) {
  Domain* best = nullptr;
  SimTime best_when = 0;
  for (auto& dp : domains_) {
    SimTime t = DomainNextTime(dp.get(), bound);
    if (t == TimerWheel::kNoEvent) continue;
    if (best == nullptr || t < best_when) {  // strict: lowest id wins ties
      best = dp.get();
      best_when = t;
    }
  }
  if (best == nullptr) return false;
  if (best_when >= obs_due_) NotifyTimeObserver(best_when);
  best->now = best_when;
  now_ = best_when;
  ++best->executed;
  executing_ = best;
  // Local-first at equal timestamps: the wheel only yields best_when if a
  // local event is there; otherwise the inbox head is the candidate.
  EventPool::Node* n;
  if (best->wheel.PeekNextTime(best_when) == best_when) {
    n = best->wheel.PopNext(best_when);
  } else {
    n = best->inbox.top();
    best->inbox.pop();
  }
  if (trace_) trace_->OnEventBegin(n->when, n->seq);
  n->fn();
  if (trace_) trace_->OnEventEnd(n->when, n->seq);
  best->pool.Release(n);
  executing_ = nullptr;
  return true;
}

// ── Parallel engine ─────────────────────────────────────────────────────

bool Simulator::ShouldRunParallel() {
  if (backend_ != SchedulerBackend::kParallel || domains_.size() <= 1 ||
      force_serial_) {
    return false;
  }
  if (trace_ == nullptr && time_obs_ == nullptr &&
      lookahead_ != kNoLookahead) {
    return true;
  }
  if (!serial_fallback_warned_) {
    serial_fallback_warned_ = true;
    XSSD_LOG(kWarning) << "parallel scheduler falling back to serial merge ("
                       << (trace_ != nullptr     ? "trace sink attached"
                           : time_obs_ != nullptr ? "time observer attached"
                                                  : "no lookahead declared")
                       << "); results are identical, just single-threaded";
  }
  return false;
}

void Simulator::PlanNextWindow(SimTime deadline) {
  SimTime t_min = TimerWheel::kNoEvent;
  for (auto& dp : domains_) {
    t_min = std::min(t_min, DomainNextTime(dp.get(), deadline));
  }
  if (t_min == TimerWheel::kNoEvent) {
    par_done_ = true;
    return;
  }
  SimTime wend = t_min + lookahead_;
  if (wend < t_min) wend = TimerWheel::kNoEvent;  // saturate on overflow
  window_end_ = wend;
  par_done_ = false;
}

void Simulator::ExecuteWindow(Domain* d, SimTime window_end,
                              SimTime deadline) {
  // Events strictly below the window end are safe: any cross event produced
  // inside the window lands at >= sender_now + lookahead >= window_end.
  SimTime bound = std::min(window_end - 1, deadline);
  for (;;) {
    SimTime inbox_t =
        d->inbox.empty() ? TimerWheel::kNoEvent : d->inbox.top()->when;
    SimTime wheel_t = d->wheel.PeekNextTime(std::min(bound, inbox_t));
    EventPool::Node* n;
    if (wheel_t != TimerWheel::kNoEvent) {  // <= inbox_t: locals win ties
      n = d->wheel.PopNext(wheel_t);
    } else if (inbox_t <= bound) {
      n = d->inbox.top();
      d->inbox.pop();
    } else {
      break;
    }
    d->now = n->when;
    ++d->executed;
    n->fn();
    d->pool.Release(n);
  }
}

void Simulator::DrainMailboxes() {
  const size_t n = domains_.size();
  for (size_t src = 0; src < n; ++src) {
    for (size_t dst = 0; dst < n; ++dst) {
      Domain* target = domains_[dst].get();
      mailboxes_[src * n + dst]->Drain(
          [&](SimTime when, uint64_t key, EventFn&& fn) {
            target->inbox.push(target->pool.Acquire(when, key, std::move(fn)));
          });
    }
  }
}

uint64_t Simulator::RunParallel(SimTime deadline) {
  const uint32_t n = static_cast<uint32_t>(domains_.size());
  if (mailboxes_.size() != static_cast<size_t>(n) * n) {
    mailboxes_.clear();
    for (size_t i = 0; i < static_cast<size_t>(n) * n; ++i) {
      mailboxes_.push_back(std::make_unique<SpscMailbox>());
    }
  }
  stopped_.store(false, std::memory_order_relaxed);
  const uint64_t executed_before = executed_events();
  PlanNextWindow(deadline);
  parallel_active_ = true;
  std::barrier<> start_gate(n);
  std::barrier<> end_gate(n);
  // Worker d executes its domain's share of each lockstep window. The main
  // thread doubles as domain 0's worker and as the coordinator: strictly
  // between a window's end barrier and the next start barrier — while every
  // other worker idles — it drains the mailboxes into the target inboxes
  // and plans the next window, so those phases need no further locking.
  auto worker = [&](Domain* d, bool coordinator) {
    tls_domain_ = d;
    for (;;) {
      start_gate.arrive_and_wait();
      if (par_done_) break;
      ExecuteWindow(d, window_end_, deadline);
      end_gate.arrive_and_wait();
      if (coordinator) {
        ++parallel_windows_;
        DrainMailboxes();
        if (stopped_.load(std::memory_order_relaxed)) {
          par_done_ = true;  // deterministic: the window already completed
        } else {
          PlanNextWindow(deadline);
        }
      }
    }
    tls_domain_ = nullptr;
  };
  std::vector<std::thread> threads;
  threads.reserve(n - 1);
  for (uint32_t i = 1; i < n; ++i) {
    threads.emplace_back(worker, domains_[i].get(), false);
  }
  worker(d0_, true);
  for (auto& t : threads) t.join();
  parallel_active_ = false;

  if (!stopped_.load(std::memory_order_relaxed) &&
      deadline != TimerWheel::kNoEvent) {
    for (auto& dp : domains_) {
      dp->wheel.AdvanceTo(deadline);
      if (dp->now < deadline) dp->now = deadline;
    }
    now_ = std::max(now_, deadline);
  } else {
    for (auto& dp : domains_) now_ = std::max(now_, dp->now);
  }
  return executed_events() - executed_before;
}

// ── Run loops ───────────────────────────────────────────────────────────

void Simulator::Run() {
  if (ShouldRunParallel()) {
    RunParallel(TimerWheel::kNoEvent);
    return;
  }
  stopped_.store(false, std::memory_order_relaxed);
  while (!stopped_.load(std::memory_order_relaxed) &&
         StepBounded(~SimTime{0})) {
  }
}

uint64_t Simulator::RunUntil(SimTime deadline) {
  if (ShouldRunParallel()) return RunParallel(deadline);
  stopped_.store(false, std::memory_order_relaxed);
  uint64_t ran = 0;
  while (!stopped_.load(std::memory_order_relaxed) && StepBounded(deadline)) {
    ++ran;
  }
  if (!stopped_.load(std::memory_order_relaxed) && now_ < deadline) {
    now_ = deadline;
    for (auto& dp : domains_) {
      dp->wheel.AdvanceTo(deadline);
      if (dp->now < deadline) dp->now = deadline;
    }
  }
  return ran;
}

bool Simulator::RunWhile(const std::function<bool()>& done) {
  stopped_.store(false, std::memory_order_relaxed);
  while (!done()) {
    if (stopped_.load(std::memory_order_relaxed)) return false;
    if (!StepBounded(~SimTime{0})) return false;
  }
  return true;
}

}  // namespace xssd::sim
