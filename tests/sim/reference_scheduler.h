#ifndef XSSD_TESTS_SIM_REFERENCE_SCHEDULER_H_
#define XSSD_TESTS_SIM_REFERENCE_SCHEDULER_H_

// Test-only oracle for sim::Simulator's canonical event order: one
// std::priority_queue ordered by (when, domain id, key), written straight
// from the contract in sim/simulator.h and sharing no code with the timer
// wheel, the event pool or EventFn. The differential tests run the same
// randomized drivers on it and on each Simulator backend and require
// identical execution sequences.
//
// Contract implemented here:
//  - a local event's key is its domain's next sequence number (bit 63
//    clear); a cross event's key is bit 63 | source domain << 48 | the
//    source's issue counter, so locals run before cross arrivals at equal
//    timestamps;
//  - equal timestamps in different domains run lowest domain first;
//  - scheduling from inside an event targets the executing domain, from
//    outside the innermost DomainScope's domain (default 0);
//  - a local `when` in the past is clamped to Now() and counted;
//  - a cross event needs a declared lookahead and `when >= Now() +
//    lookahead`;
//  - RunUntil(deadline) runs events with `when <= deadline`, then leaves
//    Now() at the deadline if it was earlier.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace xssd::sim {

class ReferenceScheduler {
 public:
  using Callback = std::function<void()>;

  static constexpr uint64_t kCrossKeyBit = uint64_t{1} << 63;
  static constexpr int kCrossDomainShift = 48;
  static constexpr SimTime kNoLookahead = ~SimTime{0};

  class DomainScope {
   public:
    DomainScope(ReferenceScheduler* sched, uint32_t domain)
        : sched_(sched), saved_(sched->idle_domain_) {
      Require(domain < sched->domains_.size(), "DomainScope: no such domain");
      sched->idle_domain_ = domain;
    }
    ~DomainScope() { sched_->idle_domain_ = saved_; }
    DomainScope(const DomainScope&) = delete;
    DomainScope& operator=(const DomainScope&) = delete;

   private:
    ReferenceScheduler* sched_;
    uint32_t saved_;
  };

  void ConfigureDomains(uint32_t count) {
    Require(count >= 1 && queue_.empty() && executed_ == 0,
            "ConfigureDomains: fresh scheduler and count >= 1 required");
    domains_.assign(count, DomainState{});
  }

  void DeclareLookahead(SimTime t) {
    if (t < lookahead_) lookahead_ = t;
  }

  SimTime Now() const { return now_; }

  void Schedule(SimTime delay, Callback fn) {
    ScheduleAt(now_ + delay, std::move(fn));
  }

  void ScheduleAt(SimTime when, Callback fn) {
    ScheduleAtIn(in_event_ ? executing_ : idle_domain_, when, std::move(fn));
  }

  void ScheduleIn(uint32_t domain, SimTime delay, Callback fn) {
    ScheduleAtIn(domain, now_ + delay, std::move(fn));
  }

  void ScheduleAtIn(uint32_t domain, SimTime when, Callback fn) {
    Require(domain < domains_.size(), "ScheduleAtIn: no such domain");
    uint64_t key;
    if (in_event_ && domain != executing_) {
      Require(lookahead_ != kNoLookahead, "cross event without lookahead");
      Require(when >= now_ + lookahead_, "cross event below lookahead");
      key = kCrossKeyBit |
            (static_cast<uint64_t>(executing_) << kCrossDomainShift) |
            domains_[executing_].cross_issued++;
      ++cross_scheduled_;
    } else {
      if (when < now_) {
        ++past_clamps_;
        when = now_;
      }
      key = domains_[domain].next_seq++;
    }
    queue_.push(Event{when, domain, key, std::move(fn)});
  }

  void Run() {
    while (!queue_.empty()) Step();
  }

  uint64_t RunUntil(SimTime deadline) {
    uint64_t ran = 0;
    while (!queue_.empty() && queue_.top().when <= deadline) {
      Step();
      ++ran;
    }
    if (now_ < deadline) now_ = deadline;
    return ran;
  }

  bool empty() const { return queue_.empty(); }
  size_t pending_events() const { return queue_.size(); }
  uint64_t executed_events() const { return executed_; }
  uint64_t cross_scheduled_events() const { return cross_scheduled_; }
  uint64_t past_schedule_clamps() const { return past_clamps_; }

 private:
  struct Event {
    SimTime when;
    uint32_t domain;
    uint64_t key;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      if (a.domain != b.domain) return a.domain > b.domain;
      return a.key > b.key;
    }
  };
  struct DomainState {
    uint64_t next_seq = 0;
    uint64_t cross_issued = 0;
  };

  static void Require(bool ok, const char* what) {
    if (ok) return;
    std::fprintf(stderr, "ReferenceScheduler: %s\n", what);
    std::abort();
  }

  void Step() {
    Event ev = queue_.top();  // copy: top() is const, and this is a test
    queue_.pop();
    now_ = ev.when;
    executing_ = ev.domain;
    in_event_ = true;
    ++executed_;
    ev.fn();
    in_event_ = false;
  }

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::vector<DomainState> domains_ = std::vector<DomainState>(1);
  SimTime now_ = 0;
  SimTime lookahead_ = kNoLookahead;
  uint32_t idle_domain_ = 0;
  uint32_t executing_ = 0;
  bool in_event_ = false;
  uint64_t executed_ = 0;
  uint64_t cross_scheduled_ = 0;
  uint64_t past_clamps_ = 0;
};

}  // namespace xssd::sim

#endif  // XSSD_TESTS_SIM_REFERENCE_SCHEDULER_H_
