// Multi-domain scheduler tests: the conservative parallel backend against
// the serial wheel merge and the independent reference queue
// (reference_scheduler.h). The contract under test: with fabrics
// partitioned into domains and a declared NTB lookahead, every domain
// executes exactly the same local (when, id) sequence on every backend —
// cross-domain events included — and the adversarial edges (cross arrival
// exactly at the lookahead boundary, zero-delay bursts scheduled from a
// cross arrival, mailbox ring overflow, Stop() mid-run, trace-sink
// fallback) change nothing.

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "reference_scheduler.h"

namespace xssd::sim {
namespace {

using Backend = Simulator::SchedulerBackend;

constexpr uint32_t kDomains = 4;
constexpr SimTime kLookahead = 1000;

// Per-domain execution log. Under the parallel backend each entry vector is
// appended only by its own worker thread; a global interleaving is not
// observable (and is not the contract) — the contract is that every domain
// sees the same local sequence as the serial merge produces.
struct DomainLog {
  Rng rng{0};
  std::vector<std::pair<SimTime, uint64_t>> fired;
  uint64_t budget = 0;
  uint64_t next_id = 0;
  uint64_t cross_sent = 0;
};

template <typename Sim>
struct World {
  Sim* sim = nullptr;
  std::array<DomainLog, kDomains> dom;

  void Record(uint32_t d, uint64_t id) {
    dom[d].fired.push_back({sim->Now(), id});
  }
};

template <typename Sim>
struct Tail {
  World<Sim>* w;
  uint32_t d;
  uint64_t id;
  void operator()() const { w->Record(d, id); }
};

template <typename Sim>
struct CrossArrival {
  World<Sim>* w;
  uint32_t d;
  uint64_t id;
  void operator()() const {
    w->Record(d, id);
    // A zero-delay local scheduled from a cross arrival: in the serial
    // merge the target's wheel clock may already sit past this timestamp
    // (the arrival came through the inbox), so this exercises the
    // behind-the-clock insert path.
    w->sim->Schedule(0, Tail<Sim>{w, d, id + 1});
  }
};

template <typename Sim>
struct Chain {
  World<Sim>* w;
  uint32_t d;
  void operator()() const {
    DomainLog& log = w->dom[d];
    w->Record(d, log.next_id++);
    if (log.budget == 0) return;
    --log.budget;
    uint64_t pick = log.rng.Uniform(100);
    if (pick < 10) {
      // Same-timestamp burst: zero-delay sibling with a later seq.
      w->sim->Schedule(0, Tail<Sim>{w, d, log.next_id++});
    }
    if (pick >= 90) {
      uint32_t peer = (d + 1) % kDomains;
      // Sometimes exactly the lookahead — the tightest legal cross edge.
      SimTime hop = kLookahead + (pick == 99 ? 0 : log.rng.Uniform(800));
      uint64_t cross_id =
          1000000000ull * (d + 1) + 2 * log.cross_sent++;
      w->sim->ScheduleIn(peer, hop, CrossArrival<Sim>{w, peer, cross_id});
    }
    w->sim->Schedule(log.rng.Uniform(3000), Chain<Sim>{w, d});
  }
};

struct RunResult {
  std::array<std::vector<std::pair<SimTime, uint64_t>>, kDomains> fired;
  SimTime final_now = 0;
  uint64_t executed = 0;
  uint64_t cross = 0;
};

// Runs the random multi-domain workload on `sim` (a Simulator of any
// backend, or the ReferenceScheduler).
template <typename Sim>
RunResult RunWorkload(Sim& sim, uint64_t seed,
                      bool stuttered_run_until = false) {
  sim.ConfigureDomains(kDomains);
  sim.DeclareLookahead(kLookahead);
  World<Sim> w;
  w.sim = &sim;
  for (uint32_t d = 0; d < kDomains; ++d) {
    w.dom[d].rng = Rng(seed * 100 + d);
    w.dom[d].budget = 3000;
    typename Sim::DomainScope scope(&sim, d);
    for (int i = 0; i < 32; ++i) {
      sim.Schedule(w.dom[d].rng.Uniform(2000), Chain<Sim>{&w, d});
    }
  }
  if (stuttered_run_until) {
    // Interleave bounded segments with the free-running drain so window
    // planning restarts from arbitrary mid-schedule states.
    SimTime t = 0;
    Rng steps(seed ^ 0x5eed);
    for (int i = 0; i < 6 && !sim.empty(); ++i) {
      t += steps.Uniform(200000) + 1;
      sim.RunUntil(t);
    }
  }
  sim.Run();
  RunResult out;
  for (uint32_t d = 0; d < kDomains; ++d) out.fired[d] = w.dom[d].fired;
  out.final_now = sim.Now();
  out.executed = sim.executed_events();
  out.cross = sim.cross_scheduled_events();
  return out;
}

void ExpectSameResult(const RunResult& a, const RunResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.final_now, b.final_now) << label;
  EXPECT_EQ(a.executed, b.executed) << label;
  EXPECT_EQ(a.cross, b.cross) << label;
  for (uint32_t d = 0; d < kDomains; ++d) {
    ASSERT_EQ(a.fired[d].size(), b.fired[d].size())
        << label << " domain " << d;
    for (size_t i = 0; i < a.fired[d].size(); ++i) {
      ASSERT_EQ(a.fired[d][i], b.fired[d][i])
          << label << " domain " << d << " event " << i;
    }
  }
}

RunResult RunBackend(Backend backend, uint64_t seed, bool stuttered = false) {
  Simulator sim(backend);
  return RunWorkload(sim, seed, stuttered);
}

TEST(ParallelSchedulerTest, MatchesSerialBackendsOnRandomMultiDomainRuns) {
  for (uint64_t seed : {1u, 2u, 5u}) {
    ReferenceScheduler ref_sim;
    auto ref = RunWorkload(ref_sim, seed);
    auto wheel = RunBackend(Backend::kWheel, seed);
    auto par = RunBackend(Backend::kParallel, seed);
    ASSERT_GT(ref.cross, 0u) << "workload sent no cross events";
    ExpectSameResult(ref, wheel, "ref-vs-wheel seed " + std::to_string(seed));
    ExpectSameResult(ref, par, "ref-vs-par seed " + std::to_string(seed));
  }
}

TEST(ParallelSchedulerTest, MatchesSerialAcrossStutteredRunUntilSegments) {
  for (uint64_t seed : {3u, 11u}) {
    auto wheel = RunBackend(Backend::kWheel, seed, /*stuttered=*/true);
    auto par = RunBackend(Backend::kParallel, seed, /*stuttered=*/true);
    ExpectSameResult(wheel, par, "stuttered seed " + std::to_string(seed));
  }
}

// A cross event landing exactly at sender_now + lookahead, tied with a
// pre-existing local at the same timestamp: locals win the tie on every
// backend, and the arrival time is exact.
TEST(ParallelSchedulerTest, CrossAtExactLookaheadBoundaryTiesLocalFirst) {
  for (Backend backend : {Backend::kWheel, Backend::kParallel}) {
    Simulator sim(backend);
    sim.ConfigureDomains(2);
    sim.DeclareLookahead(kLookahead);
    std::vector<std::pair<SimTime, int>> got;  // only domain-1 events record
    {
      Simulator::DomainScope scope(&sim, 1);
      sim.ScheduleAt(1500, [&]() { got.push_back({sim.Now(), 1}); });
    }
    {
      Simulator::DomainScope scope(&sim, 0);
      sim.ScheduleAt(500, [&]() {
        sim.ScheduleIn(1, kLookahead,
                       [&]() { got.push_back({sim.Now(), 2}); });
      });
    }
    sim.Run();
    ASSERT_EQ(got.size(), 2u) << "backend " << static_cast<int>(backend);
    EXPECT_EQ(got[0], (std::pair<SimTime, int>{1500, 1}));
    EXPECT_EQ(got[1], (std::pair<SimTime, int>{1500, 2}));
    EXPECT_EQ(sim.cross_scheduled_events(), 1u);
  }
}

// Zero-delay bursts scheduled from inside a cross arrival keep FIFO order
// at one timestamp on every backend.
TEST(ParallelSchedulerTest, ZeroDelayBurstFromCrossArrivalKeepsFifo) {
  for (Backend backend : {Backend::kWheel, Backend::kParallel}) {
    Simulator sim(backend);
    sim.ConfigureDomains(2);
    sim.DeclareLookahead(kLookahead);
    std::vector<int> order;
    {
      Simulator::DomainScope scope(&sim, 0);
      sim.ScheduleAt(100, [&]() {
        sim.ScheduleIn(1, kLookahead + 50, [&]() {
          order.push_back(0);
          for (int b = 1; b <= 4; ++b) {
            sim.Schedule(0, [&order, b]() { order.push_back(b); });
          }
        });
      });
    }
    sim.Run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}))
        << "backend " << static_cast<int>(backend);
    EXPECT_EQ(sim.Now(), 1150u);
  }
}

// More cross events in one window than the SPSC mailbox ring holds: the
// spill path must preserve order and the run must match the serial wheel.
TEST(ParallelSchedulerTest, MailboxRingOverflowSpillsWithoutReordering) {
  constexpr int kBurst = 1500;  // ring capacity is 1024
  auto run = [&](Backend backend, uint64_t* spills) {
    Simulator sim(backend);
    sim.ConfigureDomains(2);
    sim.DeclareLookahead(kLookahead);
    std::vector<std::pair<SimTime, int>> got;
    {
      Simulator::DomainScope scope(&sim, 0);
      sim.ScheduleAt(10, [&]() {
        for (int i = 0; i < kBurst; ++i) {
          sim.ScheduleIn(1, kLookahead + i % 7, [&got, i, &sim]() {
            got.push_back({sim.Now(), i});
          });
        }
      });
    }
    sim.Run();
    if (spills != nullptr) *spills = sim.mailbox_spills();
    return got;
  };
  uint64_t spills = 0;
  auto wheel = run(Backend::kWheel, nullptr);
  auto par = run(Backend::kParallel, &spills);
  ASSERT_EQ(wheel.size(), static_cast<size_t>(kBurst));
  ASSERT_EQ(par.size(), wheel.size());
  for (size_t i = 0; i < wheel.size(); ++i) {
    ASSERT_EQ(wheel[i], par[i]) << "event " << i;
  }
  EXPECT_GT(spills, 0u) << "burst never overflowed the mailbox ring";
}

// Stop() under the parallel backend takes effect at a window boundary —
// deterministically — and resuming completes the schedule with the same
// per-domain sequences the serial wheel produces.
TEST(ParallelSchedulerTest, StopIsDeterministicAndResumable) {
  constexpr uint64_t kSeed = 9;
  auto run_with_stop = [&](Backend backend, uint64_t* after_stop) {
    Simulator sim(backend);
    sim.ConfigureDomains(kDomains);
    sim.DeclareLookahead(kLookahead);
    World<Simulator> w;
    w.sim = &sim;
    for (uint32_t d = 0; d < kDomains; ++d) {
      w.dom[d].rng = Rng(kSeed * 100 + d);
      w.dom[d].budget = 800;
      Simulator::DomainScope scope(&sim, d);
      for (int i = 0; i < 16; ++i) {
        sim.Schedule(w.dom[d].rng.Uniform(2000), Chain<Simulator>{&w, d});
      }
    }
    {
      Simulator::DomainScope scope(&sim, 2);
      sim.ScheduleAt(50000, [&]() { sim.Stop(); });
    }
    sim.Run();  // halts at the stop (serial: immediately; parallel: at the
                // enclosing window boundary — both deterministic)
    if (after_stop != nullptr) *after_stop = sim.executed_events();
    sim.Run();  // resume to drain
    RunResult out;
    for (uint32_t d = 0; d < kDomains; ++d) out.fired[d] = w.dom[d].fired;
    out.final_now = sim.Now();
    out.executed = sim.executed_events();
    out.cross = sim.cross_scheduled_events();
    return out;
  };
  uint64_t stop_a = 0, stop_b = 0;
  auto par_a = run_with_stop(Backend::kParallel, &stop_a);
  auto par_b = run_with_stop(Backend::kParallel, &stop_b);
  EXPECT_EQ(stop_a, stop_b) << "parallel stop point is nondeterministic";
  auto wheel = run_with_stop(Backend::kWheel, nullptr);
  ExpectSameResult(wheel, par_a, "stop/resume");
  ExpectSameResult(par_a, par_b, "stop/resume repeat");
}

// Attaching a trace sink pins the parallel backend to its serial merge
// (span/trace sinks are not thread-safe); the run must complete without
// spinning up windows and still match the wheel.
class CountingSink : public obs::TraceSink {
 public:
  void OnEventScheduled(SimTime, SimTime, uint64_t) override { ++scheduled_; }
  void OnEventBegin(SimTime, uint64_t) override { ++begun_; }
  void OnEventEnd(SimTime, uint64_t) override {}
  void OnInstant(const char*, SimTime) override {}
  void OnCounterSample(const char*, SimTime, double) override {}
  uint64_t scheduled_ = 0;
  uint64_t begun_ = 0;
};

TEST(ParallelSchedulerTest, TraceSinkForcesSerialFallback) {
  Simulator sim(Backend::kParallel);
  sim.ConfigureDomains(2);
  sim.DeclareLookahead(kLookahead);
  CountingSink sink;
  sim.set_trace_sink(&sink);
  std::vector<int> order;
  {
    Simulator::DomainScope scope(&sim, 0);
    sim.ScheduleAt(10, [&]() {
      order.push_back(0);
      sim.ScheduleIn(1, kLookahead, [&]() { order.push_back(1); });
    });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(sim.parallel_windows(), 0u) << "workers ran despite trace sink";
  EXPECT_EQ(sink.begun_, 2u);
  EXPECT_EQ(sink.scheduled_, 2u);
}

TEST(ParallelSchedulerTest, IdleSchedulingTargetsScopedDomain) {
  Simulator sim(Backend::kParallel);
  sim.ConfigureDomains(3);
  sim.DeclareLookahead(kLookahead);
  uint32_t ran_in = 99;
  {
    Simulator::DomainScope scope(&sim, 2);
    sim.Schedule(5, [&]() { ran_in = sim.current_domain(); });
  }
  EXPECT_EQ(sim.domain_pending_events(2), 1u);
  EXPECT_EQ(sim.domain_pending_events(0), 0u);
  sim.Run();
  EXPECT_EQ(ran_in, 2u);
}

// The lookahead contract is load-bearing: a cross-domain event closer than
// the declared lookahead would let a worker's past change, so the
// scheduler refuses it outright (on every backend — the serial merges
// enforce the same contract the workers depend on).
TEST(ParallelSchedulerDeathTest, CrossEventBelowLookaheadAborts) {
  EXPECT_DEATH(
      {
        Simulator sim(Backend::kWheel);
        sim.ConfigureDomains(2);
        sim.DeclareLookahead(kLookahead);
        Simulator::DomainScope scope(&sim, 0);
        sim.ScheduleAt(100, [&]() {
          sim.ScheduleIn(1, kLookahead / 2, []() {});
        });
        sim.Run();
      },
      "CHECK failed");
}

TEST(ParallelSchedulerDeathTest, CrossEventWithoutLookaheadAborts) {
  EXPECT_DEATH(
      {
        Simulator sim(Backend::kWheel);
        sim.ConfigureDomains(2);
        Simulator::DomainScope scope(&sim, 0);
        sim.ScheduleAt(100, [&]() { sim.ScheduleIn(1, 5000, []() {}); });
        sim.Run();
      },
      "CHECK failed");
}

}  // namespace
}  // namespace xssd::sim
