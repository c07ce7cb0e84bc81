// Adversarial scheduler properties, parameterized over both backends: the
// canonical (when, seq) total order, clock semantics at bucket edges,
// Stop()/resume behavior, the past-schedule clamp contract and the
// allocation-free steady state — plus a differential check of both
// backends against the independent reference queue in
// reference_scheduler.h. (On these single-domain schedules the parallel
// backend runs its serial merge; the multi-domain worker paths are covered
// by parallel_scheduler_test.cc.)

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_pool.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "sim/timer_wheel.h"
#include "reference_scheduler.h"

namespace xssd::sim {
namespace {

using Backend = Simulator::SchedulerBackend;

constexpr SimTime kSlotSpan = TimerWheel::kSlots;            // 64 ns
constexpr SimTime kLevel1Span = kSlotSpan * kSlotSpan;       // 4096 ns
constexpr SimTime kLevel2Span = kLevel1Span * kSlotSpan;     // 262144 ns
constexpr SimTime kHorizon = SimTime{1} << TimerWheel::kHorizonBits;

class SchedulerPropertyTest : public ::testing::TestWithParam<Backend> {};

std::string BackendName(const ::testing::TestParamInfo<Backend>& info) {
  return info.param == Backend::kParallel ? "parallel" : "wheel";
}

TEST_P(SchedulerPropertyTest, FifoAcrossBucketBoundaries) {
  Simulator sim(GetParam());
  // Same-timestamp runs placed exactly on and around every wheel
  // boundary: level-0 slot edges, level-1/level-2 slot edges, and the
  // overflow horizon. Scheduling order must be preserved per timestamp.
  std::vector<SimTime> stamps = {
      kSlotSpan - 1,     kSlotSpan,     kSlotSpan + 1,
      kLevel1Span - 1,   kLevel1Span,   kLevel1Span + 1,
      kLevel2Span - 1,   kLevel2Span,   kLevel2Span + 1,
      kHorizon - 1,      kHorizon,      kHorizon + 1,
  };
  std::vector<std::pair<SimTime, int>> fired;
  // Interleave: for each copy index, walk all stamps — so equal-timestamp
  // events are scheduled far apart in seq space.
  for (int copy = 0; copy < 5; ++copy) {
    for (SimTime t : stamps) {
      sim.ScheduleAt(t, [&fired, t, copy]() { fired.push_back({t, copy}); });
    }
  }
  sim.Run();
  ASSERT_EQ(fired.size(), stamps.size() * 5);
  for (size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1].first, fired[i].first) << "time order at " << i;
    if (fired[i - 1].first == fired[i].first) {
      EXPECT_LT(fired[i - 1].second, fired[i].second)
          << "FIFO violated at t=" << fired[i].first;
    }
  }
}

TEST_P(SchedulerPropertyTest, FarFutureAndNearInterleave) {
  Simulator sim(GetParam());
  std::vector<int> order;
  // Beyond the 2^48 ns wheel horizon (overflow path), mid-range, and
  // near-term events scheduled in shuffled order.
  sim.ScheduleAt(kHorizon * 3 + 17, [&]() { order.push_back(6); });
  sim.ScheduleAt(5, [&]() { order.push_back(1); });
  sim.ScheduleAt(kHorizon + 1, [&]() { order.push_back(5); });
  sim.ScheduleAt(kLevel2Span + 3, [&]() { order.push_back(3); });
  sim.ScheduleAt(6, [&]() { order.push_back(2); });
  sim.ScheduleAt(kHorizon - 2, [&]() { order.push_back(4); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(sim.Now(), kHorizon * 3 + 17);
}

TEST_P(SchedulerPropertyTest, NearEventScheduledFromFarCallback) {
  Simulator sim(GetParam());
  std::vector<int> order;
  sim.ScheduleAt(kHorizon + 100, [&]() {
    order.push_back(1);
    // From deep in the future, immediately reschedule nearby — including
    // the same timestamp (must run after already-queued same-time events).
    sim.Schedule(0, [&]() { order.push_back(3); });
    sim.Schedule(1, [&]() { order.push_back(4); });
  });
  sim.ScheduleAt(kHorizon + 100, [&]() { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST_P(SchedulerPropertyTest, RunUntilLandsExactlyOnBucketEdges) {
  for (SimTime edge : {kSlotSpan, kLevel1Span, kLevel2Span}) {
    Simulator sim(GetParam());
    int before = 0, at = 0, after = 0;
    sim.ScheduleAt(edge - 1, [&]() { ++before; });
    sim.ScheduleAt(edge, [&]() { ++at; });
    sim.ScheduleAt(edge + 1, [&]() { ++after; });
    // Deadline exactly on the edge: the edge event is <= deadline and must
    // fire; the event one tick later must not, and the clock must land on
    // the deadline itself.
    EXPECT_EQ(sim.RunUntil(edge), 2u) << "edge " << edge;
    EXPECT_EQ(before, 1);
    EXPECT_EQ(at, 1);
    EXPECT_EQ(after, 0);
    EXPECT_EQ(sim.Now(), edge);
    // Scheduling relative to the edge then draining still fires the rest.
    sim.Schedule(0, [&]() { ++at; });
    sim.Run();
    EXPECT_EQ(at, 2);
    EXPECT_EQ(after, 1);
    EXPECT_EQ(sim.Now(), edge + 1);
  }
}

TEST_P(SchedulerPropertyTest, RunUntilDeadlineBetweenBucketsAdvancesClock) {
  Simulator sim(GetParam());
  int ran = 0;
  sim.ScheduleAt(kLevel1Span * 7 + 13, [&]() { ++ran; });
  // Deadlines that stop strictly inside empty wheel regions.
  EXPECT_EQ(sim.RunUntil(kSlotSpan), 0u);
  EXPECT_EQ(sim.Now(), kSlotSpan);
  EXPECT_EQ(sim.RunUntil(kLevel1Span * 7), 0u);
  EXPECT_EQ(sim.Now(), kLevel1Span * 7);
  EXPECT_EQ(sim.RunUntil(kLevel1Span * 7 + 13), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST_P(SchedulerPropertyTest, StopMidStepAcrossLevelsThenResume) {
  Simulator sim(GetParam());
  std::vector<int> order;
  sim.ScheduleAt(10, [&]() {
    order.push_back(1);
    sim.Stop();
  });
  sim.ScheduleAt(10, [&]() { order.push_back(2); });
  sim.ScheduleAt(kLevel1Span + 5, [&]() { order.push_back(3); });
  sim.ScheduleAt(kHorizon + 5, [&]() { order.push_back(4); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.Now(), 10u);
  EXPECT_EQ(sim.pending_events(), 3u);
  sim.Run();  // resumes where it stopped, with order intact
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST_P(SchedulerPropertyTest, PastScheduleClampsToNowWithCounter) {
  Simulator sim(GetParam());
  sim.set_allow_past_schedules(true);
  std::vector<int> order;
  sim.ScheduleAt(100, [&]() {
    order.push_back(1);
    sim.ScheduleAt(100, [&]() { order.push_back(2); });  // same time: ok
    sim.ScheduleAt(40, [&]() { order.push_back(3); });   // past: clamped
  });
  sim.ScheduleAt(200, [&]() { order.push_back(4); });
  sim.Run();
  // The clamped event fires at Now()==100, after the already-queued
  // same-timestamp event (it got a later seq), before t=200.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.past_schedule_clamps(), 1u);
  EXPECT_EQ(sim.Now(), 200u);
}

// Differential property: a randomized schedule — bursts of equal
// timestamps (every fifth one clamped from the past), nested scheduling
// from callbacks, occasional far-future and beyond-horizon targets,
// interleaved RunUntil segments — must produce the reference queue's
// execution sequence, and its clock after every segment, on every backend.
constexpr uint64_t kClockMark = ~uint64_t{0};  // fired-log id of a Now()

template <typename Sim>
std::vector<std::pair<SimTime, uint64_t>> RunRandomSchedule(Sim& sim,
                                                            uint64_t seed) {
  if constexpr (std::is_same_v<Sim, Simulator>) {
    sim.set_allow_past_schedules(true);
  }
  Rng rng(seed);
  std::vector<std::pair<SimTime, uint64_t>> fired;
  uint64_t next_id = 0;
  std::function<void(int)> spawn = [&](int depth) {
    uint64_t id = next_id++;
    uint64_t pick = rng.Uniform(100);
    SimTime delay;
    if (pick < 50) {
      delay = rng.Uniform(128);  // hammer level-0/1 boundaries
    } else if (pick < 75) {
      delay = rng.Uniform(2 * kLevel1Span);
    } else if (pick < 90) {
      delay = rng.Uniform(2 * kLevel2Span);
    } else if (pick < 97) {
      delay = rng.Uniform(Ms(50));
    } else {
      delay = kHorizon + rng.Uniform(kHorizon);  // overflow path
    }
    sim.Schedule(delay, [&fired, &rng, &spawn, &sim, id, depth]() {
      fired.push_back({sim.Now(), id});
      if (depth > 0) {
        uint64_t kids = rng.Uniform(3);
        for (uint64_t k = 0; k < kids; ++k) spawn(depth - 1);
        if (rng.Uniform(8) == 0) {
          // Same-timestamp burst scheduled from inside a callback.
          SimTime at = sim.Now() + rng.Uniform(96);
          if (id % 5 == 0) at = at > 128 ? at - 128 : 0;  // in the past
          for (int b = 0; b < 4; ++b) {
            uint64_t bid = 1000000 + id * 8 + static_cast<uint64_t>(b);
            sim.ScheduleAt(at, [&fired, &sim, bid]() {
              fired.push_back({sim.Now(), bid});
            });
          }
        }
      }
    });
  };
  for (int i = 0; i < 400; ++i) spawn(3);
  // Drain in stuttering RunUntil steps to cross bucket edges in every
  // possible phase, then finish with Run().
  SimTime t = 0;
  for (int i = 0; i < 200 && !sim.empty(); ++i) {
    t += rng.Uniform(2 * kLevel1Span) + 1;
    sim.RunUntil(t);
    fired.push_back({sim.Now(), kClockMark});
  }
  sim.Run();
  return fired;
}

TEST(SchedulerDifferentialTest, AllBackendsMatchOnRandomSchedules) {
  for (uint64_t seed : {1u, 2u, 3u, 7u, 42u}) {
    ReferenceScheduler ref_sim;
    auto ref = RunRandomSchedule(ref_sim, seed);
    ASSERT_GT(ref_sim.past_schedule_clamps(), 0u) << "seed " << seed;
    for (Backend backend : {Backend::kWheel, Backend::kParallel}) {
      Simulator sim(backend);
      auto got = RunRandomSchedule(sim, seed);
      const char* name = backend == Backend::kWheel ? "wheel" : "parallel";
      ASSERT_EQ(got.size(), ref.size()) << name << " seed " << seed;
      for (size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(got[i], ref[i])
            << name << " seed " << seed << " event " << i;
      }
      EXPECT_EQ(sim.Now(), ref_sim.Now()) << name << " seed " << seed;
      EXPECT_EQ(sim.past_schedule_clamps(), ref_sim.past_schedule_clamps())
          << name << " seed " << seed;
      EXPECT_EQ(sim.executed_events(), ref_sim.executed_events())
          << name << " seed " << seed;
    }
  }
}

TEST(EventPoolTest, SteadyStateReusesNodesWithoutAllocating) {
  Simulator sim(Backend::kWheel);
  uint64_t fn_heap_before = EventFn::heap_fallbacks();
  // 1M schedule/fire cycles with a small pending set: after warmup the
  // pool must recycle the same nodes — one slab chunk, zero callback
  // spills — no matter how many events pass through.
  uint64_t remaining = 1000000;
  std::function<void()> chain = [&]() {
    if (remaining == 0) return;
    --remaining;
    sim.Schedule(1 + (remaining % 700), chain);
  };
  for (int i = 0; i < 8; ++i) sim.Schedule(i + 1, chain);
  sim.Run();
  EXPECT_EQ(remaining, 0u);
  EXPECT_EQ(sim.executed_events(), 1000008u);
  EXPECT_EQ(sim.event_pool().total_acquires(), 1000008u);
  EXPECT_EQ(sim.event_pool().live_nodes(), 0u);
  EXPECT_EQ(sim.event_pool().chunks_allocated(), 1u)
      << "pool grew despite bounded pending set";
  // `chain` is a std::function by reference — captured as one pointer, so
  // even the wrapper stays inline.
  EXPECT_EQ(EventFn::heap_fallbacks() - fn_heap_before, 0u);
}

TEST(EventPoolTest, PendingEventsReleasedOnSimulatorDestruction) {
  // Callbacks still queued at destruction must have their captures
  // destroyed (ASan would flag the leak of the shared_ptr otherwise).
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  {
    Simulator sim(Backend::kWheel);
    sim.Schedule(100, [token = std::move(token)]() { (void)*token; });
    sim.Schedule(kHorizon * 2, []() {});  // parked in overflow
    EXPECT_EQ(sim.pending_events(), 2u);
  }
  EXPECT_TRUE(watch.expired());
}

TEST(EventFnTest, LargeCapturesSpillToHeapAndStillRun) {
  uint64_t before = EventFn::heap_fallbacks();
  Simulator sim(Backend::kWheel);
  struct Big {
    uint64_t pad[12];  // 96 bytes: exceeds the 48-byte inline buffer
  };
  Big big{};
  big.pad[11] = 17;
  uint64_t got = 0;
  sim.Schedule(5, [big, &got]() { got = big.pad[11]; });
  sim.Run();
  EXPECT_EQ(got, 17u);
  EXPECT_EQ(EventFn::heap_fallbacks() - before, 1u);
}

INSTANTIATE_TEST_SUITE_P(Backends, SchedulerPropertyTest,
                         ::testing::Values(Backend::kWheel,
                                           Backend::kParallel),
                         BackendName);

}  // namespace
}  // namespace xssd::sim
