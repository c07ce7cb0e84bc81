#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

namespace xssd::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), 0u);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&]() { order.push_back(3); });
  sim.Schedule(10, [&]() { order.push_back(1); });
  sim.Schedule(20, [&]() { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30u);
}

TEST(Simulator, EqualTimestampsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(5, [&order, i]() { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, CallbacksMayScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&]() {
    if (++depth < 100) sim.Schedule(1, chain);
  };
  sim.Schedule(1, chain);
  sim.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.Now(), 100u);
}

TEST(Simulator, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Simulator sim;
  int ran = 0;
  sim.Schedule(10, [&]() { ++ran; });
  sim.Schedule(50, [&]() { ++ran; });
  sim.RunUntil(30);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.Now(), 30u);  // clock advances to the deadline
  sim.Run();
  EXPECT_EQ(ran, 2);
}

TEST(Simulator, RunForIsRelative) {
  Simulator sim;
  sim.Schedule(100, []() {});
  sim.RunFor(60);
  EXPECT_EQ(sim.Now(), 60u);
  sim.RunFor(60);
  EXPECT_EQ(sim.Now(), 120u);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, StopAbortsRun) {
  Simulator sim;
  int ran = 0;
  sim.Schedule(1, [&]() {
    ++ran;
    sim.Stop();
  });
  sim.Schedule(2, [&]() { ++ran; });
  sim.Run();
  EXPECT_EQ(ran, 1);
  sim.Run();  // resumes
  EXPECT_EQ(ran, 2);
}

TEST(Simulator, RunWhileStopsOnPredicate) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(i + 1, [&]() { ++count; });
  }
  bool satisfied = sim.RunWhile([&]() { return count == 4; });
  EXPECT_TRUE(satisfied);
  EXPECT_EQ(count, 4);
}

TEST(Simulator, RunWhileReturnsFalseWhenQueueDrains) {
  Simulator sim;
  sim.Schedule(1, []() {});
  bool satisfied = sim.RunWhile([]() { return false; });
  EXPECT_FALSE(satisfied);
}

TEST(Simulator, ExecutedEventCountAccumulates) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.Schedule(i, []() {});
  sim.Run();
  EXPECT_EQ(sim.executed_events(), 7u);
}

TEST(Simulator, ParseBackendAcceptsOnlyWheelAndParallel) {
  using Backend = Simulator::SchedulerBackend;
  Backend got = Backend::kParallel;
  EXPECT_TRUE(Simulator::ParseBackend(nullptr, &got));
  EXPECT_EQ(got, Backend::kWheel);
  got = Backend::kParallel;
  EXPECT_TRUE(Simulator::ParseBackend("", &got));
  EXPECT_EQ(got, Backend::kWheel);
  EXPECT_TRUE(Simulator::ParseBackend("wheel", &got));
  EXPECT_EQ(got, Backend::kWheel);
  EXPECT_TRUE(Simulator::ParseBackend("parallel", &got));
  EXPECT_EQ(got, Backend::kParallel);
  for (const char* bad : {"heap", "bogus", "Wheel", "wheel ", "parallel2"}) {
    EXPECT_FALSE(Simulator::ParseBackend(bad, &got)) << bad;
  }
}

// DefaultBackend() reads the environment once per process, so each case
// runs in a freshly exec'd child ("threadsafe" death-test style).
TEST(SimulatorDeathTest, UnknownSchedulerEnvIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* bad : {"heap", "bogus"}) {
    EXPECT_DEATH(
        {
          setenv("XSSD_SIM_SCHEDULER", bad, 1);
          Simulator::DefaultBackend();
        },
        "unknown XSSD_SIM_SCHEDULER=.*accepted: wheel, parallel")
        << bad;
  }
}

TEST(SimTime, UnitHelpers) {
  EXPECT_EQ(Us(3), 3000u);
  EXPECT_EQ(Ms(2), 2000000u);
  EXPECT_EQ(Sec(1), 1000000000u);
  EXPECT_EQ(UsF(0.4), 400u);
  EXPECT_DOUBLE_EQ(ToUs(1500), 1.5);
}

TEST(SimTime, TransferTimeRoundsUpToOneNs) {
  EXPECT_EQ(TransferTime(0, 1e9), 0u);
  EXPECT_EQ(TransferTime(1, 100e9), 1u);     // sub-ns clamps to 1
  EXPECT_EQ(TransferTime(2000, 2e9), 1000u); // 2000 B at 2 GB/s = 1 us
}

}  // namespace
}  // namespace xssd::sim
