#include "obs/watchdog.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/flightrec.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace xssd::obs {
namespace {

TEST(ParseSloRule, ParsesFullSpecAndDefaults) {
  Result<std::vector<SloRule>> rules = ParseSloRules(R"([
    {"name": "cliff", "metric": "ftl.write_amp", "pred": ">",
     "threshold": 1.5, "for_windows": 3, "fatal": true},
    {"metric": "scrub.refresh_pressure"}
  ])");
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  ASSERT_EQ(rules->size(), 2u);
  EXPECT_EQ((*rules)[0].name, "cliff");
  EXPECT_EQ((*rules)[0].pred, SloRule::Pred::kGt);
  EXPECT_DOUBLE_EQ((*rules)[0].threshold, 1.5);
  EXPECT_EQ((*rules)[0].for_windows, 3u);
  EXPECT_TRUE((*rules)[0].fatal);
  // Defaults: name falls back to the metric, one window, non-fatal.
  EXPECT_EQ((*rules)[1].name, "scrub.refresh_pressure");
  EXPECT_EQ((*rules)[1].for_windows, 1u);
  EXPECT_FALSE((*rules)[1].fatal);
}

TEST(ParseSloRule, SingleObjectFormWorks) {
  Result<std::vector<SloRule>> rules =
      ParseSloRules(R"({"metric": "a.b", "pred": "<=", "threshold": 9})");
  ASSERT_TRUE(rules.ok());
  ASSERT_EQ(rules->size(), 1u);
  EXPECT_EQ((*rules)[0].pred, SloRule::Pred::kLe);
}

TEST(ParseSloRule, RejectsTyposLoudly) {
  // A typo'd field name must fail the parse, not silently weaken a gate.
  EXPECT_FALSE(
      ParseSloRules(R"({"metric": "a.b", "for_window": 3})").ok());
  EXPECT_FALSE(ParseSloRules(R"({"pred": ">", "threshold": 1})").ok());
  EXPECT_FALSE(ParseSloRules(R"({"metric": "a.b", "pred": "=>"})").ok());
  EXPECT_FALSE(ParseSloRules(R"({"metric": "a.b", "for_windows": 0})").ok());
  EXPECT_FALSE(ParseSloRules(R"({"metric": "a.b", "fatal": "yes"})").ok());
  EXPECT_FALSE(ParseSloRules(R"({"metric": ""})").ok());
}

TEST(ParseSloRule, SanitizesRuleNamesForMetricUse) {
  Result<std::vector<SloRule>> rules = ParseSloRules(
      R"({"name": "p99 over bound!", "metric": "a.b"})");
  ASSERT_TRUE(rules.ok());
  EXPECT_EQ((*rules)[0].name, "p99_over_bound_");
}

// Drive a real sampler so the watchdog sees genuine window closes.
class WatchdogWindowTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
  MetricsRegistry registry_;
};

TEST_F(WatchdogWindowTest, StreakAlertIsEdgeTriggeredPerExcursion) {
  Gauge* wa = registry_.GetGauge("ftl.write_amp");
  wa->Set(1.0);
  SloWatchdog watchdog;
  SloRule rule;
  rule.name = "cliff";
  rule.metric = "ftl.write_amp";
  rule.pred = SloRule::Pred::kGt;
  rule.threshold = 1.5;
  rule.for_windows = 2;
  watchdog.AddRule(rule);
  watchdog.SetMetrics(&registry_);

  TimeSeriesSampler sampler(&sim_, &registry_, {sim::Ms(1), 4096});
  sampler.set_watchdog(&watchdog);
  sampler.Start();

  // Windows 0-1 healthy, 2-4 breaching (alert at 3), 5 healthy (streak
  // resets), 6-8 breaching again (second alert at 7).
  sim_.Schedule(sim::Ms(2) + sim::Us(10), [&]() { wa->Set(2.0); });
  sim_.Schedule(sim::Ms(5) + sim::Us(10), [&]() { wa->Set(1.1); });
  sim_.Schedule(sim::Ms(6) + sim::Us(10), [&]() { wa->Set(1.9); });
  sim_.Schedule(sim::Ms(9) + sim::Us(10), [&]() {});
  sim_.Run();
  sampler.Finalize();

  EXPECT_EQ(watchdog.alerts(), 2u);
  EXPECT_EQ(watchdog.AlertsFor("cliff"), 2u);
  EXPECT_EQ(watchdog.fatal_alerts(), 0u);
  ASSERT_EQ(watchdog.rules().size(), 1u);
  EXPECT_EQ(watchdog.rules()[0].first_alert_window, 3);
  EXPECT_EQ(registry_.FindCounter("obs.watchdog.alerts")->value(), 2u);
  EXPECT_EQ(
      registry_.FindCounter("obs.watchdog.rule.cliff.alerts")->value(), 2u);
}

TEST_F(WatchdogWindowTest, CounterDeltaRuleFiresOnPerWindowRate) {
  Counter* fenced = registry_.GetCounter("transport.fenced_writes");
  SloWatchdog watchdog;
  SloRule rule;
  rule.name = "fenced";
  rule.metric = "transport.fenced_writes";
  rule.pred = SloRule::Pred::kGt;
  rule.threshold = 0;
  watchdog.AddRule(rule);

  TimeSeriesSampler sampler(&sim_, &registry_, {sim::Ms(1), 4096});
  sampler.set_watchdog(&watchdog);
  sampler.Start();

  // One fenced write in window 1 only: exactly one alert, and the delta
  // semantics mean later quiet windows do NOT re-alert on the cumulative
  // counter staying above zero.
  sim_.Schedule(sim::Ms(1) + sim::Us(10), [&]() { fenced->Add(); });
  sim_.Schedule(sim::Ms(4) + sim::Us(10), [&]() {});
  sim_.Run();
  sampler.Finalize();

  EXPECT_EQ(watchdog.alerts(), 1u);
  EXPECT_EQ(watchdog.rules()[0].first_alert_window, 1);
}

TEST_F(WatchdogWindowTest, MissingSeriesLeavesTheStreakUnchanged) {
  SloWatchdog watchdog;
  SloRule rule;
  rule.metric = "lat.ns";
  rule.stat = "p99";
  rule.pred = SloRule::Pred::kGt;
  rule.threshold = 1;
  watchdog.AddRule(rule);

  TimeSeriesSampler sampler(&sim_, &registry_, {sim::Ms(1), 4096});
  sampler.set_watchdog(&watchdog);
  sampler.Start();
  sim_.Schedule(sim::Ms(3) + sim::Us(10), [&]() {});
  sim_.Run();
  sampler.Finalize();

  // The metric never existed: windows evaluated, nothing fired.
  EXPECT_GE(watchdog.windows_evaluated(), 3u);
  EXPECT_EQ(watchdog.alerts(), 0u);
}

TEST_F(WatchdogWindowTest, MisspeltMetricLeavesTheRuleUnbound) {
  registry_.GetGauge("ftl.write_amp")->Set(1.0);
  SloWatchdog watchdog;
  SloRule typo;
  typo.name = "typo";
  typo.metric = "ftl.write_ampp";
  watchdog.AddRule(typo);
  SloRule spelt;
  spelt.name = "spelt";
  spelt.metric = "ftl.write_amp";
  watchdog.AddRule(spelt);

  TimeSeriesSampler sampler(&sim_, &registry_, {sim::Ms(1), 4096});
  sampler.set_watchdog(&watchdog);
  sampler.Start();
  sim_.Schedule(sim::Ms(3) + sim::Us(10), [&]() {});
  sim_.Run();
  sampler.Finalize();

  ASSERT_EQ(watchdog.rules().size(), 2u);
  EXPECT_FALSE(watchdog.rules()[0].bound);
  EXPECT_TRUE(watchdog.rules()[1].bound);
}

TEST_F(WatchdogWindowTest, FatalAlertsCountAndLandInTheFlightRecorder) {
  Gauge* depth = registry_.GetGauge("q.depth");
  depth->Set(100);
  FlightRecorder fr;
  SloWatchdog watchdog;
  SloRule rule;
  rule.name = "overload";
  rule.metric = "q.depth";
  rule.pred = SloRule::Pred::kGe;
  rule.threshold = 50;
  rule.fatal = true;
  watchdog.AddRule(rule);
  watchdog.SetMetrics(&registry_);
  watchdog.set_flight_recorder(&fr);

  TimeSeriesSampler sampler(&sim_, &registry_, {sim::Ms(1), 4096});
  sampler.set_watchdog(&watchdog);
  sampler.Start();
  sim_.Schedule(sim::Ms(1) + sim::Us(10), [&]() {});
  sim_.Run();
  sampler.Finalize();

  EXPECT_GE(watchdog.fatal_alerts(), 1u);
  EXPECT_EQ(registry_.FindCounter("obs.watchdog.fatal_alerts")->value(), 1u);
  std::vector<FlightRecorder::Entry> entries = fr.Snapshot();
  ASSERT_GE(entries.size(), 1u);
  EXPECT_EQ(entries[0].category, "watchdog");
  EXPECT_NE(entries[0].message.find("overload"), std::string::npos);
  EXPECT_NE(entries[0].message.find("[fatal]"), std::string::npos);
}

TEST_F(WatchdogWindowTest, AppendJsonIsValidAndCarriesRuleState) {
  Gauge* wa = registry_.GetGauge("ftl.write_amp");
  wa->Set(3.0);
  SloWatchdog watchdog;
  SloRule rule;
  rule.name = "cliff";
  rule.metric = "ftl.write_amp";
  rule.pred = SloRule::Pred::kGt;
  rule.threshold = 1.5;
  watchdog.AddRule(rule);

  TimeSeriesSampler sampler(&sim_, &registry_, {sim::Ms(1), 4096});
  sampler.set_watchdog(&watchdog);
  sampler.Start();
  sim_.Schedule(sim::Ms(2) + sim::Us(10), [&]() {});
  sim_.Run();
  sampler.Finalize();

  // The sampler's export embeds the watchdog block when one is attached.
  std::string json;
  sampler.AppendJson(&json);
  std::string error;
  ASSERT_TRUE(IsValidJson(json, &error)) << error;
  EXPECT_NE(json.find("\"watchdog\""), std::string::npos);
  EXPECT_NE(json.find("\"cliff\""), std::string::npos);
  EXPECT_NE(json.find("\"alerts\": 1"), std::string::npos);
}

}  // namespace
}  // namespace xssd::obs
