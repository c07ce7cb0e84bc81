#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The three benchmark workloads. Each call runs one iteration: build the
// devices, drive the seeded input, check the outputs, tear down. Host time
// is split into set-up, driven phase and teardown; everything the
// simulation itself reports (virtual time, counts) is deterministic for a
// given seed and lands in `sim`.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Metric {
  double value = 0;
  std::string unit;
};

/// Expectations a test can break on purpose, to show the matching
/// correctness check fires.
enum class Break {
  kNone,
  kReplicaLog,     // tpcc-replicated: one appended byte recorded wrongly
  kReadVersion,    // destage-mixed: one read expects a version never written
  kConformance,    // conformance: the reference-model's planted bug
};

struct RunConfig {
  uint64_t seed = 1;
  bool tiny = false;  // smoke-test sizes
  /// Record virtual-time spans (StorageNode::EnableSpans) and report the
  /// critical-path waits. Costs host time, so the traced driver does it in
  /// its first iteration only.
  bool record_waits = false;
  Break break_check = Break::kNone;
};

struct IterationResult {
  double setup_s = 0;
  double driven_s = 0;
  double teardown_s = 0;
  /// Work offered, finished and failed in the driven phase. Failed counts
  /// refused arrivals and every failed correctness check.
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // first few correctness failures
  /// Virtual-time results and simulation counts: identical on every run of
  /// one seed, traced or not.
  std::map<std::string, Metric> sim;
  /// vt.* critical-path waits, when RunConfig::record_waits was set.
  std::map<std::string, Metric> waits;
  /// FNV-1a of the device metrics snapshot (or of the check results).
  uint64_t digest = 0;
  /// Traced driver only: spans recorded inside the driven phase.
  trace::Totals spans;
  /// Traced driver only: spans outside the driven phase (set-up and
  /// teardown), for db.populate and core.build/teardown.
  trace::Totals outside;
};

IterationResult RunTpccReplicated(const RunConfig& config);
IterationResult RunDestageMixed(const RunConfig& config);
IterationResult RunConformance(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
