#ifndef XSSD_OBS_METRICS_H_
#define XSSD_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "sim/stats.h"

namespace xssd::obs {

/// \brief Monotonically increasing event/byte count.
///
/// Handed out by MetricsRegistry; components publish a Tally into it once
/// (Tally::PublishTo) and bump the tally on the hot path (no lookup).
class Counter {
 public:
  void Add(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

/// \brief A component's own count of one event, optionally published into
/// a registry Counter.
///
/// Reads as the `uint64_t` it holds. `Add` bumps the local value and, once
/// `PublishTo` has been called, the registry counter too; a publish forwards
/// only later events, and several tallies may publish to one counter (it
/// then sums them). A copy carries the value only, never the publication,
/// so snapshots of a stats struct are plain numbers. `Reset` clears only
/// the local value.
class Tally {
 public:
  Tally() = default;
  Tally(const Tally& other) : value_(other.value_) {}
  /// Assigns the value only; this tally keeps its own publication.
  Tally& operator=(const Tally& other) {
    value_ = other.value_;
    return *this;
  }

  void Add(uint64_t n = 1) {
    value_ += n;
    if (sink_ != nullptr) sink_->Add(n);
  }
  Tally& operator++() {
    Add();
    return *this;
  }
  Tally& operator+=(uint64_t n) {
    Add(n);
    return *this;
  }

  void PublishTo(Counter* counter) { sink_ = counter; }
  void Reset() { value_ = 0; }

  uint64_t value() const { return value_; }
  operator uint64_t() const { return value_; }

 private:
  uint64_t value_ = 0;
  Counter* sink_ = nullptr;
};

/// \brief Instantaneous level: queue depth, occupancy, credit position,
/// or a bench result. Last write wins.
class Gauge {
 public:
  void Set(double value) { value_ = value; }
  void Add(double delta) { value_ += delta; }
  void Sub(double delta) { value_ -= delta; }
  double value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  double value_ = 0;
};

/// Latency-style sample distributions reuse the simulator's recorder (it
/// already serves every benchmark) so samples flow to one place.
using LatencyRecorder = sim::LatencyRecorder;

/// \brief Registry of named metrics with hierarchical dotted names
/// (`cmb.append_bytes`, `ftl.gc.pages_moved`, `ntb.link.wire_bytes`).
///
/// Get*() registers on first use and returns a stable pointer — components
/// resolve their metrics once (SetMetrics) and update them branch-cheaply
/// afterwards. Iteration order is lexicographic by name, which makes every
/// export deterministic; two identical simulation runs snapshot to
/// byte-identical JSON.
///
/// A name has exactly one kind for the lifetime of the registry; asking
/// for an existing name with a different kind is a programming error.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. The returned pointer stays valid for the registry's
  /// lifetime.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  LatencyRecorder* GetLatency(const std::string& name);

  /// Lookup without registering; nullptr when absent.
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const LatencyRecorder* FindLatency(const std::string& name) const;

  size_t size() const {
    return counters_.size() + gauges_.size() + latencies_.size();
  }

  /// Zero every counter and gauge, clear every recorder. Registered names
  /// (and handed-out pointers) survive.
  void Reset();

  // Deterministic (name-sorted) iteration for exporters.
  const std::map<std::string, std::unique_ptr<Counter>>& counters() const {
    return counters_;
  }
  const std::map<std::string, std::unique_ptr<Gauge>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, std::unique_ptr<LatencyRecorder>>& latencies()
      const {
    return latencies_;
  }

 private:
  enum class Kind { kCounter, kGauge, kLatency };

  /// Enforce name validity and one-kind-per-name.
  void CheckName(const std::string& name, Kind kind);

  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyRecorder>> latencies_;
  std::map<std::string, Kind> kinds_;
};

}  // namespace xssd::obs

#endif  // XSSD_OBS_METRICS_H_
