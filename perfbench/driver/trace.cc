#include "trace.h"

#include <chrono>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace perfbench::trace {
namespace {

struct Frame {
  Layer layer;
  int64_t start;
  int64_t child;
};

std::vector<Frame>& Stack() {
  static std::vector<Frame> stack = [] {
    std::vector<Frame> s;
    s.reserve(64);
    return s;
  }();
  return stack;
}

Totals g_totals;

/// First reading of both clocks, the base of the tick-rate calibration.
struct Epoch {
  int64_t ns = NowNs();
  int64_t ticks = NowTicks();
};

const Epoch& ProcessEpoch() {
  static const Epoch epoch;
  return epoch;
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case kDrive: return "sim.kernel";
    case kSimCallback: return "trace.unattributed";
    case kCrc: return "common.crc";
    case kDbPopulate: return "db.populate";
    case kDbPrepare: return "db.prepare";
    case kDbCommit: return "db.commit";
    case kHostAppend: return "host.append";
    case kHostAppendDurable: return "host.append_durable";
    case kNvmeRead: return "nvme.read";
    case kNvmeWrite: return "nvme.write";
    case kPcieHostWrite: return "pcie.host_write";
    case kPciePeerWrite: return "pcie.peer_write";
    case kNtbMmioWrite: return "ntb.mmio_write";
    case kFlashProgram: return "flash.program";
    case kFlashRead: return "flash.read";
    case kFtlWrite: return "ftl.write";
    case kFtlRead: return "ftl.read";
    case kCoreBuild: return "core.build";
    case kCoreTeardown: return "core.teardown";
    case kCheckGenerate: return "check.generate";
    case kCheckRun: return "check.run";
    case kLayerCount: break;
  }
  return "?";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t NowTicks() {
#if defined(__x86_64__)
  return static_cast<int64_t>(__rdtsc());
#else
  return NowNs();
#endif
}

double TicksToSeconds(int64_t ticks) {
  const Epoch& epoch = ProcessEpoch();
  int64_t ns = NowNs() - epoch.ns;
  int64_t elapsed = NowTicks() - epoch.ticks;
  if (ns <= 0 || elapsed <= 0) return static_cast<double>(ticks) * 1e-9;
  return static_cast<double>(ticks) * (static_cast<double>(ns) * 1e-9) /
         static_cast<double>(elapsed);
}

void Enter(Layer layer) {
  ProcessEpoch();
  Stack().push_back({layer, NowTicks(), 0});
}

void Exit(Layer layer) {
  int64_t now = NowTicks();
  std::vector<Frame>& stack = Stack();
  if (stack.empty() || stack.back().layer != layer) {
    ++g_totals.stack_errors;
    return;
  }
  Frame frame = stack.back();
  stack.pop_back();
  int64_t duration = now - frame.start;
  g_totals.calls[layer] += 1;
  g_totals.self_ticks[layer] += duration - frame.child;
  g_totals.total_ticks[layer] += duration;
  if (!stack.empty()) stack.back().child += duration;
}

void AddCrcBytes(uint64_t bytes) { g_totals.crc_bytes += bytes; }
void CountEvent() { ++g_totals.sim_events; }
const Totals& totals() { return g_totals; }

Totals Diff(const Totals& after, const Totals& before) {
  Totals d;
  for (int i = 0; i < kLayerCount; ++i) {
    d.calls[i] = after.calls[i] - before.calls[i];
    d.self_ticks[i] = after.self_ticks[i] - before.self_ticks[i];
    d.total_ticks[i] = after.total_ticks[i] - before.total_ticks[i];
  }
  d.crc_bytes = after.crc_bytes - before.crc_bytes;
  d.sim_events = after.sim_events - before.sim_events;
  d.stack_errors = after.stack_errors - before.stack_errors;
  return d;
}

}  // namespace perfbench::trace
