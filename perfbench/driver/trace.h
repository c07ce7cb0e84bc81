#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Host-time spans around calls into the simulator's layers.
//
// Every span is a frame on one stack (the simulator is single-threaded).
// Closing a frame charges its duration minus its children's to the frame's
// layer as self time, so the self times of all frames opened inside a root
// frame add up exactly (integer clock ticks) to the root's duration.
//
// Spans are timed with the CPU's invariant time-stamp counter where there
// is one (half the cost of a steady_clock read), converted to seconds with
// a rate calibrated against steady_clock over the process lifetime.
//
// Only the traced driver opens spans: the untraced driver is built with
// kTracing == false and every call below reduces to a constant branch.

#include <cstdint>

namespace perfbench::trace {

#ifdef PERFBENCH_TRACED
inline constexpr bool kTracing = true;
#else
inline constexpr bool kTracing = false;
#endif

enum Layer : int {
  kDrive,          // root of a driven phase: time outside every other span
  kSimCallback,    // one event callback, minus the layer spans inside it
  kCrc,            // xssd::Crc32c
  kDbPopulate,     // db::TpccWorkload::Populate
  kDbPrepare,      // db::TpccWorkload::Prepare
  kDbCommit,       // db::Transaction::Commit
  kHostAppend,     // host::XLogClient::Append + AppendDurable
  kHostAppendDurable,  // db::LogBackend::AppendDurable (decorator)
  kNvmeRead,       // nvme::Driver::Read
  kNvmeWrite,      // nvme::Driver::Write
  kPcieHostWrite,  // pcie::PcieFabric::HostWrite
  kPciePeerWrite,  // pcie::PcieFabric::PeerWrite
  kNtbMmioWrite,   // ntb::NtbAdapter::OnMmioWrite (region decorator)
  kFlashProgram,   // flash::Array::Program
  kFlashRead,      // flash::Array::Read
  kFtlWrite,       // ftl::Ftl::WriteBuffered + WriteDirect
  kFtlRead,        // ftl::Ftl::ReadPage
  kCoreBuild,      // host::StorageNode construction + Init
  kCoreTeardown,   // core::VillarsDevice destruction
  kCheckGenerate,  // check::GenerateSchedule
  kCheckRun,       // check::RunSchedule
  kLayerCount,
};

/// Metric stem of a layer ("db.commit" -> db.commit_calls, db.commit_s).
const char* LayerName(Layer layer);

struct Totals {
  uint64_t calls[kLayerCount] = {};
  int64_t self_ticks[kLayerCount] = {};
  /// Inclusive duration (children counted), for sim.callback_s.
  int64_t total_ticks[kLayerCount] = {};
  uint64_t crc_bytes = 0;
  uint64_t sim_events = 0;
  /// Frames closed out of order or left open: any non-zero value voids
  /// the conservation check.
  uint64_t stack_errors = 0;
};

/// steady_clock, in nanoseconds: the clock of every end-to-end time.
int64_t NowNs();
/// Span clock.
int64_t NowTicks();
/// Span clock ticks to seconds.
double TicksToSeconds(int64_t ticks);

void Enter(Layer layer);
void Exit(Layer layer);
void AddCrcBytes(uint64_t bytes);
void CountEvent();
const Totals& totals();
Totals Diff(const Totals& after, const Totals& before);

/// RAII span; free in the untraced build.
class Scope {
 public:
  explicit Scope(Layer layer) : layer_(layer) {
    if constexpr (kTracing) Enter(layer_);
  }
  ~Scope() {
    if constexpr (kTracing) Exit(layer_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Layer layer_;
};

}  // namespace perfbench::trace

#endif  // PERFBENCH_TRACE_H_
