#ifndef XSSD_CORE_CONFIG_H_
#define XSSD_CORE_CONFIG_H_

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "flash/geometry.h"
#include "flash/timing.h"
#include "ftl/ftl.h"
#include "ftl/scheduler.h"
#include "ftl/scrub.h"
#include "sim/time.h"

namespace xssd::core {

/// Memory technology backing the CMB area (paper §4.1 evaluates both).
enum class BackingKind {
  kSram,  ///< FPGA BlockRAM: 128-bit @ 250 MHz = 4 GB/s, small (128 KiB)
  kDram,  ///< device DDR3: 64-bit @ 250 MHz = 2 GB/s, shared, large (128 MiB)
};

/// \brief Fast-side (CMB module) configuration.
struct CmbConfig {
  BackingKind backing = BackingKind::kSram;
  /// PM ring capacity. Paper: 128 KiB (SRAM) / 128 MiB (DRAM).
  uint64_t ring_bytes = 128 * kKiB;
  /// Staging-queue size pre-negotiated with the database (§4.1); the flow-
  /// control window. Paper finds 32 KiB best (§6.3).
  uint64_t queue_bytes = 32 * kKiB;
  /// Raw SRAM port bandwidth.
  double sram_bytes_per_sec = 4e9;
  /// Raw DRAM port bandwidth (DDR3 through the 64-bit bus).
  double dram_bytes_per_sec = 2e9;
  /// Fraction of DRAM bandwidth left for CMB after the device's regular
  /// data-buffering activity (the DRAM is shared; §6 implementation notes).
  /// The CMB intake and the destage module's ring reads both draw from
  /// this budget.
  double dram_available_fraction = 0.30;
  /// Fixed staging cost per chunk moved from the queue into the PM ring
  /// (queue pop + PM controller issue).
  sim::SimTime persist_overhead = sim::Ns(0);
  /// Number of per-peer intake aliases of the ring window appended to the
  /// CMB BAR. With P slots the BAR is laid out as [0,4K) control page,
  /// [4K, 4K+ring) the direct host window, then P further ring-sized
  /// aliases — a write into alias s is attributed to member slot s and
  /// subject to the term fence (kRegTerm). 0 keeps the legacy layout.
  uint32_t peer_intake_slots = 0;
};

/// \brief Destage module configuration (paper §4.3).
struct DestageConfig {
  /// First LBA of the conventional-side destaging ring.
  uint64_t ring_start_lba = 0;
  /// Ring length in logical blocks ("much larger than the fast side").
  uint64_t ring_lba_count = 2048;
  /// Destage less than a full page if data has waited this long (the
  /// "latency threshold" of §4.3); filler pads the page.
  sim::SimTime latency_threshold = sim::Us(500);
  /// Maximum concurrent destage programs (pipeline depth across dies).
  uint32_t max_inflight = 32;
  /// Re-issue attempts when a destage page write fails even after the
  /// FTL's own bad-block retries. Retries reuse the same sequence number
  /// and ring slot so the recovery chain walk is unaffected.
  uint32_t max_write_retries = 4;
  /// Backoff before re-issuing a failed destage write; doubles per attempt.
  sim::SimTime retry_backoff = sim::Us(50);
};

/// Device role in a replication group (§4.2).
enum class Role : uint32_t {
  kStandalone = 0,
  kPrimary = 1,
  kSecondary = 2,
};

/// Replication protocol the credit counter implements (§4.2).
enum class ReplicationProtocol : uint32_t {
  kEager = 0,  ///< credit = slowest secondary (log persisted everywhere)
  kLazy = 1,   ///< credit = local counter (primary proceeds independently)
  kChain = 2,  ///< credit = counter of the last secondary in the chain
};

/// \brief Transport module configuration (§4.2).
struct TransportConfig {
  /// How often a secondary forwards its credit counter to the primary.
  /// Figure 13 sweeps 0.4–1.6 µs.
  sim::SimTime update_period = sim::Ns(800);
  ReplicationProtocol protocol = ReplicationProtocol::kEager;
  /// A shadow counter lagging the local credit for longer than this while
  /// traffic is outstanding raises the stalled bit in the status register.
  sim::SimTime stall_timeout = sim::Ms(10);
  /// Retransmit timer: when a shadow counter has made no progress for this
  /// long while lagging, the primary re-mirrors the missing ring bytes.
  /// Doubles per silent round up to retransmit_backoff_max. 0 disables
  /// (the paper's prototype behaviour; fault-tolerant setups opt in).
  sim::SimTime retransmit_timeout = 0;
  sim::SimTime retransmit_backoff_max = sim::Ms(5);
  /// TLP payload granularity of retransmitted ring bytes.
  uint32_t retransmit_chunk = 4096;
  /// After this long without any shadow progress the primary enters
  /// degraded mode: credit falls back to the local counter (logging
  /// continues un-replicated) until the lagging peers catch back up.
  /// 0 disables degraded mode (the paper's strict eager behaviour). The
  /// watchdog rides the retransmit timer, so this requires
  /// retransmit_timeout > 0.
  sim::SimTime degrade_timeout = 0;
  /// Mirror ring bytes into the peers' per-slot intake aliases (see
  /// CmbConfig::peer_intake_slots) instead of the shared host window, so
  /// the receiving device can attribute each push to a member slot and
  /// apply the term fence. Requires every peer's CMB BAR to carry intake
  /// aliases; set by the HA supervisor, off for the legacy topology.
  bool use_intake_aliases = false;
};

/// \brief Power-loss protection model: supercapacitors hold the device up
/// long enough to destage the fast side (§3.1 crash consistency).
struct PowerConfig {
  /// Pages the stored energy can destage after a sudden power cut. The
  /// default comfortably covers the largest SRAM ring.
  uint32_t supercap_page_budget = 64;
};

/// \brief One partition's slice of the fast side (paper §7.2): its own
/// staging queue and PM ring, destage ring and replication configuration.
struct PartitionConfig {
  CmbConfig cmb;
  DestageConfig destage;
  TransportConfig transport;
};

/// \brief Full Villars device configuration.
struct VillarsConfig {
  flash::Geometry geometry;
  flash::Timing flash_timing;
  flash::Reliability reliability;
  ftl::FtlConfig ftl;
  /// Patrol scrubber (off by default — see ScrubConfig::enabled).
  ftl::ScrubConfig scrub;
  /// Partition 0's fast side.
  CmbConfig cmb;
  DestageConfig destage;
  TransportConfig transport;
  /// Partitions 1..N-1 (empty: a single-partition device). Each sits on
  /// the shared conventional side with a destage ring disjoint from all
  /// others; see VillarsDevice for the BAR layout.
  std::vector<PartitionConfig> extra_partitions;
  PowerConfig power;
  ftl::SchedulingPolicy scheduling = ftl::SchedulingPolicy::kNeutral;
  uint64_t seed = 42;
};

}  // namespace xssd::core

#endif  // XSSD_CORE_CONFIG_H_
