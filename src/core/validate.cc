#include "core/validate.h"

#include <string>
#include <vector>

#include "core/page_format.h"
#include "core/registers.h"

namespace xssd::core {

namespace {

Status ValidateGeometry(const flash::Geometry& geometry) {
  if (geometry.channels == 0 || geometry.dies_per_channel == 0 ||
      geometry.planes_per_die == 0 || geometry.blocks_per_plane == 0 ||
      geometry.pages_per_block == 0) {
    return Status::InvalidArgument("flash geometry has a zero dimension");
  }
  if (geometry.page_bytes < DestagePageHeader::kSize + 1) {
    return Status::InvalidArgument("flash page too small for destage header");
  }
  return Status::OK();
}

uint64_t LpnCount(const flash::Geometry& geometry,
                  const ftl::FtlConfig& ftl) {
  return static_cast<uint64_t>(static_cast<double>(geometry.pages()) *
                               (1.0 - ftl.overprovision));
}

Status ValidateFastSide(const CmbConfig& cmb, const DestageConfig& destage,
                        const flash::Geometry& geometry,
                        const ftl::FtlConfig& ftl, const std::string& who) {
  if (cmb.queue_bytes == 0) {
    return Status::InvalidArgument(who + ": staging queue must be > 0");
  }
  if (cmb.ring_bytes < cmb.queue_bytes) {
    return Status::InvalidArgument(
        who + ": PM ring must be at least the staging-queue size");
  }
  if (cmb.sram_bytes_per_sec <= 0 || cmb.dram_bytes_per_sec <= 0 ||
      cmb.dram_available_fraction <= 0 || cmb.dram_available_fraction > 1) {
    return Status::InvalidArgument(who + ": invalid backing-memory rates");
  }
  if (cmb.peer_intake_slots > kMaxPeers) {
    return Status::InvalidArgument(
        who + ": more intake aliases than peer slots");
  }
  if (destage.ring_lba_count == 0) {
    return Status::InvalidArgument(who + ": destage ring is empty");
  }
  if (destage.ring_start_lba + destage.ring_lba_count >
      LpnCount(geometry, ftl)) {
    return Status::OutOfRange(
        who + ": destage ring exceeds the logical address space");
  }
  if (destage.max_inflight == 0) {
    return Status::InvalidArgument(who + ": destage pipeline depth is 0");
  }
  // The ring must hold at least one full destage page's worth of data,
  // or the destage loop could never emit a full page.
  if (cmb.ring_bytes < DestagePayloadCapacity(geometry.page_bytes)) {
    return Status::InvalidArgument(
        who + ": PM ring smaller than one destage page payload");
  }
  return Status::OK();
}

Status ValidateFtl(const ftl::FtlConfig& ftl) {
  if (ftl.overprovision < 0 || ftl.overprovision >= 0.9) {
    return Status::InvalidArgument("overprovision must be in [0, 0.9)");
  }
  if (ftl.buffer_pages == 0) {
    return Status::InvalidArgument("data buffer must hold >= 1 page");
  }
  if (ftl.max_writeback_inflight == 0) {
    return Status::InvalidArgument("writeback pipeline depth is 0");
  }
  return Status::OK();
}

}  // namespace

Status ValidateConfig(const VillarsConfig& config) {
  XSSD_RETURN_IF_ERROR(ValidateGeometry(config.geometry));
  XSSD_RETURN_IF_ERROR(ValidateFtl(config.ftl));
  std::vector<PartitionConfig> partitions = {
      {config.cmb, config.destage, config.transport}};
  partitions.insert(partitions.end(), config.extra_partitions.begin(),
                    config.extra_partitions.end());
  for (size_t i = 0; i < partitions.size(); ++i) {
    XSSD_RETURN_IF_ERROR(ValidateFastSide(
        partitions[i].cmb, partitions[i].destage, config.geometry, config.ftl,
        i == 0 ? std::string("fast side") : "partition " + std::to_string(i)));
  }
  for (size_t i = 0; i < partitions.size(); ++i) {
    for (size_t j = i + 1; j < partitions.size(); ++j) {
      const DestageConfig& a = partitions[i].destage;
      const DestageConfig& b = partitions[j].destage;
      bool disjoint =
          a.ring_start_lba + a.ring_lba_count <= b.ring_start_lba ||
          b.ring_start_lba + b.ring_lba_count <= a.ring_start_lba;
      if (!disjoint) {
        return Status::InvalidArgument(
            "partitions " + std::to_string(i) + " and " + std::to_string(j) +
            " have overlapping destage rings");
      }
    }
  }
  if (config.power.supercap_page_budget == 0) {
    return Status::InvalidArgument("supercap budget cannot destage anything");
  }
  return Status::OK();
}

}  // namespace xssd::core
