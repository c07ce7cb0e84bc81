// Multi-tenant X-SSD (paper §7.2): a hyperscaler packs two virtual
// databases onto one device. The CMB is segmented into independent
// partitions (VillarsConfig::extra_partitions) — each tenant gets its own
// PM ring, credit counter, and destage ring on the shared conventional
// side — and an unmodified client simply points at its partition's base
// address.
//
// Build & run:   ./build/examples/multi_tenant

#include <cstdio>

#include "core/villars_device.h"
#include "db/log_backend.h"
#include "db/log_manager.h"
#include "db/tpcc.h"
#include "db/workload.h"
#include "host/xlog_client.h"
#include "nvme/driver.h"

using namespace xssd;

int main() {
  sim::Simulator sim;
  pcie::PcieFabric fabric(&sim, pcie::FabricConfig{}, "host");

  // Two tenants: a big one with a roomy ring (partition 0), a small one.
  core::VillarsConfig config;
  config.cmb.ring_bytes = 128 * 1024;
  config.destage.ring_start_lba = 0;
  config.destage.ring_lba_count = 1024;
  core::PartitionConfig small;
  small.cmb.ring_bytes = 64 * 1024;
  small.cmb.queue_bytes = 16 * 1024;
  small.destage.ring_start_lba = 1024;
  small.destage.ring_lba_count = 512;
  config.extra_partitions = {small};

  core::VillarsDevice device(&sim, &fabric, config, "mt-xssd");
  if (!device.Attach(0xF000'0000, 0xE000'0000).ok()) return 1;
  nvme::Driver driver(&sim, &fabric, &device.controller(), 0xF000'0000);
  if (!driver.Initialize().ok()) return 1;

  host::XLogClient tenant_a(&sim, &fabric, device.partition_base(0));
  host::XLogClient tenant_b(&sim, &fabric, device.partition_base(1));
  if (!tenant_a.Setup().ok() || !tenant_b.Setup().ok()) return 1;

  std::printf("one device, %zu tenants: rings %lu KiB and %lu KiB\n",
              device.partition_count(), tenant_a.ring_bytes() / 1024,
              tenant_b.ring_bytes() / 1024);

  // Each tenant runs its own database with its own WAL.
  db::VillarsLogBackend backend_a(&tenant_a), backend_b(&tenant_b);
  db::LogManager log_a(&sim, &backend_a), log_b(&sim, &backend_b);
  db::Database db_a(&log_a), db_b(&log_b);
  db::TpccConfig tpcc;
  tpcc.warehouses = 4;
  db::TpccWorkload workload_a(&db_a, tpcc, 1), workload_b(&db_b, tpcc, 2);
  workload_a.Populate();
  workload_b.Populate();

  // The tenants take turns on the shared simulator. Each Run starts its
  // own workers, pumps the simulator through warmup + measure, then stops
  // them and drains for 50 ms — so tenant B runs alone first, and tenant A
  // runs alone after it, against a device that already holds B's destaged
  // log. The partitions keep the two logs, credit counters and destage
  // rings apart either way.
  db::WorkloadDriver driver_a(&sim, &db_a, &workload_a, 4, 11);
  db::WorkloadDriver driver_b(&sim, &db_b, &workload_b, 2, 22);
  db::WorkloadResult result_b = driver_b.Run(sim::Ms(20), sim::Ms(200));
  db::WorkloadResult result_a = driver_a.Run(sim::Ms(20), sim::Ms(200));

  std::printf("tenant A: %8.0f txn/s, %7.1f us mean commit latency\n",
              result_a.txns_per_sec, result_a.latency_us.Mean());
  std::printf("tenant B: %8.0f txn/s, %7.1f us mean commit latency\n",
              result_b.txns_per_sec, result_b.latency_us.Mean());
  std::printf("credits: A=%lu B=%lu (independent counters)\n",
              device.cmb(0).local_credit(), device.cmb(1).local_credit());
  std::printf("destaged: A=%lu B=%lu bytes into disjoint flash rings\n",
              device.destage(0).destaged(), device.destage(1).destaged());
  return 0;
}
