// Quickstart: bring up a simulated server with one Villars device, append
// a transaction log through the fast side with the drop-in calls
// (x_pwrite / x_fsync), watch the credit counter, and read the log tail
// back from the conventional side (x_pread).
//
// Build & run:   ./build/examples/quickstart

#include <cstdio>
#include <cstring>
#include <string>

#include "host/node.h"
#include "host/xcalls.h"

using namespace xssd;

int main() {
  sim::Simulator sim;

  // A Villars device with default (paper-like) parameters: SRAM-backed
  // 128 KiB CMB ring, 32 KiB staging queue, 16 KiB flash pages.
  core::VillarsConfig config;
  host::StorageNode node(&sim, config, pcie::FabricConfig{}, "quickstart");
  Status status = node.Init();
  if (!status.ok()) {
    std::fprintf(stderr, "init failed: %s\n", status.ToString().c_str());
    return 1;
  }

  std::printf("device up: CMB ring %lu KiB, staging queue %lu KiB\n",
              node.client().ring_bytes() / 1024,
              node.client().queue_bytes() / 1024);

  // Append a few "log records" durably.
  for (int i = 0; i < 4; ++i) {
    std::string record = "txn-" + std::to_string(i) +
                         ": UPDATE accounts SET balance = balance - 100;";
    ssize_t n = host::x_pwrite(sim, node.client(), record.data(),
                               record.size());
    if (n < 0) {
      std::fprintf(stderr, "x_pwrite failed\n");
      return 1;
    }
  }
  if (host::x_fsync(sim, node.client()) != 0) {
    std::fprintf(stderr, "x_fsync failed\n");
    return 1;
  }
  std::printf("appended %lu bytes; credit counter = %lu (all persistent)\n",
              node.client().written(),
              node.device().cmb().local_credit());

  // The Destage module moves the ring to NAND in the background; x_pread
  // blocks (in virtual time) until enough reached the conventional side.
  std::vector<char> tail(node.client().written());
  ssize_t n = host::x_pread(sim, node.client(), node.driver(), tail.data(),
                            tail.size());
  if (n < 0) {
    std::fprintf(stderr, "x_pread failed\n");
    return 1;
  }
  std::printf("read %zd bytes back from the conventional side:\n", n);
  std::printf("  \"%.47s...\"\n", tail.data());

  std::printf("destage stats: %lu pages (%lu partial), %lu stream bytes\n",
              node.device().destage().stats().pages_written.value(),
              node.device().destage().stats().partial_pages.value(),
              node.device().destage().stats().stream_bytes.value());
  std::printf("virtual time elapsed: %.1f us\n", sim::ToUs(sim.Now()));
  return 0;
}
