// Link-time wrappers around the layers' public entry points (traced driver
// only).
//
// The traced driver links with `-Wl,--wrap=SYM` for every mangled `_ZN4xssd`
// symbol this file names (CMakeLists.txt extracts the list from it). The
// linker then resolves every call to SYM made from another object file to
// __wrap_SYM, which opens a span and forwards to the original through
// __real_SYM. Calls inside SYM's own translation unit never leave it and
// are not seen; their time lands in the enclosing span (or in
// trace.unattributed when that is an event callback).
//
// Each wrapper is declared with the parameters the Itanium C++ ABI passes:
// `this` first, scalars and trivially copyable structs by value, and any
// other class argument as a pointer to the caller's temporary (void*
// here), which is handed on untouched — no copy, no move.
//
// A source change that renames or re-signatures SYM fails the traced
// driver's link, naming the symbol; run.py builds the untraced driver on
// its own, so the end-to-end metrics do not depend on this list.

#include <memory>
#include <type_traits>
#include <vector>

#include "db/database.h"
#include "db/tpcc.h"
#include "flash/array.h"
#include "ftl/scheduler.h"
#include "host/node.h"
#include "ntb/ntb.h"
#include "obs/trace.h"
#include "pcie/fabric.h"
#include "trace.h"
#include "wraps.h"

using namespace xssd;
namespace tr = perfbench::trace;

namespace {

/// Brackets every simulator event callback (attached to each simulator a
/// StorageNode is built on).
class CallbackSink : public obs::TraceSink {
 public:
  void OnEventScheduled(sim::SimTime, sim::SimTime, uint64_t) override {}
  void OnEventBegin(sim::SimTime, uint64_t) override {
    tr::CountEvent();
    tr::Enter(tr::kSimCallback);
  }
  void OnEventEnd(sim::SimTime, uint64_t) override {
    tr::Exit(tr::kSimCallback);
  }
  void OnInstant(const char*, sim::SimTime) override {}
  void OnCounterSample(const char*, sim::SimTime, double) override {}
};

CallbackSink g_sink;

/// Stands in for an NtbAdapter on its fabric region: OnMmioWrite is a
/// virtual call the linker cannot redirect, so the region is registered
/// with this forwarding decorator instead.
class NtbTap : public pcie::MmioDevice {
 public:
  explicit NtbTap(pcie::MmioDevice* inner) : inner_(inner) {}
  void OnMmioWrite(uint64_t offset, const uint8_t* data,
                   size_t len) override {
    tr::Scope span(tr::kNtbMmioWrite);
    inner_->OnMmioWrite(offset, data, len);
  }
  void OnMmioRead(uint64_t offset, uint8_t* out, size_t len) override {
    inner_->OnMmioRead(offset, out, len);
  }

 private:
  pcie::MmioDevice* inner_;
};

std::vector<std::unique_ptr<NtbTap>>& Taps() {
  static std::vector<std::unique_ptr<NtbTap>> taps;
  return taps;
}

}  // namespace

static_assert(std::is_trivially_copyable_v<host::XLogClientOptions>,
              "StorageNode's wrapper passes XLogClientOptions by value");

// A plain span wrapper: open `layer`, forward, close.
#define PB_SPAN_WRAPPER(layer, ret, sym, params, args) \
  ret __real_##sym params;                              \
  ret __wrap_##sym params {                             \
    tr::Scope span(layer);                              \
    return __real_##sym args;                           \
  }

extern "C" {

// -- common ----------------------------------------------------------------
uint32_t __real__ZN4xssd6Crc32cEPKvmj(const void*,
                                                            size_t, uint32_t);
uint32_t __wrap__ZN4xssd6Crc32cEPKvmj(const void* data, size_t len,
                                      uint32_t seed) {
  tr::Scope span(tr::kCrc);
  tr::AddCrcBytes(len);
  return __real__ZN4xssd6Crc32cEPKvmj(data, len, seed);
}

// -- db --------------------------------------------------------------------
PB_SPAN_WRAPPER(
    tr::kDbPrepare, sim::SimTime,
    _ZN4xssd2db12TpccWorkload7PrepareENS0_11TpccTxnTypeEPNS0_11TransactionE,
    (void* self, db::TpccTxnType type, db::Transaction* txn),
    (self, type, txn))
PB_SPAN_WRAPPER(tr::kDbCommit, uint64_t,
                _ZN4xssd2db11Transaction6CommitESt8functionIFvNS_6StatusEEE,
                (void* self, void* on_durable), (self, on_durable))

// -- host ------------------------------------------------------------------
PB_SPAN_WRAPPER(
    tr::kHostAppend, void,
    _ZN4xssd4host10XLogClient6AppendEPKhmSt8functionIFvNS_6StatusEEE,
    (void* self, const uint8_t* data, size_t len, void* done),
    (self, data, len, done))

PB_SPAN_WRAPPER(
    tr::kHostAppend, void,
    _ZN4xssd4host10XLogClient13AppendDurableEPKhmSt8functionIFvNS_6StatusEEE,
    (void* self, const uint8_t* data, size_t len, void* done),
    (self, data, len, done))

// -- nvme ------------------------------------------------------------------
PB_SPAN_WRAPPER(
    tr::kNvmeRead, void,
    _ZN4xssd4nvme6Driver4ReadEmjSt8functionIFvNS_6StatusESt6vectorIhSaIhEEEE,
    (void* self, uint64_t lba, uint32_t blocks, void* done),
    (self, lba, blocks, done))
PB_SPAN_WRAPPER(
    tr::kNvmeWrite, void,
    _ZN4xssd4nvme6Driver5WriteEmPKhjSt8functionIFvNS_6StatusEEE,
    (void* self, uint64_t lba, const uint8_t* data, uint32_t blocks,
     void* done),
    (self, lba, data, blocks, done))

// -- pcie / ntb ------------------------------------------------------------
PB_SPAN_WRAPPER(
    tr::kPcieHostWrite, void,
    _ZN4xssd4pcie10PcieFabric9HostWriteEmPKhmjNS_3sim7EventFnE,
    (void* self, uint64_t addr, const uint8_t* data, size_t len,
     uint32_t chunk, void* posted),
    (self, addr, data, len, chunk, posted))
PB_SPAN_WRAPPER(
    tr::kPciePeerWrite, void,
    _ZN4xssd4pcie10PcieFabric9PeerWriteEmPKhmjNS_3sim7EventFnE,
    (void* self, uint64_t addr, const uint8_t* data, size_t len,
     uint32_t chunk, void* posted),
    (self, addr, data, len, chunk, posted))

Status
    __real__ZN4xssd4pcie10PcieFabric13AddMmioRegionEmmPNS0_10MmioDeviceENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
        void*, uint64_t, uint64_t, pcie::MmioDevice*, void*);
Status
__wrap__ZN4xssd4pcie10PcieFabric13AddMmioRegionEmmPNS0_10MmioDeviceENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
    void* self, uint64_t base, uint64_t size, pcie::MmioDevice* device,
    void* region_name) {
  if (dynamic_cast<ntb::NtbAdapter*>(device) != nullptr) {
    Taps().push_back(std::make_unique<NtbTap>(device));
    device = Taps().back().get();
  }
  return __real__ZN4xssd4pcie10PcieFabric13AddMmioRegionEmmPNS0_10MmioDeviceENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
      self, base, size, device, region_name);
}

// -- flash -----------------------------------------------------------------
PB_SPAN_WRAPPER(
    tr::kFlashProgram, void,
    _ZN4xssd5flash5Array7ProgramERKNS0_7AddressESt6vectorIhSaIhEES7_St8functionIFvNS_6StatusEEENS_3sim7EventFnE,
    (void* self, const flash::Address& addr, void* data, void* oob,
     void* done, void* bus_released),
    (self, addr, data, oob, done, bus_released))
PB_SPAN_WRAPPER(
    tr::kFlashRead, void,
    _ZN4xssd5flash5Array4ReadERKNS0_7AddressESt8functionIFvNS_6StatusESt6vectorIhSaIhEEEE,
    (void* self, const flash::Address& addr, void* done),
    (self, addr, done))

// -- ftl -------------------------------------------------------------------
PB_SPAN_WRAPPER(
    tr::kFtlWrite, void,
    _ZN4xssd3ftl3Ftl13WriteBufferedEmSt6vectorIhSaIhEESt8functionIFvNS_6StatusEEE,
    (void* self, uint64_t lpn, void* data, void* done),
    (self, lpn, data, done))
PB_SPAN_WRAPPER(
    tr::kFtlWrite, void,
    _ZN4xssd3ftl3Ftl11WriteDirectENS0_7IoClassEmSt6vectorIhSaIhEESt8functionIFvNS_6StatusEEE,
    (void* self, ftl::IoClass io_class, uint64_t lpn, void* data,
     void* done),
    (self, io_class, lpn, data, done))
PB_SPAN_WRAPPER(
    tr::kFtlRead, void,
    _ZN4xssd3ftl3Ftl8ReadPageENS0_7IoClassEmSt8functionIFvNS_6StatusESt6vectorIhSaIhEEEE,
    (void* self, ftl::IoClass io_class, uint64_t lpn, void* done),
    (self, io_class, lpn, done))

// -- core (device assembly) ------------------------------------------------
void
    __real__ZN4xssd4host11StorageNodeC1EPNS_3sim9SimulatorERKNS_4core13VillarsConfigERKNS_4pcie12FabricConfigENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEENS0_17XLogClientOptionsE(
        void*, sim::Simulator*, const core::VillarsConfig&,
        const pcie::FabricConfig&, void*, host::XLogClientOptions);
void __wrap__ZN4xssd4host11StorageNodeC1EPNS_3sim9SimulatorERKNS_4core13VillarsConfigERKNS_4pcie12FabricConfigENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEENS0_17XLogClientOptionsE(
    void* self, sim::Simulator* sim, const core::VillarsConfig& device_config,
    const pcie::FabricConfig& fabric_config, void* name,
    host::XLogClientOptions client_options) {
  // Every workload builds its nodes on a fresh simulator: this is where
  // the event brackets attach, before the node schedules anything.
  if (sim->trace_sink() == nullptr) sim->set_trace_sink(&g_sink);
  tr::Scope span(tr::kCoreBuild);
  __real__ZN4xssd4host11StorageNodeC1EPNS_3sim9SimulatorERKNS_4core13VillarsConfigERKNS_4pcie12FabricConfigENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEENS0_17XLogClientOptionsE(
      self, sim, device_config, fabric_config, name, client_options);
}

PB_SPAN_WRAPPER(tr::kCoreBuild, Status, _ZN4xssd4host11StorageNode4InitEv,
                (void* self), (self))
PB_SPAN_WRAPPER(tr::kCoreTeardown, void, _ZN4xssd4core13VillarsDeviceD1Ev,
                (void* self), (self))

}  // extern "C"

namespace perfbench::wraps {

void ReleaseTaps() { Taps().clear(); }

}  // namespace perfbench::wraps
