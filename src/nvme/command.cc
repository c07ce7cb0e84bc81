#include "nvme/command.h"

namespace xssd::nvme {

namespace {
void Put16(uint8_t* out, uint16_t v) {
  out[0] = static_cast<uint8_t>(v);
  out[1] = static_cast<uint8_t>(v >> 8);
}
void Put32(uint8_t* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<uint8_t>(v >> (8 * i));
}
void Put64(uint8_t* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<uint8_t>(v >> (8 * i));
}
uint16_t Get16(const uint8_t* in) {
  return static_cast<uint16_t>(in[0] | (in[1] << 8));
}
uint32_t Get32(const uint8_t* in) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | in[i];
  return v;
}
uint64_t Get64(const uint8_t* in) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | in[i];
  return v;
}
}  // namespace

namespace {
Command AdminCmd(AdminOpcode opcode, uint32_t cdw10 = 0, uint32_t cdw11 = 0,
                 uint32_t cdw12 = 0) {
  Command cmd;
  cmd.opcode = static_cast<uint8_t>(opcode);
  cmd.cdw10 = cdw10;
  cmd.cdw11 = cdw11;
  cmd.cdw12 = cdw12;
  return cmd;
}
}  // namespace

Command SetRoleCmd(core::Role role, uint64_t mailbox_addr) {
  return AdminCmd(AdminOpcode::kXssdSetRole, static_cast<uint32_t>(role),
                  static_cast<uint32_t>(mailbox_addr),
                  static_cast<uint32_t>(mailbox_addr >> 32));
}

Command AddPeerCmd(size_t peer, uint64_t window_addr) {
  return AdminCmd(AdminOpcode::kXssdAddPeer, static_cast<uint32_t>(peer),
                  static_cast<uint32_t>(window_addr),
                  static_cast<uint32_t>(window_addr >> 32));
}

Command SetUpdatePeriodCmd(sim::SimTime period) {
  return AdminCmd(AdminOpcode::kXssdSetUpdatePeriod,
                  static_cast<uint32_t>(period));
}

Command SetReplicationCmd(core::ReplicationProtocol protocol) {
  return AdminCmd(AdminOpcode::kXssdSetReplication,
                  static_cast<uint32_t>(protocol));
}

Command ClearPeersCmd() { return AdminCmd(AdminOpcode::kXssdClearPeers); }

Command SetTermCmd(uint64_t term, size_t writer_slot) {
  return AdminCmd(AdminOpcode::kXssdSetTerm, static_cast<uint32_t>(term),
                  static_cast<uint32_t>(writer_slot));
}

Command RemovePeerCmd(size_t slot) {
  return AdminCmd(AdminOpcode::kXssdRemovePeer, static_cast<uint32_t>(slot));
}

Command TruncateCmd(uint64_t offset) {
  return AdminCmd(AdminOpcode::kXssdTruncate, static_cast<uint32_t>(offset),
                  static_cast<uint32_t>(offset >> 32));
}

void EncodeCommand(const Command& cmd, uint8_t out[kSqeBytes]) {
  std::memset(out, 0, kSqeBytes);
  out[0] = cmd.opcode;
  Put16(out + 2, cmd.cid);
  Put32(out + 4, cmd.nsid);
  Put64(out + 24, cmd.prp1);
  Put64(out + 32, cmd.prp2);
  Put32(out + 40, cmd.cdw10);
  Put32(out + 44, cmd.cdw11);
  Put32(out + 48, cmd.cdw12);
  Put32(out + 52, cmd.cdw13);
  Put32(out + 56, cmd.cdw14);
  Put32(out + 60, cmd.cdw15);
}

Command DecodeCommand(const uint8_t in[kSqeBytes]) {
  Command cmd;
  cmd.opcode = in[0];
  cmd.cid = Get16(in + 2);
  cmd.nsid = Get32(in + 4);
  cmd.prp1 = Get64(in + 24);
  cmd.prp2 = Get64(in + 32);
  cmd.cdw10 = Get32(in + 40);
  cmd.cdw11 = Get32(in + 44);
  cmd.cdw12 = Get32(in + 48);
  cmd.cdw13 = Get32(in + 52);
  cmd.cdw14 = Get32(in + 56);
  cmd.cdw15 = Get32(in + 60);
  return cmd;
}

void EncodeCompletion(const Completion& cpl, uint8_t out[kCqeBytes]) {
  std::memset(out, 0, kCqeBytes);
  Put32(out, cpl.result);
  Put16(out + 8, cpl.sq_head);
  Put16(out + 10, cpl.sq_id);
  Put16(out + 12, cpl.cid);
  uint16_t status_phase = static_cast<uint16_t>(
      (static_cast<uint16_t>(cpl.status) << 1) | (cpl.phase ? 1 : 0));
  Put16(out + 14, status_phase);
}

Completion DecodeCompletion(const uint8_t in[kCqeBytes]) {
  Completion cpl;
  cpl.result = Get32(in);
  cpl.sq_head = Get16(in + 8);
  cpl.sq_id = Get16(in + 10);
  cpl.cid = Get16(in + 12);
  uint16_t status_phase = Get16(in + 14);
  cpl.phase = (status_phase & 1) != 0;
  cpl.status = static_cast<CmdStatus>(status_phase >> 1);
  return cpl;
}

}  // namespace xssd::nvme
