#include "db/log_record.h"

#include <cstring>

#include "common/crc32.h"

namespace xssd::db {

// Wire layout: txn_id(8) table_id(4) op(1) key(8) payload_len(4) crc(4)
// then payload. CRC covers header-with-crc-zero + payload.

void SerializeLogRecord(const LogRecord& record, std::vector<uint8_t>* out) {
  size_t at = out->size();
  out->resize(at + record.SerializedSize());
  uint8_t* p = out->data() + at;
  // Layout: [0..7] txn_id, [8..11] table_id, [12] op, [13..20] key,
  // [21..24] payload_len, [25..28] crc.
  std::memcpy(p + 0, &record.txn_id, 8);
  std::memcpy(p + 8, &record.table_id, 4);
  p[12] = static_cast<uint8_t>(record.op);
  std::memcpy(p + 13, &record.key, 8);
  uint32_t len = static_cast<uint32_t>(record.payload.size());
  std::memcpy(p + 21, &len, 4);
  uint32_t zero = 0;
  std::memcpy(p + 25, &zero, 4);
  if (!record.payload.empty()) {
    std::memcpy(p + LogRecord::kHeaderBytes, record.payload.data(),
                record.payload.size());
  }
  uint32_t crc = Crc32c(p, record.SerializedSize());
  std::memcpy(p + 25, &crc, 4);
}

Result<LogRecord> ParseLogRecord(const std::vector<uint8_t>& data,
                                 size_t* offset) {
  size_t at = *offset;
  if (at + LogRecord::kHeaderBytes > data.size()) {
    return Status::OutOfRange("truncated header");
  }
  const uint8_t* p = data.data() + at;
  LogRecord record;
  std::memcpy(&record.txn_id, p + 0, 8);
  std::memcpy(&record.table_id, p + 8, 4);
  record.op = static_cast<LogOp>(p[12]);
  std::memcpy(&record.key, p + 13, 8);
  uint32_t len = 0;
  std::memcpy(&len, p + 21, 4);
  if (at + LogRecord::kHeaderBytes + len > data.size()) {
    return Status::OutOfRange("truncated payload");
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, p + 25, 4);

  // Recompute in place as if the CRC field were zero: the bytes before it,
  // four zero bytes, then the payload (the CRC ends the header), chained
  // through the seed.
  static constexpr uint8_t kZeroCrc[4] = {};
  uint32_t crc = Crc32c(p, 25);
  crc = Crc32c(kZeroCrc, sizeof(kZeroCrc), crc);
  crc = Crc32c(p + LogRecord::kHeaderBytes, len, crc);
  if (crc != stored_crc) {
    return Status::Corruption("log record CRC mismatch");
  }
  record.payload.assign(p + LogRecord::kHeaderBytes,
                        p + LogRecord::kHeaderBytes + len);
  *offset = at + LogRecord::kHeaderBytes + len;
  return record;
}

std::vector<LogRecord> ParseLogStream(const std::vector<uint8_t>& data,
                                      bool* torn) {
  std::vector<LogRecord> records;
  if (torn) *torn = false;
  size_t offset = 0;
  while (offset < data.size()) {
    Result<LogRecord> record = ParseLogRecord(data, &offset);
    if (!record.ok()) {
      if (torn) *torn = record.status().IsOutOfRange();
      break;
    }
    records.push_back(std::move(*record));
  }
  return records;
}

}  // namespace xssd::db
