#include <gtest/gtest.h>

#include "db/log_backend.h"
#include "db/log_manager.h"
#include "db/log_record.h"

namespace xssd::db {
namespace {

LogRecord MakeRecord(uint64_t txn, size_t payload_len) {
  LogRecord record;
  record.txn_id = txn;
  record.table_id = 2;
  record.op = LogOp::kInsert;
  record.key = txn * 10;
  record.payload.assign(payload_len, static_cast<uint8_t>(txn));
  return record;
}

TEST(LogRecordWire, RoundTrip) {
  LogRecord record = MakeRecord(7, 123);
  std::vector<uint8_t> wire;
  SerializeLogRecord(record, &wire);
  EXPECT_EQ(wire.size(), record.SerializedSize());

  size_t offset = 0;
  Result<LogRecord> parsed = ParseLogRecord(wire, &offset);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->txn_id, 7u);
  EXPECT_EQ(parsed->table_id, 2u);
  EXPECT_EQ(parsed->op, LogOp::kInsert);
  EXPECT_EQ(parsed->key, 70u);
  EXPECT_EQ(parsed->payload, record.payload);
  EXPECT_EQ(offset, wire.size());
}

TEST(LogRecordWire, CorruptionDetected) {
  std::vector<uint8_t> wire;
  SerializeLogRecord(MakeRecord(1, 50), &wire);
  wire[40] ^= 0x10;
  size_t offset = 0;
  EXPECT_TRUE(ParseLogRecord(wire, &offset).status().IsCorruption());
}

TEST(LogRecordWire, EmptyAndLargePayloadsRoundTripAndRejectFlips) {
  for (size_t payload_len : {size_t{0}, size_t{4096}}) {
    SCOPED_TRACE(payload_len);
    LogRecord record = MakeRecord(9, payload_len);
    std::vector<uint8_t> wire;
    SerializeLogRecord(record, &wire);
    size_t offset = 0;
    Result<LogRecord> parsed = ParseLogRecord(wire, &offset);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->payload, record.payload);
    EXPECT_EQ(offset, wire.size());

    // One flipped byte in the CRC field itself ([25, 29)).
    std::vector<uint8_t> bad_crc = wire;
    bad_crc[27] ^= 0x01;
    offset = 0;
    EXPECT_TRUE(ParseLogRecord(bad_crc, &offset).status().IsCorruption());

    // One flipped header byte, and for a non-empty record a payload byte.
    std::vector<uint8_t> bad_body = wire;
    size_t victim =
        payload_len == 0 ? 3 : LogRecord::kHeaderBytes + payload_len - 1;
    bad_body[victim] ^= 0x80;
    offset = 0;
    EXPECT_TRUE(ParseLogRecord(bad_body, &offset).status().IsCorruption());
  }
}

TEST(LogRecordWire, TornTailStopsCleanly) {
  std::vector<uint8_t> wire;
  SerializeLogRecord(MakeRecord(1, 40), &wire);
  SerializeLogRecord(MakeRecord(2, 40), &wire);
  size_t full = wire.size();
  SerializeLogRecord(MakeRecord(3, 40), &wire);
  wire.resize(full + 10);  // third record torn mid-header/payload

  bool torn = false;
  auto records = ParseLogStream(wire, &torn);
  EXPECT_EQ(records.size(), 2u);
  EXPECT_TRUE(torn);
  EXPECT_EQ(records[0].txn_id, 1u);
  EXPECT_EQ(records[1].txn_id, 2u);
}

TEST(LogRecordWire, CleanStreamHasNoTornFlag) {
  std::vector<uint8_t> wire;
  for (int i = 0; i < 5; ++i) SerializeLogRecord(MakeRecord(i, 16), &wire);
  bool torn = true;
  auto records = ParseLogStream(wire, &torn);
  EXPECT_EQ(records.size(), 5u);
  EXPECT_FALSE(torn);
}

class LogManagerTest : public ::testing::Test {
 protected:
  LogManagerTest() : backend_(&sim_) {}

  LogManager MakeManager(uint64_t group, sim::SimTime timeout,
                         uint64_t cap = 1 << 20) {
    LogManagerConfig config;
    config.group_bytes = group;
    config.flush_timeout = timeout;
    config.max_buffer_bytes = cap;
    return LogManager(&sim_, &backend_, config);
  }

  sim::Simulator sim_;
  NoLogBackend backend_;
};

TEST_F(LogManagerTest, FlushTriggersAtGroupThreshold) {
  LogManagerConfig config;
  config.group_bytes = 100;
  config.flush_timeout = sim::Sec(10);
  LogManager log(&sim_, &backend_, config);

  std::vector<uint8_t> data(60, 1);
  log.Append(data.data(), data.size());
  sim_.RunFor(sim::Ms(1));
  EXPECT_EQ(log.durable_lsn(), 0u);  // below threshold, no timeout yet

  log.Append(data.data(), data.size());  // crosses 100 bytes
  sim_.RunFor(sim::Ms(1));
  EXPECT_EQ(log.durable_lsn(), 120u);
  EXPECT_EQ(log.flushes_issued(), 1u);
}

TEST_F(LogManagerTest, TimeoutFlushesPartialGroup) {
  LogManagerConfig config;
  config.group_bytes = 1 << 20;
  config.flush_timeout = sim::Us(500);
  LogManager log(&sim_, &backend_, config);

  std::vector<uint8_t> data(10, 1);
  log.Append(data.data(), data.size());
  sim_.RunFor(sim::Us(400));
  EXPECT_EQ(log.durable_lsn(), 0u);
  sim_.RunFor(sim::Us(200));
  EXPECT_EQ(log.durable_lsn(), 10u);
}

TEST_F(LogManagerTest, WaitersResolveInLsnOrder) {
  LogManagerConfig config;
  config.group_bytes = 64;
  config.flush_timeout = sim::Us(100);
  LogManager log(&sim_, &backend_, config);

  std::vector<int> resolved;
  std::vector<uint8_t> data(32, 1);
  uint64_t lsn1 = log.Append(data.data(), data.size());
  log.WaitDurable(lsn1, [&](Status) { resolved.push_back(1); });
  uint64_t lsn2 = log.Append(data.data(), data.size());
  log.WaitDurable(lsn2, [&](Status) { resolved.push_back(2); });
  sim_.Run();
  EXPECT_EQ(resolved, (std::vector<int>{1, 2}));
}

TEST_F(LogManagerTest, WaiterOnAlreadyDurableLsnFiresImmediately) {
  LogManagerConfig config;
  config.group_bytes = 8;
  config.flush_timeout = sim::Us(10);
  LogManager log(&sim_, &backend_, config);
  std::vector<uint8_t> data(16, 1);
  uint64_t lsn = log.Append(data.data(), data.size());
  sim_.Run();
  bool fired = false;
  log.WaitDurable(lsn, [&](Status) { fired = true; });
  EXPECT_TRUE(fired);
}

TEST_F(LogManagerTest, MaxFlushCapsBatches) {
  LogManagerConfig config;
  config.group_bytes = 64;
  config.max_flush_bytes = 128;
  config.flush_timeout = sim::Ms(10);
  LogManager log(&sim_, &backend_, config);
  std::vector<uint8_t> data(512, 1);
  log.Append(data.data(), data.size());
  sim_.Run();
  EXPECT_EQ(log.durable_lsn(), 512u);
  EXPECT_GE(log.flushes_issued(), 4u);  // 512 / 128
}

TEST_F(LogManagerTest, BackpressureStallsUntilSpace) {
  LogManagerConfig config;
  config.group_bytes = 64;
  config.max_buffer_bytes = 128;
  config.flush_timeout = sim::Us(50);
  LogManager log(&sim_, &backend_, config);

  std::vector<uint8_t> data(128, 1);
  log.Append(data.data(), data.size());
  EXPECT_FALSE(log.HasSpace(128));
  bool released = false;
  log.WaitForSpace(128, [&]() { released = true; });
  EXPECT_FALSE(released);
  sim_.Run();  // flush drains the buffer
  EXPECT_TRUE(released);
  EXPECT_TRUE(log.HasSpace(128));
}

TEST_F(LogManagerTest, BytesFlowThroughBackendIntact) {
  // Use a capturing backend to check byte-exact flush contents.
  class CapturingBackend : public LogBackend {
   public:
    explicit CapturingBackend(sim::Simulator* sim) : sim_(sim) {}
    void AppendDurable(const uint8_t* data, size_t len,
                       std::function<void(Status)> done) override {
      Account(len);
      captured.insert(captured.end(), data, data + len);
      sim_->Schedule(0, [done = std::move(done)]() { done(Status::OK()); });
    }
    std::string name() const override { return "capture"; }
    int data_movements_per_byte() const override { return 0; }
    std::vector<uint8_t> captured;
    sim::Simulator* sim_;
  };

  CapturingBackend backend(&sim_);
  LogManagerConfig config;
  config.group_bytes = 50;
  config.flush_timeout = sim::Us(10);
  LogManager log(&sim_, &backend, config);

  std::vector<uint8_t> all;
  for (int i = 0; i < 10; ++i) {
    std::vector<uint8_t> chunk(37, static_cast<uint8_t>(i));
    all.insert(all.end(), chunk.begin(), chunk.end());
    log.Append(chunk.data(), chunk.size());
    sim_.RunFor(sim::Us(30));
  }
  sim_.Run();
  EXPECT_EQ(backend.captured, all);  // order- and byte-exact
}

}  // namespace
}  // namespace xssd::db
