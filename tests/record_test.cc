// Unit tests for src/record: network log, serializer round-trips,
// corruption rejection, text export.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "common/crc32.h"
#include "common/rng.h"
#include "record/serializer.h"
#include "record/text_export.h"

namespace djvu::record {
namespace {

using sched::EventKind;

NetworkLogEntry accept_entry(EventNum en, ConnectionId id) {
  NetworkLogEntry e;
  e.kind = EventKind::kSockAccept;
  e.event_num = en;
  e.conn_id = id;
  return e;
}

NetworkLogEntry read_entry(EventNum en, std::uint64_t n) {
  NetworkLogEntry e;
  e.kind = EventKind::kSockRead;
  e.event_num = en;
  e.value = n;
  return e;
}

TEST(NetworkLog, AppendAndFind) {
  NetworkLog log;
  log.append(1, accept_entry(0, {9, 2, 0}));
  log.append(1, read_entry(1, 42));
  log.append(3, read_entry(0, 7));

  ASSERT_NE(log.find(1, 0), nullptr);
  EXPECT_EQ(log.find(1, 0)->conn_id->djvm_id, 9u);
  EXPECT_EQ(*log.find(1, 1)->value, 42u);
  EXPECT_EQ(*log.find(3, 0)->value, 7u);
  EXPECT_EQ(log.find(1, 2), nullptr);
  EXPECT_EQ(log.find(2, 0), nullptr);
  EXPECT_EQ(log.size(), 3u);
}

TEST(NetworkLog, DuplicateAppendThrows) {
  NetworkLog log;
  log.append(1, read_entry(0, 1));
  EXPECT_THROW(log.append(1, read_entry(0, 2)), UsageError);
}

TEST(NetworkLog, ContentBytes) {
  NetworkLog log;
  NetworkLogEntry e = read_entry(0, 5);
  e.data = to_bytes("12345");
  log.append(0, std::move(e));
  EXPECT_EQ(log.content_bytes(), 5u);
}

VmLog sample_log() {
  VmLog log;
  log.vm_id = 7;
  log.stats.critical_events = 1234;
  log.stats.network_events = 56;
  log.schedule.per_thread = {
      {{0, 10}, {15, 15}, {20, 99}},
      {{11, 14}, {16, 19}},
      {},
  };
  log.network.append(0, accept_entry(0, {3, 1, 2}));
  NetworkLogEntry r = read_entry(1, 77);
  r.data = to_bytes("payload");
  log.network.append(0, std::move(r));
  NetworkLogEntry err;
  err.kind = EventKind::kSockConnect;
  err.event_num = 0;
  err.error = NetErrorCode::kConnectionRefused;
  log.network.append(1, std::move(err));
  NetworkLogEntry dg;
  dg.kind = EventKind::kUdpReceive;
  dg.event_num = 1;
  dg.dg_id = DgNetworkEventId{2, 9999};
  dg.value = 12345;
  log.network.append(1, std::move(dg));
  return log;
}

TEST(Serializer, RoundTripIdentity) {
  VmLog log = sample_log();
  Bytes data = serialize(log);
  VmLog back = deserialize(data);

  EXPECT_EQ(back.vm_id, log.vm_id);
  EXPECT_EQ(back.stats, log.stats);
  EXPECT_EQ(back.schedule, log.schedule);
  EXPECT_TRUE(back.network == log.network);
  // Re-serialization is byte-identical (canonical form).
  EXPECT_EQ(serialize(back), data);
}

TEST(Serializer, CorruptionRejected) {
  Bytes data = serialize(sample_log());
  for (std::size_t pos : {std::size_t{0}, std::size_t{9}, data.size() / 2,
                          data.size() - 5}) {
    Bytes bad = data;
    bad[pos] ^= 0x40;
    EXPECT_THROW(deserialize(bad), LogFormatError) << "flip at " << pos;
  }
}

TEST(Serializer, TruncationRejected) {
  Bytes data = serialize(sample_log());
  for (std::size_t keep : {std::size_t{0}, std::size_t{4}, data.size() - 1}) {
    Bytes bad(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW(deserialize(bad), LogFormatError) << "keep " << keep;
  }
}

TEST(Serializer, TrailingGarbageRejected) {
  Bytes data = serialize(sample_log());
  // Valid CRC over extended body would be needed; just appending breaks the
  // CRC, which is also a rejection path.
  data.push_back(0);
  EXPECT_THROW(deserialize(data), LogFormatError);
}

TEST(Serializer, BadMagicRejected) {
  Bytes data = serialize(sample_log());
  data[0] = 'X';
  EXPECT_THROW(deserialize(data), LogFormatError);
}

TEST(Serializer, FileRoundTrip) {
  VmLog log = sample_log();
  std::string path = testing::TempDir() + "/djvu_serializer_test.djvulog";
  save_to_file(log, path);
  VmLog back = load_from_file(path);
  EXPECT_EQ(serialize(back), serialize(log));
  std::remove(path.c_str());
}

// A small log fits in the stdio buffer, so a full disk fails only at the
// flush; the save must still throw.
TEST(Serializer, SaveToFullDiskThrows) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  ASSERT_LT(serialize(sample_log()).size(), 4096u);
  EXPECT_THROW(save_to_file(sample_log(), "/dev/full"), Error);
}

TEST(Serializer, MissingFileThrows) {
  EXPECT_THROW(load_from_file("/nonexistent/dir/x.djvulog"), Error);
}

TEST(Serializer, IntervalEncodingIsCompact) {
  // The paper: "a schedule interval [typically consists] of thousands of
  // critical events, all of which can be efficiently encoded by two ...
  // counter values."  A giant interval costs the same as a tiny one.
  VmLog small;
  small.vm_id = 1;
  small.schedule.per_thread = {{{0, 9}}};
  VmLog huge;
  huge.vm_id = 1;
  huge.schedule.per_thread = {{{0, 1000000}}};
  // The delta encoding makes the huge interval at most a few bytes larger.
  EXPECT_LE(serialize(huge).size(), serialize(small).size() + 4);
}

TEST(Serializer, ManyThreadsManyIntervals) {
  Xoshiro256 rng(5);
  VmLog log;
  log.vm_id = 3;
  GlobalCount g = 0;
  log.schedule.per_thread.resize(32);
  for (int i = 0; i < 2000; ++i) {
    auto t = static_cast<std::size_t>(rng.next_below(32));
    GlobalCount len = rng.next_below(50) + 1;
    log.schedule.per_thread[t].push_back({g, g + len - 1});
    g += len + rng.next_below(3) + 1;
  }
  VmLog back = deserialize(serialize(log));
  EXPECT_EQ(back.schedule, log.schedule);
}

/// A bundle with a valid CRC whose sections are `body` (everything after
/// the stats varints), for hostile-count tests: the CRC certifies nothing
/// about the counts inside.
Bytes crc_valid_bundle(std::uint16_t version,
                       const std::vector<std::uint64_t>& body) {
  ByteWriter w;
  w.raw(BytesView(reinterpret_cast<const std::uint8_t*>("DJVULOG1"), 8));
  w.u16(version);
  w.u32(1);      // vm_id
  w.varint(0);   // critical_events
  w.varint(0);   // network_events
  for (std::uint64_t v : body) w.varint(v);
  w.u32(crc32(w.view()));
  return w.take();
}

TEST(Serializer, HostileCountsAreFormatErrors) {
  const std::uint64_t huge = std::uint64_t{1} << 40;
  // 2^40 schedule threads, 2^40 intervals in one thread, 2^40 causal
  // threads (v3), 2^40 causal seqs in one thread: each must end in
  // LogFormatError, never in a 2^40-entry allocation.
  const Bytes cases[] = {
      crc_valid_bundle(1, {huge}),
      crc_valid_bundle(1, {1, huge, 0, 0}),
      crc_valid_bundle(3, {0, 0, huge}),
      crc_valid_bundle(3, {0, 0, 1, huge, 0}),
  };
  for (const Bytes& data : cases) {
    EXPECT_THROW(deserialize(data), LogFormatError);
  }
}

TEST(TextExport, MentionsKeyFields) {
  std::string text = to_text(sample_log());
  EXPECT_NE(text.find("vm=7"), std::string::npos);
  EXPECT_NE(text.find("sock-accept"), std::string::npos);
  EXPECT_NE(text.find("client=<vm3,t1,e2>"), std::string::npos);
  EXPECT_NE(text.find("error=refused"), std::string::npos);
  EXPECT_NE(text.find("dg=<vm2,gc9999>"), std::string::npos);
  EXPECT_NE(text.find("[0,10]"), std::string::npos);
}

TEST(LogPayloadSize, ExcludesFraming) {
  VmLog log = sample_log();
  EXPECT_EQ(log_payload_size(log), serialize(log).size() - 18);
  EXPECT_EQ(kLogFramingBytes, 18u);
}

TEST(LogPayloadSize, BufferOverloadMatchesLogOverload) {
  VmLog log = sample_log();
  const Bytes serialized = serialize(log);
  // The buffer overload must agree with the serialize-internally overload,
  // and both must pin payload == bundle − framing.
  EXPECT_EQ(log_payload_size(serialized), log_payload_size(log));
  EXPECT_EQ(log_payload_size(serialized), serialized.size() - kLogFramingBytes);
}

}  // namespace
}  // namespace djvu::record
