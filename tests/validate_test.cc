// Tests for record::validate (semantic log linting) and the non-atomic
// SharedVar storage path (mutex-guarded cells for types like std::string).

#include <gtest/gtest.h>

#include <string>

#include "core/session.h"
#include "record/validate.h"
#include "vm/shared_var.h"
#include "vm/thread.h"

namespace djvu {
namespace {

record::VmLog good_log() {
  record::VmLog log;
  log.vm_id = 1;
  log.stats.critical_events = 10;
  log.stats.network_events = 1;
  log.schedule.per_thread = {{{0, 4}, {7, 9}}, {{5, 6}}};
  record::NetworkLogEntry read;
  read.kind = sched::EventKind::kSockRead;
  read.event_num = 0;
  read.value = 3;
  log.network.append(0, std::move(read));
  return log;
}

TEST(Validate, AcceptsGoodLog) {
  EXPECT_TRUE(record::validate(good_log()).empty());
  EXPECT_NO_THROW(record::validate_or_throw(good_log()));
}

TEST(Validate, AcceptsRealRecording) {
  core::Session s;
  s.add_vm("app", 1, true, [](vm::Vm& v) {
    vm::SharedVar<std::uint64_t> x(v, 0);
    std::vector<vm::VmThread> threads;
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back(v, [&x] {
        for (int i = 0; i < 30; ++i) x.set(x.get() + 1);
      });
    }
    for (auto& t : threads) t.join();
  });
  auto rec = s.record(1);
  EXPECT_TRUE(record::validate(*rec.vm("app").log).empty());
}

TEST(Validate, DetectsInvertedInterval) {
  auto log = good_log();
  log.schedule.per_thread[0][0] = {4, 0};
  EXPECT_FALSE(record::validate(log).empty());
  EXPECT_THROW(record::validate_or_throw(log), LogFormatError);
}

TEST(Validate, DetectsOverlap) {
  auto log = good_log();
  log.schedule.per_thread[1][0] = {4, 6};  // overlaps thread 0's [0,4]
  auto problems = record::validate(log);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("overlap"), std::string::npos);
}

TEST(Validate, DetectsGap) {
  auto log = good_log();
  log.schedule.per_thread[1].clear();  // counters 5,6 now unclaimed
  auto problems = record::validate(log);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("gap"), std::string::npos);
}

TEST(Validate, DetectsStatsMismatch) {
  auto log = good_log();
  log.stats.critical_events = 99;
  EXPECT_FALSE(record::validate(log).empty());
}

TEST(Validate, DetectsOrphanNetworkThread) {
  auto log = good_log();
  record::NetworkLogEntry e;
  e.kind = sched::EventKind::kSockRead;
  e.event_num = 0;
  e.value = 1;
  log.network.append(9, std::move(e));  // thread 9 never scheduled
  log.stats.network_events = 2;
  EXPECT_FALSE(record::validate(log).empty());
}

TEST(Validate, DetectsEmptySuccessfulRead) {
  auto log = good_log();
  record::NetworkLogEntry e;
  e.kind = sched::EventKind::kSockRead;
  e.event_num = 1;  // neither value nor data
  log.network.append(0, std::move(e));
  log.stats.network_events = 2;
  EXPECT_FALSE(record::validate(log).empty());
}

/// good_log() plus one successful entry of `kind`, filled by `fill`, and
/// the problems validate() finds in it.
std::vector<std::string> problems_with(
    sched::EventKind kind, void (*fill)(record::NetworkLogEntry&) = nullptr) {
  auto log = good_log();
  record::NetworkLogEntry e;
  e.kind = kind;
  e.event_num = 1;
  if (fill != nullptr) fill(e);
  log.network.append(0, std::move(e));
  log.stats.network_events = 2;
  return record::validate(log);
}

/// Expects exactly one problem, naming the entry's kind and missing field.
void expect_missing(const std::vector<std::string>& problems,
                    const std::string& what) {
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find(what), std::string::npos) << problems[0];
}

TEST(Validate, DetectsAvailableWithoutCount) {
  expect_missing(problems_with(sched::EventKind::kSockAvailable),
                 "successful sock-available entry without its value");
}

TEST(Validate, DetectsBindWithoutPort) {
  expect_missing(problems_with(sched::EventKind::kSockBind),
                 "successful sock-bind entry without its value");
}

TEST(Validate, DetectsUdpCreateWithoutPort) {
  expect_missing(problems_with(sched::EventKind::kUdpCreate),
                 "successful udp-create entry without its value");
}

TEST(Validate, DetectsTimeReadWithoutValue) {
  expect_missing(problems_with(sched::EventKind::kTimeRead),
                 "successful time-read entry without its value");
}

TEST(Validate, DetectsOpenWorldConnectWithoutOutcome) {
  expect_missing(problems_with(sched::EventKind::kSockConnect),
                 "successful sock-connect entry without its value");
}

TEST(Validate, DetectsUdpReceiveWithoutSourceOrDatagram) {
  expect_missing(problems_with(sched::EventKind::kUdpReceive,
                               [](record::NetworkLogEntry& e) {
                                 e.dg_id = DgNetworkEventId{2, 7};
                               }),
                 "successful udp-receive entry without its source address");
  expect_missing(problems_with(sched::EventKind::kUdpReceive,
                               [](record::NetworkLogEntry& e) {
                                 e.value = 1;
                               }),
                 "without its datagram id or content");
  EXPECT_TRUE(problems_with(sched::EventKind::kUdpReceive,
                            [](record::NetworkLogEntry& e) {
                              e.value = 1;
                              e.data = Bytes{1, 2};
                            })
                  .empty());
}

// The field rule covers successes only: a recorded exception carries none.
TEST(Validate, AcceptsFailuresWithoutFields) {
  for (auto kind : {sched::EventKind::kSockRead, sched::EventKind::kSockBind,
                    sched::EventKind::kSockAccept,
                    sched::EventKind::kUdpReceive}) {
    EXPECT_TRUE(problems_with(kind, [](record::NetworkLogEntry& e) {
                  e.error = NetErrorCode::kTimedOut;
                }).empty())
        << sched::event_kind_name(kind);
  }
}

TEST(Validate, DetectsNonNetworkKindInNetworkLog) {
  auto log = good_log();
  record::NetworkLogEntry e;
  e.kind = sched::EventKind::kSharedRead;
  e.event_num = 1;
  e.value = 1;
  log.network.append(0, std::move(e));
  log.stats.network_events = 2;
  EXPECT_FALSE(record::validate(log).empty());
}

// SharedVar with a non-lock-free type exercises the mutex-guarded cell.
TEST(SharedVarString, RacyStringAppendsReplay) {
  core::Session s;
  std::string recorded, replayed;
  bool recording = true;
  s.add_vm("app", 1, true, [&](vm::Vm& v) {
    vm::SharedVar<std::string> text(v, "");
    std::vector<vm::VmThread> threads;
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back(v, [&text, t] {
        for (int i = 0; i < 20; ++i) {
          // Racy read-modify-write on a string: interleavings lose chunks.
          std::string cur = text.get();
          text.set(cur + static_cast<char>('a' + t));
        }
      });
    }
    for (auto& t : threads) t.join();
    (recording ? recorded : replayed) = text.unsafe_peek();
  });
  auto rec = s.record(3);
  recording = false;
  auto rep = s.replay(rec, 4);
  core::verify(rec, rep);
  EXPECT_EQ(recorded, replayed);
  EXPECT_LE(recorded.size(), 60u);
}

}  // namespace
}  // namespace djvu
