// Failure injection: tampered logs, mismatched applications and corrupt
// bundles must surface as ReplayDivergenceError / LogFormatError — never as
// silent misreplay (invariants I2, I7).

#include <gtest/gtest.h>

#include <functional>

#include "core/session.h"
#include "record/serializer.h"
#include "tests/test_util.h"
#include "vm/datagram_api.h"
#include "vm/shared_var.h"
#include "vm/socket_api.h"
#include "vm/thread.h"

namespace djvu {
namespace {

using core::Session;

Session counter_app(std::uint64_t* out) {
  core::SessionConfig cfg;
  cfg.tuning.stall_timeout = std::chrono::milliseconds(400);  // fast deadlock tests
  Session s(cfg);
  s.add_vm("app", 1, true, [out](vm::Vm& v) {
    vm::SharedVar<std::uint64_t> x(v, 0);
    std::vector<vm::VmThread> threads;
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back(v, [&x] {
        for (int i = 0; i < 50; ++i) x.set(x.get() + 1);
      });
    }
    for (auto& t : threads) t.join();
    if (out != nullptr) *out = x.unsafe_peek();
  });
  return s;
}

std::vector<record::VmLog> logs_of(const core::RunResult& rec) {
  std::vector<record::VmLog> logs;
  for (const auto& info : rec.vms) {
    if (info.log) {
      logs.push_back(record::deserialize(record::serialize(*info.log)));
    }
  }
  return logs;
}

/// Applies `edit` to the first network entry of `kind` in `logs` (a
/// NetworkLog is append-only, so each log is rebuilt); returns whether one
/// was found.
bool edit_first_entry(std::vector<record::VmLog>& logs, sched::EventKind kind,
                      const std::function<void(record::NetworkLogEntry&)>& edit) {
  bool found = false;
  for (auto& log : logs) {
    record::NetworkLog edited;
    for (ThreadNum t : log.network.threads()) {
      for (auto e : log.network.thread_entries(t)) {
        if (!found && e.kind == kind) {
          edit(e);
          found = true;
        }
        edited.append(t, std::move(e));
      }
    }
    log.network = std::move(edited);
  }
  return found;
}

TEST(Divergence, TruncatedScheduleDetected) {
  auto s = counter_app(nullptr);
  auto rec = s.record(1);
  auto logs = logs_of(rec);
  // Drop the last interval of thread 1: that thread now has fewer recorded
  // events than it will attempt.
  ASSERT_FALSE(logs[0].schedule.per_thread[1].empty());
  logs[0].schedule.per_thread[1].pop_back();
  EXPECT_THROW(s.replay_logs(logs, 2), ReplayDivergenceError);
}

TEST(Divergence, ShiftedIntervalDetected) {
  auto s = counter_app(nullptr);
  auto rec = s.record(3);
  auto logs = logs_of(rec);
  // Shift one interval: two threads now claim the same counter values.
  auto& list = logs[0].schedule.per_thread[2];
  ASSERT_FALSE(list.empty());
  list[0].first += 1;
  list[0].last += 1;
  EXPECT_THROW(s.replay_logs(logs, 4), ReplayDivergenceError);
}

TEST(Divergence, WrongAppMoreThreadsDetected) {
  auto s = counter_app(nullptr);
  auto rec = s.record(5);
  auto logs = logs_of(rec);
  // Replay a DIFFERENT application (4 threads instead of 3).
  core::SessionConfig ocfg;
  ocfg.tuning.stall_timeout = std::chrono::milliseconds(400);
  Session other(ocfg);
  other.add_vm("app", 1, true, [](vm::Vm& v) {
    vm::SharedVar<std::uint64_t> x(v, 0);
    std::vector<vm::VmThread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back(v, [&x] {
        for (int i = 0; i < 50; ++i) x.set(x.get() + 1);
      });
    }
    for (auto& t : threads) t.join();
  });
  EXPECT_THROW(other.replay_logs(logs, 6), ReplayDivergenceError);
}

TEST(Divergence, WrongAppFewerEventsDetected) {
  auto s = counter_app(nullptr);
  auto rec = s.record(7);
  auto logs = logs_of(rec);
  core::SessionConfig ocfg;
  ocfg.tuning.stall_timeout = std::chrono::milliseconds(400);
  Session other(ocfg);
  other.add_vm("app", 1, true, [](vm::Vm& v) {
    vm::SharedVar<std::uint64_t> x(v, 0);
    std::vector<vm::VmThread> threads;
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back(v, [&x] {
        for (int i = 0; i < 10; ++i) x.set(x.get() + 1);  // 50 recorded
      });
    }
    for (auto& t : threads) t.join();
  });
  EXPECT_THROW(other.replay_logs(logs, 8), ReplayDivergenceError);
}

TEST(Divergence, MissingVmLogRejected) {
  auto s = counter_app(nullptr);
  auto rec = s.record(9);
  EXPECT_THROW(s.replay_logs({}, 10), UsageError);
}

TEST(Divergence, ReadEntryTamperDetected) {
  core::SessionConfig cfg;
  cfg.tuning.stall_timeout = std::chrono::milliseconds(600);
  Session s(cfg);
  s.add_vm("server", 1, true, [](vm::Vm& v) {
    vm::ServerSocket listener(v, 5000);
    auto sock = listener.accept();
    Bytes data = testutil::read_exactly(*sock, 8);
    sock->close();
    listener.close();
  });
  s.add_vm("client", 2, true, [](vm::Vm& v) {
    auto sock = testutil::connect_retry(v, {1, 5000});
    sock->output_stream().write(Bytes(8, 0x55));
    sock->close();
  });
  auto rec = s.record(11);
  auto logs = logs_of(rec);
  // Inflate a recorded read count beyond what the stream will ever carry:
  // replay must fail (EOF before the recorded byte count) — not hang,
  // because the writer side half-closes on socket close.
  // Only the server reads.
  ASSERT_TRUE(edit_first_entry(logs, sched::EventKind::kSockRead,
                               [](record::NetworkLogEntry& e) {
                                 ASSERT_TRUE(e.value && *e.value > 0);
                                 e.value = *e.value + 1000;
                               }));
  EXPECT_THROW(s.replay_logs(logs, 12), ReplayDivergenceError);
}

/// Replays `logs`, which must raise a network mismatch at an event of
/// `kind` rather than serve the tampered entry.
void expect_network_mismatch(Session& s, const std::vector<record::VmLog>& logs,
                             sched::EventKind kind) {
  try {
    s.replay_logs(logs, 50);
    ADD_FAILURE() << "tampered " << sched::event_kind_name(kind)
                  << " entry replayed cleanly";
  } catch (const sched::ReportedDivergenceError& e) {
    EXPECT_EQ(e.cause(), DivergenceCause::kNetworkMismatch) << e.what();
    EXPECT_TRUE(e.report().event_known);
    EXPECT_EQ(e.report().event, kind) << e.what();
  }
}

Session udp_create_app() {
  Session s;
  s.add_vm("app", 1, true, [](vm::Vm& v) {
    vm::DatagramSocket sock(v, 4800);
    sock.close();
  });
  return s;
}

// A replayed call that finds an entry of another kind diverges: here a UDP
// create whose entry says time read would otherwise bind the clock value.
TEST(Divergence, EntryOfAnotherKindIsANetworkMismatch) {
  Session s = udp_create_app();
  auto logs = logs_of(s.record(40));
  ASSERT_TRUE(edit_first_entry(logs, sched::EventKind::kUdpCreate,
                               [](record::NetworkLogEntry& e) {
                                 e.kind = sched::EventKind::kTimeRead;
                                 e.value = 1760000000123;  // a clock reading
                               }));
  expect_network_mismatch(s, logs, sched::EventKind::kUdpCreate);
}

// Success entries stripped of the field their kind needs
// (record::missing_field) diverge instead of replaying.
TEST(Divergence, UdpCreateWithoutPortIsANetworkMismatch) {
  Session s = udp_create_app();
  auto logs = logs_of(s.record(41));
  ASSERT_TRUE(edit_first_entry(logs, sched::EventKind::kUdpCreate,
                               [](record::NetworkLogEntry& e) {
                                 e.value.reset();
                               }));
  expect_network_mismatch(s, logs, sched::EventKind::kUdpCreate);
}

TEST(Divergence, BindWithoutPortIsANetworkMismatch) {
  Session s;
  s.add_vm("app", 1, true, [](vm::Vm& v) {
    vm::ServerSocket listener(v, 5100);
    listener.close();
  });
  auto logs = logs_of(s.record(42));
  ASSERT_TRUE(edit_first_entry(logs, sched::EventKind::kSockBind,
                               [](record::NetworkLogEntry& e) {
                                 e.value.reset();
                               }));
  expect_network_mismatch(s, logs, sched::EventKind::kSockBind);
}

/// A DJVM server and a plain (non-DJVM) client: replay runs the server
/// alone, from its accept and read entries (the open-world scheme, §5).
Session open_world_server() {
  Session s;
  s.add_vm("server", 1, true, [](vm::Vm& v) {
    vm::ServerSocket listener(v, 5200);
    auto sock = listener.accept();
    testutil::read_exactly(*sock, 8);
    sock->close();
    listener.close();
  });
  s.add_vm("client", 2, /*djvm=*/false, [](vm::Vm& v) {
    auto sock = testutil::connect_retry(v, {1, 5200});
    sock->output_stream().write(Bytes(8, 0x66));
    sock->close();
  });
  return s;
}

TEST(Divergence, AcceptWithoutPeerIsANetworkMismatch) {
  Session s = open_world_server();
  auto logs = logs_of(s.record(43));
  ASSERT_TRUE(edit_first_entry(logs, sched::EventKind::kSockAccept,
                               [](record::NetworkLogEntry& e) {
                                 e.value.reset();
                                 e.conn_id.reset();
                               }));
  expect_network_mismatch(s, logs, sched::EventKind::kSockAccept);
}

TEST(Divergence, ReadWithoutCountOrContentIsANetworkMismatch) {
  Session s = open_world_server();
  auto logs = logs_of(s.record(44));
  ASSERT_TRUE(edit_first_entry(logs, sched::EventKind::kSockRead,
                               [](record::NetworkLogEntry& e) {
                                 e.value.reset();
                                 e.data.reset();
                               }));
  expect_network_mismatch(s, logs, sched::EventKind::kSockRead);
}

// A byte count without content cannot feed a virtual (open-world) socket,
// which has no connection to read the bytes from.
TEST(Divergence, VirtualReadWithoutContentIsANetworkMismatch) {
  Session s = open_world_server();
  auto logs = logs_of(s.record(45));
  ASSERT_TRUE(edit_first_entry(logs, sched::EventKind::kSockRead,
                               [](record::NetworkLogEntry& e) {
                                 e.data.reset();
                               }));
  expect_network_mismatch(s, logs, sched::EventKind::kSockRead);
}

TEST(Divergence, VerifyCatchesCrossRunMismatch) {
  // verify() must reject a "replay" whose trace differs — simulated here by
  // recording two applications that differ by one extra critical event.
  auto sa = counter_app(nullptr);
  auto rec_a = sa.record(100);

  core::SessionConfig cfg;
  cfg.tuning.stall_timeout = std::chrono::milliseconds(400);
  Session sb(cfg);
  sb.add_vm("app", 1, true, [](vm::Vm& v) {
    vm::SharedVar<std::uint64_t> x(v, 0);
    std::vector<vm::VmThread> threads;
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back(v, [&x] {
        for (int i = 0; i < 50; ++i) x.set(x.get() + 1);
      });
    }
    for (auto& t : threads) t.join();
    x.get();  // one extra event
  });
  auto rec_b = sb.record(100);
  EXPECT_THROW(core::verify(rec_a, rec_b), ReplayDivergenceError);
}

/// The fields core::verify reads, copied out of `run` (a RunResult's logs
/// are move-only).
core::RunResult trace_copy(const core::RunResult& run) {
  core::RunResult out;
  for (const auto& vm : run.vms) {
    core::VmRunInfo info;
    info.name = vm.name;
    info.vm_id = vm.vm_id;
    info.djvm = vm.djvm;
    info.set_trace({vm.trace()});
    out.vms.push_back(std::move(info));
  }
  return out;
}

/// Runs core::verify(recorded, replayed), which must throw a trace
/// mismatch, and returns the report it threw.
sched::DivergenceReport verify_report(const core::RunResult& recorded,
                                      const core::RunResult& replayed) {
  try {
    core::verify(recorded, replayed);
  } catch (const sched::ReportedDivergenceError& e) {
    EXPECT_EQ(e.cause(), DivergenceCause::kTraceMismatch);
    EXPECT_EQ(e.what(), e.report().detail);
    return e.report();
  }
  ADD_FAILURE() << "verify accepted a differing trace";
  return {};
}

TEST(Divergence, VerifyReportsTamperedPayloadPosition) {
  auto s = counter_app(nullptr);
  const auto rec = s.record(4);
  ASSERT_EQ(rec.vms.size(), 1u);
  ASSERT_GT(rec.vms[0].trace().size(), 40u);
  EXPECT_NO_THROW(core::verify(rec, trace_copy(rec)));

  // Same schedule, one different payload: only the trace shows it.
  core::RunResult rep = trace_copy(rec);
  auto trace = rep.vms[0].trace();
  const std::size_t i = 37;
  trace[i].aux ^= 1;
  rep.vms[0].set_trace({trace});
  const sched::DivergenceReport d = verify_report(rec, rep);
  EXPECT_EQ(d.vm_name, "app");
  EXPECT_EQ(d.gc, trace[i].gc);
  EXPECT_NE(d.detail.find("diverged at trace position " + std::to_string(i)),
            std::string::npos)
      << d.detail;
}

TEST(Divergence, VerifyReportsDroppedLastRecord) {
  auto s = counter_app(nullptr);
  const auto rec = s.record(5);
  core::RunResult rep = trace_copy(rec);
  auto trace = rep.vms[0].trace();
  ASSERT_FALSE(trace.empty());
  trace.pop_back();
  rep.vms[0].set_trace({trace});
  const sched::DivergenceReport d = verify_report(rec, rep);
  EXPECT_NE(d.detail.find("trace length differs"), std::string::npos)
      << d.detail;
}

// Removes the last `k` recorded critical events from a thread's interval
// list, returning the gc values that were removed (ascending).
std::vector<GlobalCount> truncate_tail(sched::IntervalList& list,
                                       GlobalCount k) {
  std::vector<GlobalCount> removed;
  while (k > 0 && !list.empty()) {
    auto& iv = list.back();
    if (iv.length() <= k) {
      for (GlobalCount g = iv.first; g <= iv.last; ++g) removed.push_back(g);
      k -= iv.length();
      list.pop_back();
    } else {
      for (GlobalCount g = iv.last - k + 1; g <= iv.last; ++g) {
        removed.push_back(g);
      }
      iv.last -= k;
      k = 0;
    }
  }
  std::sort(removed.begin(), removed.end());
  return removed;
}

GlobalCount total_events(const sched::IntervalList& list) {
  GlobalCount n = 0;
  for (const auto& iv : list) n += iv.length();
  return n;
}

// The forensics acceptance matrix: an injected divergence (a worker's
// recorded tail truncated by 3 events) must yield a DivergenceReport whose
// thread, expected interval and counter position match the injection point
// in every tuning mode — {leasing on/off} x {1 stripe (the single section),
// 64 stripes}.  The blamed
// thread attempts events beyond its (tampered) schedule, which is an
// affirmative kBeyondSchedule in blame order regardless of which victim
// thread's stall or poison unwound first.
TEST(Divergence, ReportMatchesInjectionAcrossTuningModes) {
  constexpr ThreadNum kVictim = 2;
  constexpr GlobalCount kCut = 3;
  for (const bool leasing : {false, true}) {
    for (const std::size_t stripes : {std::size_t{1}, std::size_t{64}}) {
      core::SessionConfig cfg;
      cfg.tuning.stall_timeout = std::chrono::milliseconds(400);
      cfg.tuning.replay_leasing = leasing;
      cfg.tuning.record_stripes = stripes;
      Session s(cfg);
      s.add_vm("app", 1, true, [](vm::Vm& v) {
        vm::SharedVar<std::uint64_t> x(v, 0);
        std::vector<vm::VmThread> threads;
        for (int t = 0; t < 3; ++t) {
          threads.emplace_back(v, [&x] {
            for (int i = 0; i < 50; ++i) x.set(x.get() + 1);
          });
        }
        for (auto& t : threads) t.join();
      });
      auto rec = s.record(21);
      auto logs = logs_of(rec);
      auto& victim_list = logs[0].schedule.per_thread[kVictim];
      const GlobalCount recorded = total_events(victim_list);
      ASSERT_GT(recorded, kCut);
      const std::vector<GlobalCount> removed =
          truncate_tail(victim_list, kCut);
      ASSERT_EQ(removed.size(), kCut);
      ASSERT_FALSE(victim_list.empty());
      const sched::LogicalInterval tampered_last = victim_list.back();

      try {
        s.replay_logs(logs, 22);
        FAIL() << "tampered log replayed cleanly (leasing=" << leasing
               << " stripes=" << stripes << ")";
      } catch (const sched::ReportedDivergenceError& e) {
        const sched::DivergenceReport& r = e.report();
        // The report names the injection point, in every mode.
        EXPECT_EQ(r.cause, DivergenceCause::kBeyondSchedule)
            << "leasing=" << leasing << " stripes=" << stripes;
        EXPECT_EQ(r.thread, kVictim);
        EXPECT_TRUE(r.affirmative());
        EXPECT_TRUE(r.schedule_exhausted);
        ASSERT_TRUE(r.has_interval);
        EXPECT_EQ(r.expected_interval, tampered_last);
        EXPECT_EQ(r.thread_events_replayed, recorded - kCut);
        EXPECT_EQ(r.divergence_gc(), tampered_last.last + 1);
        // The recent-event ring ends at the victim's last replayed event.
        ASSERT_FALSE(r.recent.empty());
        EXPECT_EQ(r.recent.back().gc, tampered_last.last);
        EXPECT_EQ(r.recent.back().thread, kVictim);
        // The run's pooled reports are blame-ordered: affirmative first.
        ASSERT_FALSE(e.all_reports().empty());
        EXPECT_TRUE(e.all_reports().front().affirmative());
      }
    }
  }
}

// Deterministic multi-VM blame: when two independent DJVMs both diverge,
// the session must select the report with the LOWEST divergence position,
// not whichever VM's thread unwound first.
TEST(Divergence, MultiVmSelectsLowestGcDivergence) {
  core::SessionConfig cfg;
  cfg.tuning.stall_timeout = std::chrono::milliseconds(400);
  Session s(cfg);
  for (const char* name : {"a", "b"}) {
    s.add_vm(name, name[0] == 'a' ? 1 : 2, true, [](vm::Vm& v) {
      vm::SharedVar<std::uint64_t> x(v, 0);
      std::vector<vm::VmThread> threads;
      for (int t = 0; t < 2; ++t) {
        threads.emplace_back(v, [&x] {
          for (int i = 0; i < 30; ++i) x.set(x.get() + 1);
        });
      }
      for (auto& t : threads) t.join();
    });
  }
  auto rec = s.record(31);
  auto logs = logs_of(rec);
  ASSERT_EQ(logs.size(), 2u);

  // Cut VM a's thread-1 tail shallowly and VM b's deeply: b usually
  // diverges at a lower counter position.  Each VM records its own
  // interleaving, though, so under load a's thread 1 can finish before b's
  // starts and a diverges lower.  Blame must land on the lower position
  // (a tie goes to the lower vm id) whichever VM finishes unwinding first.
  GlobalCount expected_gc[2] = {0, 0};
  for (std::size_t i = 0; i < 2; ++i) {
    auto& list = logs[i].schedule.per_thread[1];
    truncate_tail(list, i == 0 ? 2 : 20);
    ASSERT_FALSE(list.empty());
    expected_gc[i] = list.back().last + 1;
  }
  const std::size_t blamed = expected_gc[1] < expected_gc[0] ? 1 : 0;
  const char* names[2] = {"a", "b"};

  try {
    s.replay_logs(logs, 32);
    FAIL() << "tampered logs replayed cleanly";
  } catch (const sched::ReportedDivergenceError& e) {
    EXPECT_EQ(e.report().vm_id, logs[blamed].vm_id);
    EXPECT_EQ(e.report().vm_name, names[blamed]);
    EXPECT_EQ(e.report().divergence_gc(), expected_gc[blamed]);
    EXPECT_EQ(e.report().cause, DivergenceCause::kBeyondSchedule);
    // Both VMs are represented in the pooled reports.
    bool saw_other = false;
    for (const auto& r : e.all_reports()) {
      saw_other = saw_other || (r.vm_name == names[1 - blamed]);
    }
    EXPECT_TRUE(saw_other);
  }
}

TEST(Divergence, CorruptFileNeverReplays) {
  auto s = counter_app(nullptr);
  auto rec = s.record(13);
  Bytes data = record::serialize(*rec.vm("app").log);
  for (std::size_t stride = 1; stride < data.size(); stride += 37) {
    Bytes bad = data;
    bad[stride] ^= 0x10;
    EXPECT_THROW(record::deserialize(bad), LogFormatError);
  }
}

}  // namespace
}  // namespace djvu
