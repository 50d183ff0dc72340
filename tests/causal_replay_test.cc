// Causal partial-order record/replay (order_mode = causal).
//
// The causal-mode claim (docs/INTERNALS.md §1d): recording a per-key
// sequence number for every critical event captures enough of the order to
// replay deterministically, while letting events on independent keys replay
// in parallel.  These tests drive the claim end to end — the digest matrix
// {order_mode} × {record_stripes} × {replay_leasing}, cross-mode replay of
// the same recording, the spooled path, the refusal cases — plus unit tests
// for the per-object order cells (vm::Conflict) and their waits.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <new>
#include <optional>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/crc32.h"
#include "core/session.h"
#include "net/network.h"
#include "record/serializer.h"
#include "tests/test_util.h"
#include "vm/monitor.h"
#include "vm/shared_var.h"
#include "vm/socket_api.h"
#include "vm/thread.h"
#include "vm/vm.h"

namespace djvu {
namespace {

using sched::TurnCell;
using sched::TurnGate;

/// A stand-alone gate, as a Vm's counter owns one.  `me` is the test
/// thread's tally; other threads claim their own.
struct Gate {
  explicit Gate(std::chrono::milliseconds stall_timeout =
                    std::chrono::milliseconds(10000))
      : gate(stall_timeout), me(gate.tally()) {}
  TurnGate gate;
  sched::TurnTally& me;
};

/// The configuration of a stand-alone causal-order Vm in `mode`.
vm::VmConfig causal_config(vm::Mode mode) {
  vm::VmConfig cfg;
  cfg.vm_id = 1;
  cfg.host = 1;
  cfg.mode = mode;
  cfg.tuning.order_mode = OrderMode::kCausal;
  return cfg;
}

// ---------------------------------------------------------------------------
// Order cell unit tests.

// Record numbers each object's events from 0 in its own cell, and the
// thread's own events in the thread's cell.  An object built in a dead
// one's storage starts afresh.
TEST(CausalCell, ObjectsNumberTheirOwnEvents) {
  using Var = vm::SharedVar<std::uint64_t>;
  vm::Vm v(std::make_shared<net::Network>(),
           causal_config(vm::Mode::kRecord));
  v.attach_main();
  {
    Var a(v, 0);
    Var b(v, 0);
    a.set(1);                                          // a: 0
    a.get();                                           // a: 1
    b.set(2);                                          // b: 0
    v.mark_event(sched::EventKind::kSharedWrite, 0);   // thread: 0
    a.set(3);                                          // a: 2
    b.get();                                           // b: 1
    v.mark_event(sched::EventKind::kSharedWrite, 0);   // thread: 1
  }
  alignas(Var) unsigned char storage[sizeof(Var)];
  Var* c = new (storage) Var(v, 0);
  c->set(4);  // 0 — no order inherited from the storage's last tenant
  c->~Var();
  v.detach_current();
  const record::VmLog log = v.finish_record();
  ASSERT_EQ(log.causal.per_thread.size(), 1u);
  EXPECT_EQ(log.causal.per_thread[0],
            (std::vector<std::uint64_t>{0, 1, 0, 0, 2, 1, 1, 0}));
}

TEST(CausalCell, AwaitSeqZeroNeverBlocks) {
  Gate g;
  TurnCell cell{0};
  EXPECT_EQ(g.gate.wait(cell, 0, g.me), 0u);  // no predecessor
  g.gate.advance(cell);
  EXPECT_EQ(g.gate.wait(cell, 1, g.me), 1u);  // the publication arrived
  EXPECT_EQ(g.gate.stats().waits_fast, 2u);
  EXPECT_EQ(g.gate.stats().waits_parked, 0u);
}

TEST(CausalCell, AwaitBlocksUntilPredecessorPublishes) {
  Gate g;
  TurnCell cell{0};
  g.gate.runner_began();
  std::atomic<bool> passed{false};
  std::thread waiter([&] {
    g.gate.runner_began();
    // Needs two same-cell publications first.
    EXPECT_EQ(g.gate.wait(cell, 2, g.gate.tally()), 2u);
    passed.store(true);
    g.gate.runner_ended();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(passed.load());
  g.gate.advance(cell);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(passed.load());  // one publication is not enough
  g.gate.advance(cell);
  waiter.join();
  EXPECT_TRUE(passed.load());
  g.gate.runner_ended();
}

TEST(CausalCell, IndependentCellsDoNotWaitOnEachOther) {
  Gate g;
  TurnCell busy{0};
  TurnCell other{0};
  // `other`'s first event proceeds regardless of `busy`'s pending history.
  g.gate.advance(busy);
  EXPECT_EQ(g.gate.wait(other, 0, g.me), 0u);
  g.gate.advance(other);
  EXPECT_EQ(g.gate.wait(other, 1, g.me), 1u);
  EXPECT_EQ(g.gate.stats().waits_fast, 2u);
}

// A cell already past the event's recorded seq means the per-key order and
// the execution disagree: the Vm reports kCounterPassed.  Here the log
// gives the thread's second thread-local event seq 0 again.
TEST(CausalCell, PassedSeqIsCounterPassed) {
  auto log = std::make_shared<record::VmLog>();
  log->vm_id = 1;
  log->schedule.per_thread = {{sched::LogicalInterval{0, 1}}};
  log->causal.per_thread = {{0, 0}};
  log->stats.critical_events = 2;
  vm::Vm v(std::make_shared<net::Network>(),
           causal_config(vm::Mode::kReplay), log);
  v.attach_main();
  v.mark_event(sched::EventKind::kSharedWrite, 0);
  std::optional<DivergenceCause> cause;
  try {
    v.mark_event(sched::EventKind::kSharedWrite, 0);
  } catch (const ReplayDivergenceError& e) {
    cause = e.cause();
  }
  v.detach_current();
  EXPECT_EQ(cause, DivergenceCause::kCounterPassed);
}

TEST(CausalCell, PoisonUnblocksParkedWaiter) {
  Gate g;
  TurnCell cell{0};
  g.gate.runner_began();
  std::thread waiter([&] {
    g.gate.runner_began();
    EXPECT_THROW(g.gate.wait(cell, 5, g.gate.tally()), ReplayDivergenceError);
    g.gate.runner_ended();
  });
  while (g.gate.stats().waits_parked == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  g.gate.poison();
  waiter.join();
  TurnCell fresh{0};
  // Future waits throw too, even ones whose turn has come.
  EXPECT_THROW(g.gate.wait(fresh, 0, g.me), ReplayDivergenceError);
  g.gate.runner_ended();
}

// A cell wait spins before it parks, like GlobalCounter::await; a poison
// that lands during the spin must unwind it as kPoisoned without it ever
// parking.  Retried because a preempted waiter may park first.
TEST(CausalCell, PoisonWhileSpinningThrowsPoisoned) {
  if (!TurnGate(std::chrono::milliseconds(10000)).spins()) {
    GTEST_SKIP() << "spinning needs two CPUs";
  }
  constexpr int kAttempts = 200;
  for (int i = 0; i < kAttempts; ++i) {
    Gate g;
    TurnCell cell{0};
    std::optional<DivergenceCause> cause;
    testutil::race_spinner(
        [&] {
          try {
            g.gate.wait(cell, 5, g.gate.tally());
          } catch (const ReplayDivergenceError& e) {
            cause = e.cause();
          }
        },
        [&] { g.gate.poison(); });
    ASSERT_EQ(cause, DivergenceCause::kPoisoned);
    if (g.gate.stats().waits_parked == 0) {
      EXPECT_EQ(g.gate.stats().waits_spun, 0u);
      return;
    }
  }
  FAIL() << "the waiter parked before the poison in every attempt";
}

TEST(CausalCell, CertainStallWhenEveryRunnerIsParked) {
  // One registered runner, and it parks: nobody can ever publish, so the
  // detector fires after a single quiet window instead of the grace factor.
  Gate g(std::chrono::milliseconds(50));
  TurnCell cell{0};
  g.gate.runner_began();
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(g.gate.wait(cell, 1, g.me), ReplayDivergenceError);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(50) *
                         TurnGate::kStallGraceFactor);
  g.gate.runner_ended();
}

// A causal stall is a turn-gate stall like any other: the Vm's SchedStats
// count it, and the parked wait behind it, with no causal special case.
TEST(CausalCell, CausalStallCountsInVmSchedStats) {
  auto log = std::make_shared<record::VmLog>();
  log->vm_id = 1;
  log->schedule.per_thread = {{sched::LogicalInterval{0, 0}}};
  log->causal.per_thread = {{5}};  // five same-key predecessors never come
  log->stats.critical_events = 1;
  vm::VmConfig cfg = causal_config(vm::Mode::kReplay);
  cfg.tuning.stall_timeout = std::chrono::milliseconds(50);
  vm::Vm v(std::make_shared<net::Network>(), cfg, log);
  v.attach_main();
  std::optional<DivergenceCause> cause;
  try {
    v.mark_event(sched::EventKind::kSharedWrite, 0);
  } catch (const ReplayDivergenceError& e) {
    cause = e.cause();
  }
  v.detach_current();
  EXPECT_EQ(cause, DivergenceCause::kStall);
  const sched::SchedStats s = v.sched_stats();
  EXPECT_EQ(s.stall_detections, 1u);
  EXPECT_EQ(s.waits_parked, 1u);
  EXPECT_EQ(s.max_parked_waiters, 1u);
  EXPECT_GE(s.total_wait_micros, 50'000u);
}

// ---------------------------------------------------------------------------
// End-to-end digest matrix.
//
// Same two-VM stress shape as record_sharding_test: racy threads over
// several SharedVars, a monitor-protected tally, and a live socket pair, so
// the causal path sees per-object, thread-local, monitor, registry (spawn)
// and network keys all at once.

constexpr int kThreads = 4;
constexpr int kVars = 4;
constexpr int kItersPerThread = 50;
constexpr int kMessages = 6;

void server_main(vm::Vm& v) {
  vm::ServerSocket listener(v, 4600);

  std::vector<std::unique_ptr<vm::SharedVar<std::uint64_t>>> vars;
  for (int i = 0; i < kVars; ++i) {
    vars.push_back(std::make_unique<vm::SharedVar<std::uint64_t>>(v, 0));
  }
  vm::Monitor mon(v);
  vm::SharedVar<std::uint64_t> tally(v, 0);

  std::vector<vm::VmThread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(v, [&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        auto& var = *vars[(t + i) % kVars];
        var.set(var.get() + 1);  // racy on purpose
        if (i % 5 == 0) {
          vm::Monitor::Synchronized sync(mon);
          tally.set(tally.get() + 1);
        }
      }
    });
  }

  auto conn = listener.accept();
  for (int m = 0; m < kMessages; ++m) {
    Bytes msg = testutil::read_exactly(*conn, 4);
    conn->output_stream().write(msg);
  }
  conn->close();
  for (auto& th : threads) th.join();
}

void client_main(vm::Vm& v) {
  vm::SharedVar<std::uint64_t> local(v, 0);
  std::vector<vm::VmThread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back(v, [&] {
      for (int i = 0; i < kItersPerThread; ++i) local.set(local.get() + 1);
    });
  }
  auto sock = testutil::connect_retry(v, {1, 4600});
  for (int m = 0; m < kMessages; ++m) {
    Bytes msg = to_bytes("c" + std::to_string(m) + "y");
    msg.resize(4, '!');
    sock->output_stream().write(msg);
    Bytes echo = testutil::read_exactly(*sock, 4);
    if (echo != msg) throw Error("echo mismatch");
  }
  sock->close();
  for (auto& th : threads) th.join();
}

core::Session make_session(OrderMode mode, std::size_t stripes,
                           bool leasing) {
  core::SessionConfig cfg;
  cfg.tuning.order_mode = mode;
  cfg.tuning.record_stripes = stripes;
  cfg.tuning.replay_leasing = leasing;
  core::Session s(cfg);
  s.add_vm("server", 1, true, server_main);
  s.add_vm("client", 2, true, client_main);
  return s;
}

void expect_equal_digests(const core::RunResult& rec,
                          const core::RunResult& rep) {
  core::verify(rec, rep);  // throws on the first divergence
  for (const char* name : {"server", "client"}) {
    const auto& r = rec.vm(name);
    const auto& p = rep.vm(name);
    EXPECT_NE(r.trace_digest, 0u) << name;
    EXPECT_EQ(r.trace_digest, p.trace_digest) << name;
    EXPECT_EQ(r.critical_events, p.critical_events) << name;
  }
}

void run_matrix(OrderMode mode, std::size_t stripes, bool leasing,
                std::uint64_t seed) {
  core::Session s = make_session(mode, stripes, leasing);
  auto rec = s.record(seed);
  auto rep = s.replay(rec, seed + 1);
  expect_equal_digests(rec, rep);
}

TEST(CausalReplay, DigestEquivalenceCausalSharded) {
  run_matrix(OrderMode::kCausal, /*stripes=*/64, /*leasing=*/true, 11);
}

TEST(CausalReplay, DigestEquivalenceCausalSingleSection) {
  run_matrix(OrderMode::kCausal, /*stripes=*/1, /*leasing=*/true, 22);
}

TEST(CausalReplay, DigestEquivalenceCausalLeasingFlagIgnored) {
  // replay_leasing is a total-order knob; causal replay must behave
  // identically with it off.
  run_matrix(OrderMode::kCausal, /*stripes=*/64, /*leasing=*/false, 33);
}

TEST(CausalReplay, DigestEquivalenceTotalBaseline) {
  // The paper-faithful ablation arm of the same matrix.
  run_matrix(OrderMode::kTotal, /*stripes=*/64, /*leasing=*/true, 44);
}

// ---------------------------------------------------------------------------
// Cross-mode: one causal recording, both replay modes.

std::vector<record::VmLog> collect_logs(const core::RunResult& rec) {
  // VmLog is move-only; clone through the serializer (as session.cc does).
  std::vector<record::VmLog> logs;
  for (const auto& info : rec.vms) {
    if (info.log) {
      logs.push_back(record::deserialize(record::serialize(*info.log)));
    }
  }
  return logs;
}

TEST(CausalReplay, CausalRecordingReplaysUnderTotalOrder) {
  // A causal recording carries the full total order too (the schedule
  // intervals are unchanged), so a total-order session replays it to the
  // same digest.
  core::Session rec_s =
      make_session(OrderMode::kCausal, /*stripes=*/64, /*leasing=*/true);
  auto rec = rec_s.record(55);
  const auto logs = collect_logs(rec);
  core::Session rep_s =
      make_session(OrderMode::kTotal, /*stripes=*/64, /*leasing=*/true);
  auto rep = rep_s.replay_logs(logs, 56);
  expect_equal_digests(rec, rep);
}

TEST(CausalReplay, TotalRecordingRefusedUnderCausalReplay) {
  // A total-order recording has no per-key data; causal replay must refuse
  // up front instead of stalling mid-run.
  core::Session rec_s =
      make_session(OrderMode::kTotal, /*stripes=*/64, /*leasing=*/true);
  auto rec = rec_s.record(66);
  const auto logs = collect_logs(rec);
  core::Session rep_s =
      make_session(OrderMode::kCausal, /*stripes=*/64, /*leasing=*/true);
  EXPECT_THROW(rep_s.replay_logs(logs, 67), UsageError);
}

TEST(CausalReplay, CausalRecordingSerializesRoundTrip) {
  // The v2 bundle (with the causal section) survives serialize/deserialize
  // and still replays causally.
  core::Session rec_s =
      make_session(OrderMode::kCausal, /*stripes=*/64, /*leasing=*/true);
  auto rec = rec_s.record(77);
  std::vector<record::VmLog> logs;
  for (const auto& info : rec.vms) {
    if (info.log) {
      logs.push_back(record::deserialize(record::serialize(*info.log)));
      EXPECT_FALSE(logs.back().causal.empty());
    }
  }
  core::Session rep_s =
      make_session(OrderMode::kCausal, /*stripes=*/64, /*leasing=*/true);
  auto rep = rep_s.replay_logs(logs, 78);
  expect_equal_digests(rec, rep);
}

// Varint-encoded byte length of v — mirrors ByteWriter::varint.
std::size_t varint_len(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

TEST(CausalReplay, DeltaPackedCausalSectionRoundTripsAndShrinks) {
  // v3 packs the causal section as first-seq + zigzag deltas.  Per-key seqs
  // in one thread's stream wander around nearby values, so the deltas are
  // small even when the absolutes have grown large — the packed section must
  // be materially smaller than the raw-varint (v2) layout, and the roundtrip
  // must be exact.
  record::VmLog log;
  log.vm_id = 3;
  log.causal.per_thread.resize(2);
  // Large absolutes (3-byte varints) with small interleaved-key wander
  // (1-byte zigzag deltas) — the realistic late-run shape.
  for (std::uint64_t i = 0; i < 512; ++i) {
    log.causal.per_thread[0].push_back(100000 + i + (i % 3));
    log.causal.per_thread[1].push_back(250000 + i - (i % 5));
  }
  log.stats.critical_events = log.causal.event_count();

  const Bytes packed = record::serialize(log);
  const record::VmLog back = record::deserialize(packed);
  EXPECT_EQ(back.causal, log.causal);
  EXPECT_EQ(back.vm_id, log.vm_id);

  // Size check: subtract the causal-free bundle to isolate the section,
  // then compare against what raw varint absolutes (v2) would have cost.
  // (VmLog is move-only, so rebuild the baseline instead of copying.)
  record::VmLog base;
  base.vm_id = log.vm_id;
  base.stats = log.stats;
  const std::size_t packed_causal =
      packed.size() - record::serialize(base).size();
  std::size_t raw_causal = varint_len(log.causal.per_thread.size());
  for (const auto& list : log.causal.per_thread) {
    raw_causal += varint_len(list.size());
    for (std::uint64_t s : list) raw_causal += varint_len(s);
  }
  EXPECT_LT(packed_causal * 2, raw_causal)
      << "delta packing should at least halve the causal section here";

  // Compatibility: a hand-built v2 bundle (raw varint absolutes) still
  // loads to the same causal log.
  ByteWriter w;
  w.raw(BytesView(reinterpret_cast<const std::uint8_t*>("DJVULOG1"), 8));
  w.u16(2).u32(log.vm_id);
  w.varint(log.stats.critical_events).varint(log.stats.network_events);
  w.varint(0);  // schedule: no threads
  w.varint(0);  // network: no threads
  w.varint(log.causal.per_thread.size());
  for (const auto& list : log.causal.per_thread) {
    w.varint(list.size());
    for (std::uint64_t s : list) w.varint(s);
  }
  w.u32(crc32(w.view()));
  const record::VmLog v2 = record::deserialize(w.view());
  EXPECT_EQ(v2.causal, log.causal);
}

TEST(CausalReplay, SpooledCausalRecordingReplaysFromDisk) {
  const std::string dir =
      ::testing::TempDir() + "causal_replay_test_spool";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  core::SessionConfig cfg;
  cfg.tuning.order_mode = OrderMode::kCausal;
  cfg.tuning.spool_dir = dir;
  // Small chunks force many flush boundaries through the causal batches.
  cfg.tuning.spool_chunk_bytes = 512;
  core::Session s(cfg);
  s.add_vm("server", 1, true, server_main);
  s.add_vm("client", 2, true, client_main);
  auto rec = s.record(88);
  auto rep = s.replay_from(rec.recording(), 89);
  expect_equal_digests(rec, rep);
  std::filesystem::remove_all(dir);
}

// The allocator reuses storage in different patterns in record and replay.
// Here record builds the second variable where the first one died and
// replay builds it elsewhere: the dead variable's order must not leak into
// its successor's.
TEST(CausalReplay, DeadObjectsOrderDoesNotPassToItsAddress) {
  core::SessionConfig cfg;
  cfg.tuning.order_mode = OrderMode::kCausal;
  cfg.tuning.stall_timeout = std::chrono::milliseconds(200);
  core::Session s(cfg);
  s.add_vm("solo", 1, true, [](vm::Vm& v) {
    using Var = vm::SharedVar<std::uint64_t>;
    alignas(Var) unsigned char first[sizeof(Var)];
    alignas(Var) unsigned char elsewhere[sizeof(Var)];
    Var* a = new (first) Var(v, 0);
    a->set(1);
    a->set(2);
    a->~Var();
    Var* b = new (v.mode() == vm::Mode::kRecord ? first : elsewhere) Var(v, 0);
    b->set(3);
    b->~Var();
  });
  auto rec = s.record(5);
  auto rep = s.replay(rec, 6);
  core::verify(rec, rep);
}

// The same for an object whose constructor throws after marking events:
// a refused connect marks its create and its failure on the socket, then
// throws out of the constructor.  Record builds the next object in the
// failed socket's storage, replay builds it elsewhere.
TEST(CausalReplay, RefusedConnectsOrderDoesNotPassToItsStorage) {
  core::SessionConfig cfg;
  cfg.tuning.order_mode = OrderMode::kCausal;
  cfg.tuning.stall_timeout = std::chrono::milliseconds(200);
  core::Session s(cfg);
  s.add_vm("solo", 1, true, [](vm::Vm& v) {
    using Var = vm::SharedVar<std::uint64_t>;
    constexpr std::size_t kSize = std::max(sizeof(vm::Socket), sizeof(Var));
    alignas(vm::Socket) alignas(Var) unsigned char first[kSize];
    alignas(vm::Socket) alignas(Var) unsigned char elsewhere[kSize];
    bool refused = false;
    try {
      new (first) vm::Socket(v, {1, 4999});  // nothing listens there
    } catch (const vm::SocketException&) {
      refused = true;
    }
    if (!refused) throw Error("connect to a closed port succeeded");
    Var* b = new (v.mode() == vm::Mode::kRecord ? first : elsewhere) Var(v, 0);
    b->set(3);
    b->get();
    b->~Var();
  });
  auto rec = s.record(7);
  auto rep = s.replay(rec, 8);
  core::verify(rec, rep);
}

TEST(CausalReplay, RepeatedCausalReplaysAgree) {
  core::Session s =
      make_session(OrderMode::kCausal, /*stripes=*/64, /*leasing=*/true);
  auto rec = s.record(99);
  auto rep1 = s.replay(rec, 100);
  auto rep2 = s.replay(rec, 101);
  core::verify(rec, rep1);
  core::verify(rec, rep2);
  EXPECT_EQ(rep1.vm("server").trace_digest, rep2.vm("server").trace_digest);
  EXPECT_EQ(rep1.vm("client").trace_digest, rep2.vm("client").trace_digest);
}

}  // namespace
}  // namespace djvu
