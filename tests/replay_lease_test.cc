// Interval-leased replay: record→replay equivalence with leasing on and
// off, stride publication on long intervals, and divergence detection
// inside a lease.
//
// The leasing argument (docs/INTERNALS.md §1b): within a logical schedule
// interval every event belongs to the leaseholder, so one await at the
// interval head plus one publication at its end replays the identical
// total order with thread-local bookkeeping in between.  These tests
// exercise the claim end to end — threads × monitors × sockets between two
// DJVMs — and assert the replayed trace digest is bit-identical under both
// protocols.  Run under the TSan preset, they also prove the lease
// hand-off itself is race-free.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/session.h"
#include "record/serializer.h"
#include "tests/test_util.h"
#include "vm/monitor.h"
#include "vm/shared_var.h"
#include "vm/socket_api.h"
#include "vm/thread.h"
#include "vm/vm.h"

namespace djvu {
namespace {

constexpr int kThreads = 4;
constexpr int kVars = 4;
constexpr int kItersPerThread = 100;
constexpr int kMessages = 8;

// Same stress shape as record_sharding_test: every thread touches every
// var, a monitor-protected tally, and a live socket pair — so leases open
// and close across every replay gateway kind.
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
    Bytes msg = to_bytes("m" + std::to_string(m) + "x");
    msg.resize(4, '!');
    sock->output_stream().write(msg);
    Bytes echo = testutil::read_exactly(*sock, 4);
    if (echo != msg) throw Error("echo mismatch");
  }
  sock->close();
  for (auto& th : threads) th.join();
}

core::Session make_stress(bool leasing) {
  core::SessionConfig cfg;
  cfg.tuning.replay_leasing = leasing;
  core::Session s(cfg);
  s.add_vm("server", 1, true, server_main);
  s.add_vm("client", 2, true, client_main);
  return s;
}

// One recording, replayed under both protocols: identical digests, and the
// stats prove which protocol actually ran (leases taken vs pure ticks).
TEST(ReplayLease, LeaseOnOffDigestEquivalence) {
  core::Session leased = make_stress(/*leasing=*/true);
  core::Session plain = make_stress(/*leasing=*/false);

  auto rec = leased.record(401);
  auto rep_lease = leased.replay(rec, 402);
  auto rep_plain = plain.replay(rec, 403);
  core::verify(rec, rep_lease);
  core::verify(rec, rep_plain);

  for (const char* name : {"server", "client"}) {
    const auto& r = rec.vm(name);
    const auto& pl = rep_lease.vm(name);
    const auto& pp = rep_plain.vm(name);
    EXPECT_NE(r.trace_digest, 0u) << name;
    EXPECT_EQ(r.trace_digest, pl.trace_digest) << name;
    EXPECT_EQ(r.trace_digest, pp.trace_digest) << name;
    EXPECT_EQ(r.critical_events, pl.critical_events) << name;
    EXPECT_EQ(r.critical_events, pp.critical_events) << name;

    // Leased replay: every non-exact event ran under a lease, and the
    // atomic publications collapsed to ~(#intervals + #events/stride).
    EXPECT_GT(pl.sched.leases_taken, 0u) << name;
    EXPECT_GT(pl.sched.leased_events, 0u) << name;
    EXPECT_LE(pl.sched.lease_publish_count, pl.sched.leased_events) << name;
    // The paper-faithful baseline: no leases, one tick per event.
    EXPECT_EQ(pp.sched.leases_taken, 0u) << name;
    EXPECT_EQ(pp.sched.leased_events, 0u) << name;
    EXPECT_EQ(pp.sched.lease_publish_count, 0u) << name;
    EXPECT_GE(pp.sched.ticks, pl.sched.leased_events) << name;
  }
}

// A long single-thread burst forms one interval several strides long: the
// leaseholder must publish progress mid-lease, and the total number of
// publications still stays far below the event count (the acceptance
// criterion: lease_publish_count < leased_events).
TEST(ReplayLease, LongIntervalStridePublishes) {
  constexpr std::uint64_t kStride = vm::kLeasePublishStride;
  auto build = [] {
    core::SessionConfig cfg;
    cfg.tuning.replay_leasing = true;
    core::Session s(cfg);
    s.add_vm("app", 1, true, [](vm::Vm& v) {
      vm::SharedVar<std::uint64_t> x(v, 0);
      // Main runs alone first: one maximal interval of ~6000 events, close
      // to six strides.
      for (int i = 0; i < 3000; ++i) x.set(x.get() + 1);
      // Then a child whose first event must wait out the tail of main's
      // lease — woken by a stride or lease-end publication, never by a
      // per-event tick.
      vm::VmThread t(v, [&x] {
        for (int i = 0; i < 20; ++i) x.set(x.get() + 1);
      });
      t.join();
    });
    return s;
  };

  core::Session s = build();
  auto rec = s.record(501);
  auto rep = s.replay(rec, 502);
  core::verify(rec, rep);

  const auto& sched = rep.vm("app").sched;
  EXPECT_EQ(rec.vm("app").trace_digest, rep.vm("app").trace_digest);
  EXPECT_GT(sched.leased_events, 5 * kStride);
  EXPECT_LT(sched.lease_publish_count, sched.leased_events);
  // The long interval really published mid-lease: more publications than
  // intervals (leases), at least ~events/stride of them.
  EXPECT_GT(sched.lease_publish_count, sched.leases_taken);
  EXPECT_GE(sched.lease_publish_count, sched.leased_events / kStride);
}

// An application that attempts an extra critical event mid-lease (more
// iterations than were recorded) must die with the same divergence error
// and message as the per-event protocol — the cursor check runs before any
// leased bookkeeping.
TEST(ReplayLease, ExtraEventMidLeaseDiverges) {
  auto build = [](int iters) {
    core::SessionConfig cfg;
    cfg.tuning.replay_leasing = true;
    cfg.tuning.stall_timeout = std::chrono::milliseconds(400);
    core::Session s(cfg);
    s.add_vm("app", 1, true, [iters](vm::Vm& v) {
      vm::SharedVar<std::uint64_t> x(v, 0);
      for (int i = 0; i < iters; ++i) x.set(x.get() + 1);
    });
    return s;
  };

  auto rec = build(50).record(601);
  std::vector<record::VmLog> logs;
  for (const auto& info : rec.vms) {
    if (info.log) {
      logs.push_back(record::deserialize(record::serialize(*info.log)));
    }
  }
  core::Session longer = build(60);
  try {
    longer.replay_logs(logs, 602);
    FAIL() << "extra events mid-lease must diverge";
  } catch (const ReplayDivergenceError& e) {
    EXPECT_NE(std::string(e.what()).find("recorded schedule"),
              std::string::npos)
        << e.what();
  }
}

// A one-event interval ticks without a lease (docs/INTERNALS.md §1b).  The
// recording has known interval shapes: main and a child alternate strictly,
// one event each — an atomic outside the VM forces the turns in record, so
// replay's order is the same — and then main runs one long burst, several
// lease strides long.  Replay takes one lease per interval of two or more
// events and none for the rest, each turn is one wait, and the replayed
// trace is the recorded one under either protocol.
TEST(ReplayLease, OnlyMultiEventIntervalsTakeALease) {
  constexpr int kAlternations = 200;
  constexpr int kBurst = 3000;
  auto build = [](bool leasing) {
    core::SessionConfig cfg;
    cfg.tuning.replay_leasing = leasing;
    core::Session s(cfg);
    s.add_vm("app", 1, true, [](vm::Vm& v) {
      vm::SharedVar<std::uint64_t> a(v, 0);
      vm::SharedVar<std::uint64_t> b(v, 0);
      std::atomic<int> whose{0};  // 0: main's turn, 1: the child's
      auto await_turn = [&whose](int me) {
        while (whose.load(std::memory_order_acquire) != me) {
          std::this_thread::yield();
        }
      };
      vm::VmThread child(v, [&] {
        for (int i = 0; i < kAlternations; ++i) {
          await_turn(1);
          b.set(static_cast<std::uint64_t>(i));
          whose.store(0, std::memory_order_release);
        }
      });
      for (int i = 0; i < kAlternations; ++i) {
        await_turn(0);
        a.set(static_cast<std::uint64_t>(i));
        whose.store(1, std::memory_order_release);
      }
      await_turn(0);
      for (int i = 0; i < kBurst; ++i) a.set(a.get() + 1);
      child.join();
    });
    return s;
  };

  core::Session leased = build(/*leasing=*/true);
  auto rec = leased.record(801);
  ASSERT_TRUE(rec.vm("app").log.has_value());
  std::uint64_t single = 0, multi = 0, multi_events = 0, longest = 0;
  for (const auto& thread : rec.vm("app").log->schedule.per_thread) {
    for (const sched::LogicalInterval& iv : thread) {
      const std::uint64_t len = iv.last - iv.first + 1;
      longest = std::max(longest, len);
      if (len == 1) {
        ++single;
      } else {
        ++multi;
        multi_events += len;
      }
    }
  }
  // The shapes the app forced: ~2 one-event intervals per alternation, and
  // one burst of at least kBurst events.
  EXPECT_GE(single, 2u * kAlternations - 4);
  EXPECT_GE(longest, static_cast<std::uint64_t>(2 * kBurst));
  EXPECT_LE(multi, 8u);

  auto rep = leased.replay(rec, 802);
  core::verify(rec, rep);
  const sched::SchedStats& rs = rep.vm("app").sched;
  EXPECT_EQ(rs.leases_taken, multi);
  EXPECT_EQ(rs.leased_events, multi_events);
  EXPECT_EQ(rs.ticks, single);
  EXPECT_EQ(rs.waits_fast + rs.waits_parked, rs.ticks + rs.leases_taken);
  EXPECT_EQ(rec.vm("app").trace_digest, rep.vm("app").trace_digest);

  auto plain = build(/*leasing=*/false).replay(rec, 803);
  core::verify(rec, plain);
  EXPECT_EQ(plain.vm("app").sched.leases_taken, 0u);
  EXPECT_EQ(rec.vm("app").trace_digest, plain.vm("app").trace_digest);
}

// Repeated leased replays of one recording agree bit-for-bit (leasing adds
// no scheduling freedom: the recorded total order alone decides).
TEST(ReplayLease, LeasedReplayIsDeterministic) {
  core::Session s = make_stress(/*leasing=*/true);
  auto rec = s.record(701);
  auto rep1 = s.replay(rec, 702);
  auto rep2 = s.replay(rec, 703);
  core::verify(rec, rep1);
  core::verify(rec, rep2);
  EXPECT_EQ(rep1.vm("server").trace_digest, rep2.vm("server").trace_digest);
  EXPECT_EQ(rep1.vm("client").trace_digest, rep2.vm("client").trace_digest);
}

}  // namespace
}  // namespace djvu
