// Concurrent record→replay equivalence under sharded GC-critical sections.
//
// The sharding argument (docs/INTERNALS.md): events on independent objects
// may record concurrently because the counter order restricted to any one
// object still equals that object's access order, and replay's total-order
// enforcement linearizes all per-object orders.  These tests exercise the
// claim end to end — N threads hammering M SharedVars, monitor-protected
// state, and a live socket pair between two DJVMs — and assert the replayed
// trace digest is bit-identical to the recorded one, at 64 stripes and at
// one stripe (the paper's single section).  Run under the TSan preset, they
// also prove the stripe table itself is race-free.

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "core/session.h"
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

void server_main(vm::Vm& v) {
  vm::ServerSocket listener(v, 4500);

  // The threaded shared-state workload: every thread touches every var
  // (cross-thread per-object conflicts) and a monitor-protected tally.
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

  // Socket pair: accept one client and echo its messages while the worker
  // threads churn the shared state.
  auto conn = listener.accept();
  for (int m = 0; m < kMessages; ++m) {
    Bytes msg = testutil::read_exactly(*conn, 4);
    conn->output_stream().write(msg);
  }
  conn->close();

  for (auto& th : threads) th.join();
}

void client_main(vm::Vm& v) {
  // The client runs its own racy threads too, so both VMs exercise the
  // sharded record path.
  vm::SharedVar<std::uint64_t> local(v, 0);
  std::vector<vm::VmThread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back(v, [&] {
      for (int i = 0; i < kItersPerThread; ++i) local.set(local.get() + 1);
    });
  }
  auto sock = testutil::connect_retry(v, {1, 4500});
  for (int m = 0; m < kMessages; ++m) {
    std::string text = "m";
    text += std::to_string(m);
    text += 'x';
    Bytes msg = to_bytes(text);
    msg.resize(4, '!');
    sock->output_stream().write(msg);
    Bytes echo = testutil::read_exactly(*sock, 4);
    if (echo != msg) throw Error("echo mismatch");
  }
  sock->close();
  for (auto& th : threads) th.join();
}

void run_stress(std::size_t stripes, std::uint64_t seed) {
  core::SessionConfig cfg;
  cfg.tuning.record_stripes = stripes;
  core::Session s(cfg);
  s.add_vm("server", 1, true, server_main);
  s.add_vm("client", 2, true, client_main);

  auto rec = s.record(seed);
  auto rep = s.replay(rec, seed + 1);
  core::verify(rec, rep);  // throws on the first divergence

  for (const char* name : {"server", "client"}) {
    const auto& r = rec.vm(name);
    const auto& p = rep.vm(name);
    EXPECT_NE(r.trace_digest, 0u) << name;
    EXPECT_EQ(r.trace_digest, p.trace_digest) << name;
    EXPECT_EQ(r.critical_events, p.critical_events) << name;
    // The stats plumbing reports the layout the record phase actually used.
    EXPECT_EQ(r.sched.stripe_count, stripes) << name;
    // Replay never enters a section: its counter has the one-stripe table.
    EXPECT_EQ(p.sched.stripe_count, 1u) << name;
  }
}

TEST(RecordSharding, ConcurrentRecordReplayEquivalenceSharded) {
  run_stress(/*stripes=*/64, 101);
}

TEST(RecordSharding, ConcurrentRecordReplayEquivalenceSingleSection) {
  run_stress(/*stripes=*/1, 202);
}

// A log recorded under sharding carries no layout dependence: the same
// recording replays to the same digest regardless of who replays it, and
// repeated replays agree with each other.
TEST(RecordSharding, ShardedRecordingReplaysRepeatedly) {
  core::SessionConfig cfg;
  cfg.tuning.record_stripes = 64;
  core::Session s(cfg);
  s.add_vm("server", 1, true, server_main);
  s.add_vm("client", 2, true, client_main);
  auto rec = s.record(303);
  auto rep1 = s.replay(rec, 304);
  auto rep2 = s.replay(rec, 305);
  core::verify(rec, rep1);
  core::verify(rec, rep2);
  EXPECT_EQ(rep1.vm("server").trace_digest, rep2.vm("server").trace_digest);
  EXPECT_EQ(rep1.vm("client").trace_digest, rep2.vm("client").trace_digest);
}

// 0 stripes names no section at all: the record refuses to start.
TEST(RecordSharding, ZeroStripesIsAUsageError) {
  core::SessionConfig cfg;
  cfg.tuning.record_stripes = 0;
  core::Session s(cfg);
  s.add_vm("client", 2, true, [](vm::Vm&) {});
  EXPECT_THROW(s.record(404), UsageError);
}

}  // namespace
}  // namespace djvu
