// Unit tests for src/sched: global counter, GC-critical section, turn gate,
// logical interval detection, replay cursors, traces.

#include <gtest/gtest.h>

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/cpus.h"
#include "common/rng.h"
#include "core/session.h"
#include "record/log_stats.h"
#include "sched/global_counter.h"
#include "sched/interval.h"
#include "sched/thread_registry.h"
#include "sched/trace.h"
#include "sched/turn_gate.h"
#include "tests/test_util.h"
#include "vm/shared_var.h"
#include "vm/thread.h"

namespace djvu::sched {
namespace {

TEST(GlobalCounter, TickAssignsSequentialValues) {
  GlobalCounter c;
  TurnTally& me = c.tally();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(c.tick(me), 0u);
  EXPECT_EQ(c.tick(me), 1u);
  EXPECT_EQ(c.value(), 2u);
}

TEST(GlobalCounter, WithSectionIsAtomicAcrossThreads) {
  GlobalCounter c;  // one stripe: the paper's single section
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<GlobalCount> seen[kThreads];
  // Each thread uses its own key, and every body bumps one PLAIN int: with
  // one stripe, different keys must still exclude each other (any overlap
  // is a lost update, and a TSan report).
  int plain = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TurnTally& mine = c.tally();
      for (int i = 0; i < kPerThread; ++i) {
        c.with_section(SectionKey(0x100u + t), mine, [&](GlobalCount g) {
          seen[t].push_back(g);
          ++plain;
        });
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), GlobalCount{kThreads * kPerThread});
  EXPECT_EQ(plain, kThreads * kPerThread);
  // All assigned values are unique (no two events shared a counter value).
  std::vector<GlobalCount> all;
  for (auto& v : seen) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], i);
}

// The one-stripe table is the paper's single GC-critical section: an event
// on a different key cannot enter while another event's section is open,
// and the two get consecutive counter values in section order.
TEST(GlobalCounter, OneStripeSerializesDifferentKeys) {
  GlobalCounter c(std::chrono::milliseconds(10000), /*record_stripes=*/1);
  std::atomic<bool> inside{false};
  bool first_done = false;  // plain: written and read only under sections
  GlobalCount first = 0;
  std::thread holder([&] {
    first = c.with_section(SectionKey{1}, c.tally(), [&](GlobalCount) {
      inside.store(true, std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      first_done = true;
    });
  });
  while (!inside.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  bool saw_first_done = false;
  const GlobalCount second =
      c.with_section(SectionKey{2}, c.tally(),
                     [&](GlobalCount) { saw_first_done = first_done; });
  holder.join();
  EXPECT_TRUE(saw_first_done) << "a different key entered the open section";
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(second, 1u);
  const SchedStats s = c.stats();
  EXPECT_EQ(s.stripe_count, 1u);
  EXPECT_EQ(s.sections, 2u);
  EXPECT_EQ(s.stripe_waits, 1u);
  EXPECT_EQ(s.max_stripe_collisions, 1u);
}

TEST(GlobalCounter, AwaitReleasesInOrder) {
  GlobalCounter c;
  std::vector<int> order;
  std::mutex m;
  std::vector<std::thread> threads;
  // Three threads wait for turns 2, 1, 0; ticking releases them in order.
  for (int turn = 0; turn < 3; ++turn) {
    threads.emplace_back([&, turn] {
      TurnTally& mine = c.tally();
      c.await(static_cast<GlobalCount>(turn), mine);
      {
        std::lock_guard<std::mutex> lock(m);
        order.push_back(turn);
      }
      c.tick(mine);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(GlobalCounter, AwaitPastValueThrows) {
  GlobalCounter c;
  TurnTally& me = c.tally();
  c.tick(me);
  c.tick(me);
  EXPECT_THROW(c.await(0, me), ReplayDivergenceError);
}

// The thundering-herd regression test: with many threads round-robinning
// turns, each tick must wake only the thread whose turn arrived.  Total
// wakeups (delivered + spurious) stay O(1) per tick, not O(waiters).
TEST(GlobalCounter, RoundRobinWakesOnlyTurnHolder) {
  GlobalCounter c;
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TurnTally& mine = c.tally();
      for (int r = 0; r < kRounds; ++r) {
        c.await(static_cast<GlobalCount>(r * kThreads + t), mine);
        c.tick(mine);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), GlobalCount{kThreads * kRounds});

  const SchedStats s = c.stats();
  EXPECT_EQ(s.ticks, std::uint64_t{kThreads * kRounds});
  EXPECT_EQ(s.waits_fast + s.waits_parked, std::uint64_t{kThreads * kRounds});
  // Every parked wait is released by exactly one targeted notification, so
  // delivered wakeups never exceed parked waits...
  EXPECT_LE(s.wakeups_delivered, s.waits_parked);
  // ...and total wakeups never exceed one per counter increment — the O(1)
  // bound a broadcast design (O(waiters) per tick) cannot meet once
  // waits_parked is large.
  EXPECT_LE(s.wakeups_delivered + s.wakeups_spurious, s.ticks);
  // ~0: the targeted design never broadcasts, so the only spurious wakes
  // left are OS-level ones (tolerated, but rare enough to bound tightly).
  EXPECT_LE(s.wakeups_spurious, 2u);
  EXPECT_EQ(s.stall_detections, 0u);
  // At most every thread is counted at once (a released waiter stays in the
  // parked count until it wakes, so the ticker can re-park for its next
  // round before the wakee has left).
  EXPECT_LE(s.max_parked_waiters, std::uint64_t{kThreads});
}

TEST(GlobalCounter, StatsDistinguishFastAndParkedWaits) {
  GlobalCounter c;
  TurnTally& me = c.tally();
  c.await(0, me);  // turn already arrived: lock-free fast path
  EXPECT_EQ(c.stats().waits_fast, 1u);
  EXPECT_EQ(c.stats().waits_parked, 0u);

  // Value is 0: must park.
  std::thread waiter([&] { c.await(1, c.tally()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  c.tick(me);
  waiter.join();

  const SchedStats s = c.stats();
  EXPECT_EQ(s.ticks, 1u);
  EXPECT_EQ(s.waits_fast, 1u);
  EXPECT_EQ(s.waits_parked, 1u);
  EXPECT_LE(s.wakeups_delivered, 1u);
  EXPECT_GE(s.total_wait_micros, s.max_wait_micros);
}

TEST(GlobalCounter, WithSectionCountsSections) {
  GlobalCounter c;
  TurnTally& me = c.tally();
  c.with_section(SectionKey{1}, me, [](GlobalCount) {});
  c.with_section(SectionKey{2}, me, [](GlobalCount) {});
  const SchedStats s = c.stats();
  EXPECT_EQ(s.sections, 2u);
  EXPECT_EQ(s.ticks, 0u);
}

// Every per-event count lives in the tally of the thread that did the
// work, and stats() sums them exactly — read while the writers run, and
// again once they are done.
TEST(GlobalCounter, PerThreadTalliesSumExactly) {
  GlobalCounter c(std::chrono::milliseconds(10000), /*record_stripes=*/8);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::atomic<int> running{kThreads};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TurnTally& mine = c.tally();
      for (int i = 0; i < kPerThread; ++i) {
        c.with_section(SectionKey(0x100u + t), mine, [](GlobalCount) {});
        // The replay-side counts, bumped straight: no turn order needed.
        mine.waits_fast.add();
        mine.leases_taken.add();
        mine.leased_events.add(static_cast<std::uint64_t>(t) + 1);
      }
      running.fetch_sub(1);
    });
  }
  // A concurrent reader sees every count only grow.
  SchedStats last;
  while (running.load() != 0) {
    const SchedStats now = c.stats();
    EXPECT_GE(now.sections, last.sections);
    EXPECT_GE(now.waits_fast, last.waits_fast);
    EXPECT_GE(now.leased_events, last.leased_events);
    last = now;
  }
  for (auto& th : threads) th.join();
  const SchedStats s = c.stats();
  const std::uint64_t total = std::uint64_t{kThreads} * kPerThread;
  EXPECT_EQ(s.sections, total);
  EXPECT_EQ(s.waits_fast, total);
  EXPECT_EQ(s.leases_taken, total);
  // Thread t adds t + 1 per round: kPerThread * (1 + 2 + ... + kThreads).
  EXPECT_EQ(s.leased_events,
            std::uint64_t{kPerThread} * kThreads * (kThreads + 1) / 2);
  EXPECT_EQ(s.ticks, 0u);
  EXPECT_EQ(s.waits_spun, 0u);
  EXPECT_EQ(s.lease_publish_count, 0u);
  EXPECT_EQ(c.value(), total);
}

TEST(GlobalCounter, ShardedSectionsAssignUniqueValues) {
  GlobalCounter c(std::chrono::milliseconds(10000), /*record_stripes=*/8);
  EXPECT_EQ(c.record_stripes(), 8u);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<GlobalCount> seen[kThreads];
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TurnTally& mine = c.tally();
      for (int i = 0; i < kPerThread; ++i) {
        // Alternate between a per-thread key and one shared hot key, so
        // both the independent and the colliding paths are exercised.
        const SectionKey key = (i % 3 == 0) ? 0xdead : (0x1000u + t);
        c.with_section(key, mine,
                       [&](GlobalCount g) { seen[t].push_back(g); });
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), GlobalCount{kThreads * kPerThread});
  // Every assigned value is unique: fetch_add under the stripe never hands
  // two events the same number, whatever stripe they hashed to.
  std::vector<GlobalCount> all;
  for (auto& v : seen) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < all.size(); ++i) ASSERT_EQ(all[i], i);
  EXPECT_EQ(c.stats().sections, static_cast<std::uint64_t>(all.size()));
}

TEST(GlobalCounter, ShardedSameKeySectionsAreMutuallyExclusive) {
  GlobalCounter c(std::chrono::milliseconds(10000), /*record_stripes=*/16);
  // All threads bump a PLAIN int under the same key; any overlap of the
  // sections would be a lost update (and a TSan report).
  int plain = 0;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      TurnTally& mine = c.tally();
      for (int i = 0; i < kPerThread; ++i) {
        c.with_section(SectionKey{42}, mine, [&](GlobalCount) { ++plain; });
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(plain, kThreads * kPerThread);
}

TEST(GlobalCounter, ExclusiveSectionExcludesEveryStripe) {
  GlobalCounter c(std::chrono::milliseconds(10000), /*record_stripes=*/4);
  // Writers on DIFFERENT keys each own a distinct slot, so they never race
  // each other; the exclusive section reads all slots and must always see
  // a frozen snapshot (sum equals a value no writer is mid-way through).
  int slots[4] = {0, 0, 0, 0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      TurnTally& mine = c.tally();
      while (!stop.load(std::memory_order_relaxed)) {
        c.with_section(SectionKey(0x100u + t), mine, [&](GlobalCount) {
          // Torn on purpose: anyone overlapping this section sees odd sums.
          ++slots[t];
          ++slots[t];
        });
      }
    });
  }
  TurnTally& me = c.tally();
  for (int i = 0; i < 200; ++i) {
    c.with_exclusive_section(me, [&](GlobalCount) {
      const int sum = slots[0] + slots[1] + slots[2] + slots[3];
      EXPECT_EQ(sum % 2, 0) << "exclusive section overlapped a writer";
    });
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : writers) th.join();
}

TEST(GlobalCounter, SectionContentionStatsCountBlockedEntries) {
  GlobalCounter c(std::chrono::milliseconds(10000), /*record_stripes=*/8);
  std::atomic<bool> inside{false};
  std::thread holder([&] {
    c.with_section(SectionKey{7}, c.tally(), [&](GlobalCount) {
      inside.store(true, std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    });
  });
  while (!inside.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  // Same key while the holder sleeps inside: the try_lock must fail and the
  // blocked entry must be counted and timed.
  c.with_section(SectionKey{7}, c.tally(), [](GlobalCount) {});
  holder.join();
  const SchedStats s = c.stats();
  EXPECT_EQ(s.stripe_count, 8u);
  EXPECT_GE(s.stripe_waits, 1u);
  EXPECT_GE(s.section_wait_micros, 1u);
  EXPECT_GE(s.max_stripe_collisions, 1u);
}

TEST(GlobalCounter, DefaultCounterHasOneStripe) {
  GlobalCounter c;
  EXPECT_EQ(c.record_stripes(), 1u);
  TurnTally& me = c.tally();
  GlobalCount a = c.with_section(SectionKey{1}, me, [](GlobalCount) {});
  GlobalCount b = c.with_section(SectionKey{2}, me, [](GlobalCount) {});
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(c.stats().stripe_count, 1u);
  // No stripe names no section at all.
  EXPECT_THROW(GlobalCounter(std::chrono::milliseconds(10000), 0),
               UsageError);
}

// --- Record quantum ---------------------------------------------------------

/// Long enough that no quantum wait in these tests can end by expiry unless
/// the mechanism is broken, and that a busy holder never looks idle (its
/// idle window is 1/8 of it), even under a sanitizer.
constexpr std::chrono::microseconds kLongQuantum = std::chrono::seconds(10);

StripeHold hold_for(std::uint32_t token) {
  StripeHold h;
  h.token = token;
  return h;
}

// A contender on the stripe of a holder that enters no more sections goes
// ahead after the idle window (1/8 of the quantum) instead of waiting out
// the quantum.
TEST(RecordQuantum, IdleHolderIsPassed) {
  GlobalCounter c(std::chrono::milliseconds(10000), /*record_stripes=*/1,
                  std::chrono::milliseconds(80));
  StripeHold holder = hold_for(1);
  StripeHold contender = hold_for(2);
  c.with_section(SectionKey{1}, holder, c.tally(), [](GlobalCount) {});
  std::thread([&] {
    c.with_section(SectionKey{1}, contender, c.tally(), [](GlobalCount) {});
  }).join();
  const SchedStats s = c.stats();
  EXPECT_EQ(s.quantum_waits, 1u);
  EXPECT_EQ(s.quantum_idle, 1u);
  EXPECT_EQ(s.quantum_yielded, 0u);
  EXPECT_EQ(s.quantum_expired, 0u);
  EXPECT_EQ(s.stripe_waits, 0u);  // the mutex itself was never contended
}

// A busy holder that gives its stripe up releases the waiting contender at
// once, and the wait is counted as yielded.  The holder stays busy until
// the contender is known to wait, so an idle end needs the holder to stall
// for the idle window (1.25 s here) between its last section and the
// yield; such an attempt is retried.
TEST(RecordQuantum, YieldEndsTheWaitAsYielded) {
  GlobalCounter c(std::chrono::milliseconds(10000), /*record_stripes=*/1,
                  kLongQuantum);
  bool yielded = false;
  TurnTally& me = c.tally();
  for (int attempt = 0; attempt < 20 && !yielded; ++attempt) {
    StripeHold holder = hold_for(1);
    StripeHold contender = hold_for(2);
    const SchedStats before = c.stats();
    c.with_section(SectionKey{1}, holder, me, [](GlobalCount) {});
    std::thread t([&] {
      c.with_section(SectionKey{1}, contender, c.tally(), [](GlobalCount) {});
      c.yield_stripe(contender);
    });
    while (c.stats().quantum_waits == before.quantum_waits) {
      c.with_section(SectionKey{1}, holder, me, [](GlobalCount) {});
    }
    c.yield_stripe(holder);
    t.join();
    const SchedStats after = c.stats();
    ASSERT_EQ(after.quantum_waits - before.quantum_waits, 1u);
    ASSERT_EQ(after.quantum_expired, 0u);
    yielded = after.quantum_yielded - before.quantum_yielded == 1;
  }
  EXPECT_TRUE(yielded);
}

// A holder that keeps entering sections keeps its stripe for one quantum;
// then the contender goes ahead and the wait is counted as expired.
TEST(RecordQuantum, BusyHolderKeepsTheStripeForOneQuantum) {
  constexpr std::chrono::microseconds kQuantum{2000};
  GlobalCounter c(std::chrono::milliseconds(10000), /*record_stripes=*/1,
                  kQuantum);
  bool expired = false;
  TurnTally& me = c.tally();
  for (int attempt = 0; attempt < 20 && !expired; ++attempt) {
    StripeHold holder = hold_for(1);
    StripeHold contender = hold_for(2);
    const SchedStats before = c.stats();
    c.with_section(SectionKey{1}, holder, me, [](GlobalCount) {});
    std::atomic<bool> done{false};
    std::thread t([&] {
      c.with_section(SectionKey{1}, contender, c.tally(), [](GlobalCount) {});
      c.yield_stripe(contender);
      done.store(true, std::memory_order_release);
    });
    while (!done.load(std::memory_order_acquire)) {
      c.with_section(SectionKey{1}, holder, me, [](GlobalCount) {});
    }
    t.join();
    c.yield_stripe(holder);
    const SchedStats after = c.stats();
    // The holder may wait once too, behind the contender's brief hold.
    ASSERT_GE(after.quantum_waits - before.quantum_waits, 1u);
    ASSERT_LE(after.quantum_waits - before.quantum_waits, 2u);
    expired = after.quantum_expired == before.quantum_expired + 1;
  }
  EXPECT_TRUE(expired);
}

// A thread that gave its stripe up before it blocked (a network event)
// and re-takes it while it is still free restores its old owner word: no
// clock read, and the quantum counts on from the original take.  Taking
// any other stripe in between gives it a fresh word.
TEST(RecordQuantum, RetakingTheYieldedStripeKeepsItsTakeTime) {
  // Two stripes; keys are probed for one on each.
  GlobalCounter c(std::chrono::milliseconds(10000), /*record_stripes=*/2,
                  kLongQuantum);
  TurnTally& me = c.tally();
  StripeHold h = hold_for(1);
  const auto noop = [](GlobalCount) {};
  c.with_section(SectionKey{1}, h, me, noop);
  const std::size_t first_stripe = h.stripe;
  SectionKey other = 2;
  for (;; ++other) {
    StripeHold probe = hold_for(2);
    c.with_section(other, probe, me, noop);
    const std::size_t got = probe.stripe;  // kNone: it collided with h's
    c.yield_stripe(probe);
    if (got != StripeHold::kNone && got != first_stripe) break;
  }
  const std::uint64_t word = h.word;

  c.yield_stripe(h);
  EXPECT_EQ(h.stripe, StripeHold::kNone);
  EXPECT_EQ(h.yielded, first_stripe);
  // Long enough that a fresh take would stamp another microsecond.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  c.with_section(SectionKey{1}, h, me, noop);
  EXPECT_EQ(h.stripe, first_stripe);
  EXPECT_EQ(h.word, word) << "the re-take stamped a new take time";
  EXPECT_EQ(h.yielded, StripeHold::kNone);

  // Yield, move to the other stripe, come back: both takes are fresh.
  c.yield_stripe(h);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  c.with_section(other, h, me, noop);
  EXPECT_NE(h.stripe, first_stripe);
  const std::uint64_t other_word = h.word;
  EXPECT_NE(other_word, word);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  c.with_section(SectionKey{1}, h, me, noop);
  EXPECT_EQ(h.stripe, first_stripe);
  EXPECT_NE(h.word, word);
  EXPECT_NE(h.word, other_word);
  EXPECT_EQ(c.stats().quantum_waits, 0u);
}

/// A recording of 4 threads doing get+set on one SharedVar.
struct HotVarRecording {
  double events_per_interval = 0;
  SchedStats sched;
};

/// Records the hot var under `quantum`, replays it, and checks the replay
/// reproduces the recording's digest.  The threads start together (a spin
/// barrier outside the VM), so their events overlap even when spawning
/// one takes longer than running another to completion.
HotVarRecording record_hot_var(std::chrono::microseconds quantum) {
  core::SessionConfig cfg;
  cfg.tuning.record_quantum = quantum;
  core::Session s(cfg);
  s.add_vm("app", 1, true, [](vm::Vm& v) {
    constexpr int kThreads = 4;
    vm::SharedVar<std::uint64_t> x(v, 0);
    std::atomic<int> arrived{0};
    std::vector<vm::VmThread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back(v, [&x, &arrived] {
        arrived.fetch_add(1);
        while (arrived.load() < kThreads) std::this_thread::yield();
        for (int i = 0; i < 10000; ++i) x.set(x.get() + 1);
      });
    }
    for (auto& t : threads) t.join();
  });
  const core::RunResult rec = s.record(11);
  const core::RunResult rep = s.replay(rec, 12);
  core::verify(rec, rep);
  const core::VmRunInfo& r = rec.vm("app");
  EXPECT_EQ(r.trace_digest, rep.vm("app").trace_digest);
  EXPECT_EQ(r.critical_events, rep.vm("app").critical_events);
  return {record::compute_stats(*r.log).events_per_interval, r.sched};
}

// The point of the quantum: the same program records far fewer, longer
// intervals, and the recording replays to the same digest.  The quantum is
// 2 ms rather than the default so that its idle window (250 us) outlasts
// an event even under ThreadSanitizer, which slows each one past the
// default's 6 us; bench_record_scaling --smoke holds the default to its
// count.  The comparison needs a quantum-0 recording that really
// interleaved: on one usable CPU, or on a host so loaded that the OS
// timeslices the four threads, quantum 0 records coarse runs too, and the
// two counts say nothing about the quantum.
TEST(RecordQuantum, HotVarRecordsCoarserAndReplays) {
  constexpr std::chrono::microseconds kQuantum{2000};
  const HotVarRecording fine = record_hot_var(std::chrono::microseconds(0));
  const HotVarRecording coarse = record_hot_var(kQuantum);
  std::printf("events per interval: quantum 0 %.1f, quantum %lld us %.1f\n",
              fine.events_per_interval,
              static_cast<long long>(kQuantum.count()),
              coarse.events_per_interval);
  if (usable_cpus() >= 2 && fine.events_per_interval < 20) {
    EXPECT_GT(coarse.events_per_interval, 4 * fine.events_per_interval);
  }
}

// Quantum 0 is the section path without a quantum: no wait is ever counted.
TEST(RecordQuantum, ZeroQuantumRecordsNoQuantumWait) {
  const HotVarRecording fine = record_hot_var(std::chrono::microseconds(0));
  EXPECT_EQ(fine.sched.quantum_waits, 0u);
  EXPECT_EQ(fine.sched.quantum_wait_micros, 0u);
  EXPECT_EQ(fine.sched.quantum_idle + fine.sched.quantum_yielded +
                fine.sched.quantum_expired,
            0u);
}

TEST(RecordQuantum, OutOfRangeQuantumIsAUsageError) {
  EXPECT_THROW(GlobalCounter(std::chrono::milliseconds(10000), 1,
                             std::chrono::microseconds(-1)),
               UsageError);
  EXPECT_THROW(GlobalCounter(std::chrono::milliseconds(10000), 1,
                             GlobalCounter::kMaxRecordQuantum +
                                 std::chrono::microseconds(1)),
               UsageError);
}

// A checkpoint-style advance_to jumping past a parked waiter's turn is a
// usage error at the advance_to call site — not a "schedule divergence"
// for the innocent waiter.
TEST(GlobalCounter, AdvanceToSkippingParkedWaiterThrowsUsageError) {
  GlobalCounter c;
  std::thread waiter([&] { c.await(5, c.tally()); });
  while (c.stats().waits_parked == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  try {
    c.advance_to(10);
    FAIL() << "advance_to past a parked waiter should throw UsageError";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("skip"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("5"), std::string::npos);
  }
  EXPECT_EQ(c.value(), 0u);  // the failed advance moved nothing
  c.advance_to(5);           // exactly the waiter's turn is fine
  waiter.join();
  EXPECT_EQ(c.value(), 5u);
}

TEST(GlobalCounter, AdvanceToBackwardsThrows) {
  GlobalCounter c;
  c.advance_to(4);
  EXPECT_THROW(c.advance_to(2), UsageError);
}

// Stall-detector false-positive fix: while some registered runner is NOT
// parked (it may be mid-recorded-read, legitimately slow), a waiter must
// ride out stall windows instead of aborting the replay.
TEST(GlobalCounter, StallHeldOffWhileAnotherRunnerIsActive) {
  GlobalCounter c(std::chrono::milliseconds(100));
  c.runner_began();  // the (slow, never-parked) ticker
  c.runner_began();  // the waiter below
  std::thread waiter([&] { c.await(1, c.tally()); });
  // Well past one stall window — a parked-only detector would fire here.
  std::this_thread::sleep_for(std::chrono::milliseconds(350));
  c.tick(c.tally());
  waiter.join();
  EXPECT_EQ(c.stats().stall_detections, 0u);
  c.runner_ended();
  c.runner_ended();
}

// ...but when every registered runner is parked, no progress is possible:
// the detector fires after a single stall window, not the 8x grace.
TEST(GlobalCounter, StallFiresQuicklyWhenAllRunnersParked) {
  GlobalCounter c(std::chrono::milliseconds(100));
  c.runner_began();
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(c.await(1, c.tally()), ReplayDivergenceError);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(100) * 5);
  EXPECT_EQ(c.stats().stall_detections, 1u);
  c.runner_ended();
}

/// 99 publications 3 ms apart: ~300 ms, past 8 windows of 20 ms.
constexpr int kTricklePublications = 99;

// The one stall rule: while another runner is not parked, a wait rides out
// up to kStallGraceFactor quiet windows, and every publication restarts the
// count.  A wait far longer than the grace, fed by a steady trickle of
// publications, must never stall — whichever cell it waits on.
template <typename Wait, typename Publish>
void trickle_past_grace(TurnGate& gate, std::chrono::milliseconds window,
                        Wait wait, Publish publish) {
  gate.runner_began();  // the publisher, this thread
  gate.runner_began();  // the waiter
  std::optional<DivergenceCause> cause;
  std::chrono::steady_clock::duration waited{};
  std::thread waiter([&] {
    const auto start = std::chrono::steady_clock::now();
    try {
      wait();
    } catch (const ReplayDivergenceError& e) {
      cause = e.cause();
    }
    waited = std::chrono::steady_clock::now() - start;
  });
  for (int i = 0; i < kTricklePublications; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    publish();
  }
  waiter.join();
  gate.runner_ended();
  gate.runner_ended();
  EXPECT_EQ(cause, std::nullopt);
  EXPECT_EQ(gate.stats().stall_detections, 0u);
  EXPECT_EQ(gate.stats().waits_parked, 1u);
  EXPECT_GT(waited, window * TurnGate::kStallGraceFactor);
}

TEST(GlobalCounter, PublicationsRestartTheStallGrace) {
  constexpr std::chrono::milliseconds kWindow(20);
  GlobalCounter c(kWindow);
  TurnTally& me = c.tally();
  trickle_past_grace(
      c.gate(), kWindow,
      [&] { c.await(kTricklePublications, c.tally()); },
      [&] { c.tick(me); });
}

// The same rule on a causal order cell (vm::Conflict): any cell's
// publication restarts the grace.
TEST(CausalCell, PublicationsRestartTheStallGrace) {
  constexpr std::chrono::milliseconds kWindow(20);
  TurnGate gate(kWindow);
  TurnCell cell{0};
  trickle_past_grace(
      gate, kWindow,
      [&] {
        EXPECT_EQ(gate.wait(cell, kTricklePublications, gate.tally()),
                  std::uint64_t{kTricklePublications});
      },
      [&] { gate.advance(cell); });
}

TEST(GlobalCounter, PoisonReleasesParkedWaiter) {
  GlobalCounter c;
  std::thread waiter([&] {
    EXPECT_THROW(c.await(3, c.tally()), ReplayDivergenceError);
  });
  while (c.stats().waits_parked == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  c.poison();
  waiter.join();
  EXPECT_THROW(c.await(99, c.tally()), ReplayDivergenceError);
}

// --- spin-then-park ---------------------------------------------------------

using testutil::race_spinner;

constexpr int kSpinAttempts = 200;

TEST(GlobalCounter, TurnArrivingInsideSpinBudgetNeverParks) {
  if (!GlobalCounter().spins()) GTEST_SKIP() << "spinning needs two CPUs";
  for (int i = 0; i < kSpinAttempts; ++i) {
    GlobalCounter c;
    race_spinner([&] { c.await(1, c.tally()); },
                 [&] { c.tick(c.tally()); });
    const SchedStats s = c.stats();
    ASSERT_EQ(s.waits_fast + s.waits_parked, 1u);
    ASSERT_LE(s.waits_spun, s.waits_fast);
    if (s.waits_spun == 1) {
      EXPECT_EQ(s.waits_parked, 0u);
      EXPECT_EQ(s.wakeups_delivered, 0u);
      EXPECT_EQ(s.total_wait_micros, 0u);  // parked time only
      return;
    }
  }
  FAIL() << "no wait was satisfied while spinning in " << kSpinAttempts
         << " attempts";
}

TEST(GlobalCounter, PoisonWhileSpinningThrowsPoisoned) {
  if (!GlobalCounter().spins()) GTEST_SKIP() << "spinning needs two CPUs";
  for (int i = 0; i < kSpinAttempts; ++i) {
    GlobalCounter c;
    std::optional<DivergenceCause> cause;
    race_spinner(
        [&] {
          try {
            c.await(3, c.tally());
          } catch (const ReplayDivergenceError& e) {
            cause = e.cause();
          }
        },
        [&] { c.poison(); });
    ASSERT_EQ(cause, DivergenceCause::kPoisoned);
    if (c.stats().waits_parked == 0) return;  // poisoned before it parked
  }
  FAIL() << "the waiter parked before the poison in every attempt";
}

// A jump past a spinning waiter's turn is that waiter's schedule
// divergence: the spinner exits to the park path, whose re-check reports
// the passed counter at once — no stall window elapses.
TEST(GlobalCounter, AdvancePastTargetWhileSpinningThrowsCounterPassed) {
  if (!GlobalCounter().spins()) GTEST_SKIP() << "spinning needs two CPUs";
  for (int i = 0; i < kSpinAttempts; ++i) {
    GlobalCounter c(std::chrono::milliseconds(100));
    std::optional<DivergenceCause> cause;
    bool advanced = false;
    race_spinner(
        [&] {
          try {
            c.await(1, c.tally());
          } catch (const ReplayDivergenceError& e) {
            cause = e.cause();
          }
        },
        [&] {
          try {
            c.advance_to(5);
            advanced = true;
          } catch (const UsageError&) {
            c.advance_to(1);  // the waiter had parked: release it
          }
        });
    if (!advanced) continue;
    ASSERT_EQ(cause, DivergenceCause::kCounterPassed);
    ASSERT_EQ(c.stats().stall_detections, 0u);
    // The spin's fall-through registers once before it reports; zero means
    // the waiter had not reached the spin yet.
    if (c.stats().waits_parked == 1) return;
  }
  FAIL() << "advance_to never landed during the spin";
}

// The spin gate reads the constructing thread's affinity mask, not
// hardware_concurrency(): a counter built on a thread pinned to one CPU
// parks at once, even for a turn that arrives inside the budget.
TEST(GlobalCounter, CounterBuiltOnOneCpuNeverSpins) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  ASSERT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
  int first = 0;
  while (!CPU_ISSET(first, &mask)) ++first;

  std::unique_ptr<GlobalCounter> c;
  std::thread pinned([&] {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(one), &one), 0);
    EXPECT_EQ(usable_cpus(), 1u);
    c = std::make_unique<GlobalCounter>();
  });
  pinned.join();
  ASSERT_NE(c, nullptr);
  EXPECT_FALSE(c->spins());

  for (GlobalCount turn = 1; turn <= 20; ++turn) {
    race_spinner([&] { c->await(turn, c->tally()); },
                 [&] { c->tick(c->tally()); });
  }
  const SchedStats s = c->stats();
  EXPECT_EQ(s.waits_spun, 0u);
  EXPECT_EQ(s.waits_fast + s.waits_parked, 20u);
}

TEST(IntervalRecorder, SingleRunIsOneInterval) {
  IntervalRecorder r;
  for (GlobalCount g = 5; g < 105; ++g) r.on_event(g);
  auto list = r.finish();
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list[0], (LogicalInterval{5, 104}));
  EXPECT_EQ(list[0].length(), 100u);
}

TEST(IntervalRecorder, GapStartsNewInterval) {
  IntervalRecorder r;
  r.on_event(0);
  r.on_event(1);
  r.on_event(5);  // another thread took 2,3,4
  r.on_event(6);
  r.on_event(10);
  auto list = r.finish();
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], (LogicalInterval{0, 1}));
  EXPECT_EQ(list[1], (LogicalInterval{5, 6}));
  EXPECT_EQ(list[2], (LogicalInterval{10, 10}));
}

TEST(IntervalRecorder, EmptyFinish) {
  IntervalRecorder r;
  EXPECT_TRUE(r.finish().empty());
}

// The paper's efficiency claim: interleaved threads produce intervals, and
// each interval costs two counter values regardless of its length.
TEST(IntervalRecorder, TwoThreadsRoundRobin) {
  IntervalRecorder a, b;
  // a gets 0..9, b gets 10..19, a gets 20..29, ...
  GlobalCount g = 0;
  for (int round = 0; round < 4; ++round) {
    IntervalRecorder& r = (round % 2 == 0) ? a : b;
    for (int i = 0; i < 10; ++i) r.on_event(g++);
  }
  auto la = a.finish();
  auto lb = b.finish();
  ASSERT_EQ(la.size(), 2u);
  ASSERT_EQ(lb.size(), 2u);
  EXPECT_EQ(la[0], (LogicalInterval{0, 9}));
  EXPECT_EQ(la[1], (LogicalInterval{20, 29}));
  EXPECT_EQ(lb[0], (LogicalInterval{10, 19}));
  EXPECT_EQ(lb[1], (LogicalInterval{30, 39}));
}

TEST(IntervalCursor, WalksEveryEvent) {
  IntervalCursor c({{2, 4}, {7, 7}, {9, 11}});
  std::vector<GlobalCount> seen;
  while (!c.exhausted()) {
    seen.push_back(c.peek());
    c.advance();
  }
  EXPECT_EQ(seen, (std::vector<GlobalCount>{2, 3, 4, 7, 9, 10, 11}));
}

TEST(IntervalCursor, ExhaustedPeekThrows) {
  IntervalCursor c({{0, 0}});
  c.advance();
  EXPECT_TRUE(c.exhausted());
  EXPECT_THROW(c.peek(), ReplayDivergenceError);
  EXPECT_THROW(c.advance(), ReplayDivergenceError);
}

TEST(IntervalCursor, Remaining) {
  IntervalCursor c({{0, 2}, {5, 5}});
  EXPECT_EQ(c.remaining(), 4u);
  c.advance();
  EXPECT_EQ(c.remaining(), 3u);
  c.advance();
  c.advance();
  c.advance();
  EXPECT_EQ(c.remaining(), 0u);
}

TEST(IntervalCursor, SkipThroughLimitExactlyOnIntervalLast) {
  // A limit that lands exactly on an interval's last event must consume the
  // whole interval (<= is inclusive) and leave the cursor on the next one.
  IntervalCursor c({{2, 4}, {7, 9}});
  c.skip_through(4);
  EXPECT_EQ(c.consumed(), 3u);
  EXPECT_EQ(c.remaining(), 3u);
  EXPECT_EQ(c.peek(), 7u);
  ASSERT_TRUE(c.current_interval().has_value());
  EXPECT_EQ(*c.current_interval(), (LogicalInterval{7, 9}));
}

TEST(IntervalCursor, SkipThroughInsideIntervalAfterPartialSkip) {
  // Second skip lands inside the interval the first skip already entered
  // partway: the offset from the first skip must be subtracted, not
  // re-counted.
  IntervalCursor c({{3, 10}});
  c.skip_through(5);  // enters {3,10} at offset 3 (events 3,4,5 consumed)
  EXPECT_EQ(c.consumed(), 3u);
  EXPECT_EQ(c.peek(), 6u);
  c.skip_through(8);  // consumes 6,7,8 only
  EXPECT_EQ(c.consumed(), 6u);
  EXPECT_EQ(c.remaining(), 2u);
  EXPECT_EQ(c.peek(), 9u);
}

TEST(IntervalCursor, SkipThroughAccountingMatchesAdvance) {
  // consumed()/remaining() after skip_through must equal what event-by-event
  // advance() would have produced, at every probe point.
  const IntervalList intervals{{0, 2}, {5, 5}, {8, 12}};
  for (GlobalCount limit = 0; limit <= 14; ++limit) {
    IntervalCursor skipped(intervals);
    skipped.skip_through(limit);
    IntervalCursor walked(intervals);
    while (!walked.exhausted() && walked.peek() <= limit) walked.advance();
    EXPECT_EQ(skipped.consumed(), walked.consumed()) << "limit " << limit;
    EXPECT_EQ(skipped.remaining(), walked.remaining()) << "limit " << limit;
    EXPECT_EQ(skipped.exhausted(), walked.exhausted()) << "limit " << limit;
    if (!skipped.exhausted()) {
      EXPECT_EQ(skipped.peek(), walked.peek()) << "limit " << limit;
    }
  }
}

TEST(IntervalCursor, SkipThroughBeforeFirstEventIsNoOp) {
  IntervalCursor c({{3, 5}});
  c.skip_through(2);
  EXPECT_EQ(c.consumed(), 0u);
  EXPECT_EQ(c.remaining(), 3u);
  EXPECT_EQ(c.peek(), 3u);
}

// Property: for ANY interleaving, recording then replaying the interval
// lists reproduces the original event order.
TEST(Intervals, RecordThenCursorRoundTrip) {
  constexpr int kThreads = 5;
  Xoshiro256 rng(1234);
  std::vector<IntervalRecorder> recorders(kThreads);
  std::vector<std::vector<GlobalCount>> events(kThreads);
  for (GlobalCount g = 0; g < 5000; ++g) {
    auto t = static_cast<std::size_t>(rng.next_below(kThreads));
    recorders[t].on_event(g);
    events[t].push_back(g);
  }
  for (int t = 0; t < kThreads; ++t) {
    IntervalCursor c(recorders[t].finish());
    for (GlobalCount g : events[t]) {
      EXPECT_EQ(c.peek(), g);
      c.advance();
    }
    EXPECT_TRUE(c.exhausted());
  }
}

TEST(ThreadRegistry, CreationOrderNumbers) {
  ThreadRegistry reg;
  GlobalCounter c;
  EXPECT_EQ(reg.register_thread(c.tally()).num, 0u);
  EXPECT_EQ(reg.register_thread(c.tally()).num, 1u);
  EXPECT_EQ(reg.register_thread(c.tally()).num, 2u);
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_NE(reg.find(1), nullptr);
  EXPECT_EQ(reg.find(9), nullptr);
}

TEST(ThreadRegistry, EventNumPerThread) {
  ThreadRegistry reg;
  GlobalCounter c;
  auto& a = reg.register_thread(c.tally());
  auto& b = reg.register_thread(c.tally());
  EXPECT_EQ(a.take_network_event_num(), 0u);
  EXPECT_EQ(a.take_network_event_num(), 1u);
  EXPECT_EQ(b.take_network_event_num(), 0u);
}

TEST(Trace, DigestSensitivity) {
  std::vector<TraceRecord> a, c;
  for (GlobalCount g = 0; g < 10; ++g) {
    TraceRecord r{g, 0, EventKind::kSharedRead, g * 3};
    a.push_back(r);
    r.aux += (g == 7);  // one different payload
    c.push_back(r);
  }
  EXPECT_NE(trace_digest(a), trace_digest(c));
  std::vector<TraceRecord> d = a;
  std::swap(d[2], d[3]);  // same records, different order
  EXPECT_NE(trace_digest(a), trace_digest(d));
}

// Equal gcs (hand-built traces only) keep batch append order.
TEST(Trace, SortsByCounter) {
  ExecutionTrace t;
  t.append_batch({{5, 0, EventKind::kSharedRead, 0},
                  {1, 1, EventKind::kSharedWrite, 0},
                  {3, 0, EventKind::kNotify, 0}});
  t.append_batch({{3, 2, EventKind::kNotify, 0}, {1, 2, EventKind::kNotify, 0}});
  auto sorted = t.sorted();
  ASSERT_EQ(sorted.size(), 5u);
  EXPECT_TRUE(is_sorted_by_gc(sorted));
  EXPECT_EQ(sorted[0].gc, 1u);
  EXPECT_EQ(sorted[0].thread, 1u);
  EXPECT_EQ(sorted[1].thread, 2u);
  EXPECT_EQ(sorted[2].gc, 3u);
  EXPECT_EQ(sorted[2].thread, 0u);
  EXPECT_EQ(sorted[3].thread, 2u);
  EXPECT_EQ(sorted[4].gc, 5u);
  std::swap(sorted[0], sorted[4]);
  EXPECT_FALSE(is_sorted_by_gc(sorted));
}

// A trace missing its last record must not digest like the full one, or
// core::verify would skip its first-difference scan for it.
TEST(Trace, DigestCoversLength) {
  std::vector<TraceRecord> a = {{0, 0, EventKind::kSharedRead, 0},
                                {1, 0, EventKind::kSharedRead, 0}};
  std::vector<TraceRecord> b = a;
  b.pop_back();
  EXPECT_NE(trace_digest(a), trace_digest(b));
  EXPECT_NE(trace_digest(b), trace_digest({}));
}

// sorted() reflects every batch appended before the call, however batches
// and reads interleave, and a read changes nothing.
TEST(Trace, SortedAfterInterleavedBatches) {
  ExecutionTrace t;
  t.append_batch({{5, 0, EventKind::kSharedRead, 1}});
  auto s1 = t.sorted();
  ASSERT_EQ(s1.size(), 1u);

  t.append_batch({{1, 1, EventKind::kSharedWrite, 2}});
  auto s2 = t.sorted();
  ASSERT_EQ(s2.size(), 2u);
  EXPECT_EQ(s2[0].gc, 1u);
  EXPECT_EQ(s2[1].gc, 5u);
  EXPECT_NE(trace_digest(s2), trace_digest(s1));

  t.append_batch({{3, 0, EventKind::kNotify, 3}, {0, 2, EventKind::kNotify, 4}});
  auto s3 = t.sorted();
  ASSERT_EQ(s3.size(), 4u);
  EXPECT_EQ(s3[0].gc, 0u);
  EXPECT_EQ(s3[1].gc, 1u);
  EXPECT_EQ(s3[2].gc, 3u);
  EXPECT_EQ(s3[3].gc, 5u);
  EXPECT_EQ(t.sorted(), s3);

  t.append_batch({});  // no-op
  EXPECT_EQ(t.sorted(), s3);
  EXPECT_EQ(t.size(), 4u);
}

// Random records from a fixed seed: gc steps of 0-3 (ties included), any
// thread below 16, the first twelve event kinds, any payload.
std::vector<TraceRecord> seeded_trace(std::size_t n) {
  Xoshiro256 rng(0x5eed);
  std::vector<TraceRecord> out;
  GlobalCount gc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    gc += rng.next_below(4);
    out.push_back({gc, static_cast<ThreadNum>(rng.next_below(16)),
                   static_cast<EventKind>(rng.next_below(12)), rng.next()});
  }
  return out;
}

// trace_digest's value is part of the record/replay contract: a saved run's
// digest must still verify after the digest's implementation changes.  The
// constants for n <= 1000 were computed by the original ByteWriter-and-CRC32
// implementation, which serialized the whole trace into one buffer, and
// those for 511, 512, 513 and 1025 by a streaming digest with 64-record
// blocks.  The streaming digest encodes 512 records per block and splits
// the stream at byte total/2, so the sizes below straddle its seams: the
// half split inside a record (1, 3) and on a record boundary (2), one block
// minus, at and plus one record (511, 512, 513; and 63, 64, 65 for the
// older block size), two blocks plus one (1025), and the half split on a
// 64-record block boundary (256).
TEST(Trace, FrozenDigestValues) {
  EXPECT_EQ(trace_digest(seeded_trace(0)), 0u);
  EXPECT_EQ(trace_digest(seeded_trace(1)), 0x9ec8de11538215d5u);
  EXPECT_EQ(trace_digest(seeded_trace(2)), 0x371b21b66ccf30acu);
  EXPECT_EQ(trace_digest(seeded_trace(3)), 0x0712d5be95a016afu);
  EXPECT_EQ(trace_digest(seeded_trace(63)), 0xa7ffc2495cba36d6u);
  EXPECT_EQ(trace_digest(seeded_trace(64)), 0x3d3b03512548b556u);
  EXPECT_EQ(trace_digest(seeded_trace(65)), 0xf18e7adb48f1c11bu);
  EXPECT_EQ(trace_digest(seeded_trace(256)), 0xa40814e1a8bcc5a9u);
  EXPECT_EQ(trace_digest(seeded_trace(257)), 0xf2bd20ce399adb63u);
  EXPECT_EQ(trace_digest(seeded_trace(1000)), 0xac9cb2d3d05d1160u);
  EXPECT_EQ(trace_digest(seeded_trace(511)), 0x16d2eeb2011dc49au);
  EXPECT_EQ(trace_digest(seeded_trace(512)), 0x2c86dd4bc8703c34u);
  EXPECT_EQ(trace_digest(seeded_trace(513)), 0x549dbb3f494123b6u);
  EXPECT_EQ(trace_digest(seeded_trace(1025)), 0x3eff669128899c60u);
}

// sort_by_gc must order exactly like a stable comparison sort, on the
// linear counting path (gc range below 2n) and on the fallback alike.  The
// payload is each record's input position, so a tie that moves shows.
void expect_sorts_like_stable_sort(std::vector<TraceRecord> records) {
  for (std::size_t i = 0; i < records.size(); ++i) records[i].aux = i;
  std::vector<TraceRecord> expected = records;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.gc < b.gc;
                   });
  sort_by_gc(records);
  ASSERT_EQ(records.size(), expected.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    ASSERT_EQ(records[i], expected[i]) << "at " << i;
  }
}

// Per-thread batches as a recording appends them: each thread's gcs
// ascending, the batches arriving interleaved, every gc in [base, base+n)
// taken once.
std::vector<TraceRecord> interleaved_batches(std::size_t n, GlobalCount base,
                                             std::uint64_t seed) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kBatch = 50;
  Xoshiro256 rng(seed);
  std::vector<TraceRecord> per_thread[kThreads];
  for (std::size_t i = 0; i < n; ++i) {
    const auto t = static_cast<ThreadNum>(rng.next_below(kThreads));
    per_thread[t].push_back({base + i, t, EventKind::kSharedRead, 0});
  }
  std::vector<TraceRecord> out;
  std::size_t next[kThreads] = {};
  while (out.size() < n) {
    const std::size_t t = rng.next_below(kThreads);
    const std::size_t end = std::min(per_thread[t].size(), next[t] + kBatch);
    out.insert(out.end(), per_thread[t].begin() + next[t],
               per_thread[t].begin() + end);
    next[t] = end;
  }
  return out;
}

TEST(Trace, SortByGcDenseUniqueMatchesStableSort) {
  expect_sorts_like_stable_sort(interleaved_batches(10'000, 0, 1));
  expect_sorts_like_stable_sort(interleaved_batches(10'000, 1'000'000, 2));
}

TEST(Trace, SortByGcDenseTiesStayStable) {
  // gc steps of 0-3 from a random start: ties, range about 1.5n.
  std::vector<TraceRecord> records = seeded_trace(5'000);
  Xoshiro256 rng(7);
  for (std::size_t i = records.size(); i > 1; --i) {
    std::swap(records[i - 1], records[rng.next_below(i)]);
  }
  expect_sorts_like_stable_sort(records);
  // Every record on one gc: range 0.
  expect_sorts_like_stable_sort(std::vector<TraceRecord>(
      1'000, TraceRecord{42, 0, EventKind::kNotify, 0}));
}

// n records with gcs in [0, span], both ends present, in random order.
std::vector<TraceRecord> spanning(std::size_t n, std::uint64_t span,
                                  std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<TraceRecord> out = {{span, 0, EventKind::kSharedRead, 0},
                                  {0, 0, EventKind::kSharedRead, 0}};
  while (out.size() < n) {
    out.push_back({rng.next_below(span + 1), 0, EventKind::kSharedRead, 0});
  }
  std::swap(out[0], out[n / 2]);
  return out;
}

TEST(Trace, SortByGcRangeBoundaryAndSparseFallback) {
  // max - min = 2n - 1 is the widest range the counting sort takes; 2n and
  // beyond fall back to the comparison sort.
  expect_sorts_like_stable_sort(spanning(1'000, 1'999, 11));
  expect_sorts_like_stable_sort(spanning(1'000, 2'000, 12));
  expect_sorts_like_stable_sort(spanning(3'000, 1'000'000'000'000, 13));
}

TEST(Trace, SortByGcNearCounterMaxDoesNotOverflow) {
  constexpr GlobalCount kMax = UINT64_MAX;
  // Dense below the maximum: the count index reaches max - min.
  expect_sorts_like_stable_sort(interleaved_batches(1'000, kMax - 999, 3));
  // Ties on the maximum itself.
  expect_sorts_like_stable_sort({{kMax, 0, EventKind::kSharedRead, 0},
                                 {kMax - 1, 0, EventKind::kSharedRead, 0},
                                 {kMax, 1, EventKind::kSharedRead, 0},
                                 {kMax - 1, 1, EventKind::kSharedRead, 0}});
  // The whole range: max - min = UINT64_MAX takes the fallback.
  expect_sorts_like_stable_sort({{kMax, 0, EventKind::kSharedRead, 0},
                                 {0, 0, EventKind::kSharedRead, 0},
                                 {kMax, 1, EventKind::kSharedRead, 0},
                                 {0, 1, EventKind::kSharedRead, 0}});
}

TEST(Trace, SortByGcSmallAndSortedInputs) {
  expect_sorts_like_stable_sort({});
  expect_sorts_like_stable_sort({{9, 0, EventKind::kSharedRead, 0}});
  expect_sorts_like_stable_sort({{9, 0, EventKind::kSharedRead, 0},
                                 {3, 1, EventKind::kSharedRead, 0}});
  expect_sorts_like_stable_sort({{3, 0, EventKind::kSharedRead, 0},
                                 {3, 1, EventKind::kSharedRead, 0}});
  std::vector<TraceRecord> ascending;
  for (GlobalCount g = 0; g < 1'000; ++g) {
    ascending.push_back({g, 0, EventKind::kSharedRead, 0});
  }
  expect_sorts_like_stable_sort(ascending);
}

// gather_by_gc must give exactly the order of concatenating its parts and
// stable-sorting by gc.  Each record's payload is its position in that
// concatenation, so a tie that moves — within a part or across parts —
// shows.  ExecutionTrace::sorted() gathers the same parts as batches.
void expect_gathers_like_stable_sort(
    std::vector<std::vector<TraceRecord>> parts) {
  std::vector<TraceRecord> expected;
  for (auto& part : parts) {
    for (TraceRecord& r : part) {
      r.aux = expected.size();
      expected.push_back(r);
    }
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.gc < b.gc;
                   });
  const std::vector<TraceRecord> gathered = gather_by_gc(parts);
  ExecutionTrace trace;
  for (const auto& part : parts) trace.append_batch(part);
  const std::vector<TraceRecord> sorted = trace.sorted();
  ASSERT_EQ(gathered.size(), expected.size());
  ASSERT_EQ(sorted.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(gathered[i], expected[i]) << "at " << i;
    ASSERT_EQ(sorted[i], expected[i]) << "sorted() at " << i;
  }
}

// `count` parts of random sizes up to `max_part` (some empty), gcs drawn
// from [base, base + span]: duplicates within and across parts when span
// is below the record count.
std::vector<std::vector<TraceRecord>> random_parts(std::size_t count,
                                                   std::size_t max_part,
                                                   GlobalCount base,
                                                   std::uint64_t span,
                                                   std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::vector<TraceRecord>> parts(count);
  for (auto& part : parts) {
    const std::size_t n = rng.next_below(max_part + 1);
    for (std::size_t i = 0; i < n; ++i) {
      part.push_back({base + rng.next_below(span + 1),
                      static_cast<ThreadNum>(rng.next_below(4)),
                      EventKind::kSharedWrite, 0});
    }
  }
  return parts;
}

TEST(Trace, GatherByGcDenseWithTiesMatchesStableSort) {
  // ~1,600 records over a 400-gc range: every gc repeats, within a part
  // and across parts.
  expect_gathers_like_stable_sort(random_parts(16, 200, 0, 400, 21));
  expect_gathers_like_stable_sort(random_parts(64, 50, 1'000'000, 300, 22));
  // One record per gc, spread over interleaved batches as a recording
  // appends them.
  const std::vector<TraceRecord> dense = interleaved_batches(5'000, 7, 23);
  std::vector<std::vector<TraceRecord>> batches;
  for (std::size_t i = 0; i < dense.size(); i += 333) {
    batches.emplace_back(dense.begin() + i,
                         dense.begin() + std::min(dense.size(), i + 333));
  }
  expect_gathers_like_stable_sort(batches);
}

// max - min == n - 1 with a duplicate gc: the direct placement leaves a
// slot empty (here gc 2's), sees it and falls back to the counting gather,
// which keeps the tied records in input order.
TEST(Trace, GatherByGcDenseRangeWithDuplicateFallsBack) {
  expect_gathers_like_stable_sort({{{1, 0, EventKind::kSharedRead, 0}},
                                   {{0, 1, EventKind::kSharedRead, 0},
                                    {3, 1, EventKind::kSharedRead, 0}},
                                   {{1, 2, EventKind::kSharedRead, 0}}});
  // The same with gc 0 duplicated, so the empty slot is the last one.
  expect_gathers_like_stable_sort({{{0, 0, EventKind::kSharedRead, 0},
                                    {2, 0, EventKind::kSharedRead, 0}},
                                   {{0, 1, EventKind::kSharedRead, 0}},
                                   {{1, 2, EventKind::kSharedRead, 0}}});
  // And over a base far from zero.
  expect_gathers_like_stable_sort({{{101, 0, EventKind::kSharedRead, 0}},
                                   {{100, 1, EventKind::kSharedRead, 0},
                                    {103, 1, EventKind::kSharedRead, 0}},
                                   {{101, 2, EventKind::kSharedRead, 0}}});
}

TEST(Trace, GatherByGcSparseFallbackMatchesStableSort) {
  expect_gathers_like_stable_sort(random_parts(8, 100, 0, 1'000'000'000, 24));
  // The widest range: max - min = UINT64_MAX.
  expect_gathers_like_stable_sort(
      {{{UINT64_MAX, 0, EventKind::kSharedRead, 0}},
       {{0, 0, EventKind::kSharedRead, 0},
        {UINT64_MAX, 1, EventKind::kSharedRead, 0}},
       {{0, 1, EventKind::kSharedRead, 0}}});
}

TEST(Trace, GatherByGcEmptyAndZeroParts) {
  expect_gathers_like_stable_sort({});
  expect_gathers_like_stable_sort({{}, {}, {}});
  expect_gathers_like_stable_sort(
      {{}, {{5, 0, EventKind::kSharedRead, 0}}, {}});
  expect_gathers_like_stable_sort({{},
                                   {{5, 0, EventKind::kSharedRead, 0},
                                    {3, 0, EventKind::kSharedRead, 0}},
                                   {},
                                   {{3, 1, EventKind::kSharedRead, 0}},
                                   {}});
}


// --- RunTrace: digest from gc-ordered runs, sort on read ---------------------

// Threads taking turns at the counter in runs of [min_run, max_run] events
// (a recording's logical intervals), `n` records in all, every gc from
// `base` taken once.  Each thread's records are cut into parts of at most
// `part_records` (its flushed batches), and the parts arrive interleaved.
std::vector<std::vector<TraceRecord>> interval_parts(
    std::size_t threads, std::size_t n, std::size_t min_run,
    std::size_t max_run, std::size_t part_records, std::uint64_t seed,
    GlobalCount base = 0) {
  Xoshiro256 rng(seed);
  std::vector<std::vector<TraceRecord>> per_thread(threads);
  GlobalCount gc = base;
  for (std::size_t t = 0; gc - base < n; t = (t + 1) % threads) {
    const std::size_t run = min_run + rng.next_below(max_run - min_run + 1);
    for (std::size_t i = 0; i < run && gc - base < n; ++i, ++gc) {
      per_thread[t].push_back({gc, static_cast<ThreadNum>(t),
                               static_cast<EventKind>(rng.next_below(12)),
                               rng.next()});
    }
  }
  std::vector<std::vector<TraceRecord>> parts;
  std::vector<std::size_t> next(threads, 0);
  for (bool more = true; more;) {
    more = false;
    for (std::size_t t = 0; t < threads; ++t) {
      const std::size_t end =
          std::min(per_thread[t].size(), next[t] + part_records);
      if (next[t] == end) continue;
      parts.emplace_back(per_thread[t].begin() + next[t],
                         per_thread[t].begin() + end);
      next[t] = end;
      more = true;
    }
  }
  return parts;
}

// A RunTrace of `parts` must digest exactly like gathering then digesting,
// and build exactly gather_by_gc's vector.  `tiles` is the path the shape
// must take: digested from its runs, or gathered.
void expect_run_trace_matches_gather(
    const std::vector<std::vector<TraceRecord>>& parts, bool tiles) {
  const std::vector<TraceRecord> gathered = gather_by_gc(parts);
  EXPECT_EQ(gc_ordered_runs(parts).has_value(), tiles);
  const RunTrace trace(parts);
  EXPECT_EQ(trace.size(), gathered.size());
  EXPECT_EQ(trace.digest(), trace_digest(gathered));
  EXPECT_TRUE(trace.sorted() == gathered);
  EXPECT_EQ(&trace.sorted(), &trace.sorted());  // built once
}

TEST(Trace, RunTraceHotSharedShapeDigestsFromItsRuns) {
  // hot_shared's shape: 4 threads, ~285-event intervals, 200,004 records.
  expect_run_trace_matches_gather(
      interval_parts(4, 200'004, 250, 320, 4'096, 31), true);
  // Far from gc 0.
  expect_run_trace_matches_gather(
      interval_parts(4, 20'000, 250, 320, 4'096, 32, 1'000'000'007), true);
}

TEST(Trace, RunTraceOneEventRunsAreGathered) {
  // private_keys' shape: one run per record, past the run-count bound.
  expect_run_trace_matches_gather(interval_parts(4, 24'380, 1, 1, 512, 33),
                                  false);
  // One-event runs among long ones still tile.
  std::vector<std::vector<TraceRecord>> mixed = {{}, {}};
  for (GlobalCount gc = 0; gc < 3'000; ++gc) {
    mixed[(gc % 300 < 297) ? 0 : 1].push_back(
        {gc, static_cast<ThreadNum>(gc % 300 < 297 ? 0 : 1),
         EventKind::kSharedWrite, gc * 7});
  }
  expect_run_trace_matches_gather(mixed, true);
}

TEST(Trace, RunTraceRunsSplitAcrossPartsTile) {
  // Parts of 100 records cut each ~285-event interval into several runs.
  expect_run_trace_matches_gather(
      interval_parts(4, 30'000, 250, 320, 100, 34), true);
  // One thread alone, flushed in parts of 37.
  expect_run_trace_matches_gather(interval_parts(1, 5'000, 1, 1, 37, 35),
                                  true);
}

TEST(Trace, RunTraceRunStraddlingTheDigestSplit) {
  // 1,025 records: the half split falls inside record 512, and the digest's
  // 512-record block boundary too; one run covers both.
  std::vector<std::vector<TraceRecord>> parts = {{}, {}};
  for (GlobalCount gc = 0; gc < 1'025; ++gc) {
    const ThreadNum t = (gc >= 300 && gc < 800) ? 1 : 0;
    parts[t].push_back({gc, t, EventKind::kSharedRead, gc ^ 0x55});
  }
  expect_run_trace_matches_gather(parts, true);
  // The runs as their own parts, in reverse arrival order.
  std::vector<std::vector<TraceRecord>> reversed = {
      {parts[0].begin() + 300, parts[0].end()},
      parts[1],
      {parts[0].begin(), parts[0].begin() + 300}};
  expect_run_trace_matches_gather(reversed, true);
}

// Hand-built inputs whose runs do not tile take the gather, ties in stable
// order included.
TEST(Trace, RunTraceTiesGapsOverlapsAndSparseRangesAreGathered) {
  const auto run = [](GlobalCount first, std::size_t len, ThreadNum t) {
    std::vector<TraceRecord> out;
    for (std::size_t i = 0; i < len; ++i) {
      out.push_back({first + i, t, EventKind::kSharedWrite, first * 31 + i});
    }
    return out;
  };
  // Ties: the same gc twice, across parts and inside one.
  expect_run_trace_matches_gather({run(0, 100, 0), run(99, 100, 1)}, false);
  std::vector<TraceRecord> dup = run(0, 100, 0);
  dup.insert(dup.begin() + 50, dup[50]);
  expect_run_trace_matches_gather({dup, run(100, 100, 1)}, false);
  // A gap, and an overlap, between runs.
  expect_run_trace_matches_gather({run(0, 100, 0), run(150, 100, 1)}, false);
  expect_run_trace_matches_gather({run(0, 100, 0), run(50, 100, 1)}, false);
  // A sparse range: max - min >= 2n.
  std::vector<std::vector<TraceRecord>> sparse;
  for (GlobalCount k = 0; k < 20; ++k) sparse.push_back(run(k * 1'000, 20, 0));
  expect_run_trace_matches_gather(sparse, false);
}

TEST(Trace, RunTraceSingleRecordAndEmptyTrace) {
  expect_run_trace_matches_gather({{{7, 0, EventKind::kNotify, 9}}}, true);
  expect_run_trace_matches_gather({}, true);
  expect_run_trace_matches_gather({{}, {}}, true);
  EXPECT_EQ(RunTrace({}).digest(), 0u);
}

// Two threads reading one const VmRunInfo's trace at once: the first read
// builds it, and both see the one vector (TSan checks the build).
TEST(Trace, RunTraceConcurrentFirstReadsBuildOnce) {
  const auto parts = interval_parts(4, 50'000, 250, 320, 4'096, 36);
  core::VmRunInfo writable;
  writable.set_trace(parts);
  const core::VmRunInfo& info = writable;
  EXPECT_EQ(info.trace_size(), 50'000u);
  EXPECT_EQ(info.trace_digest, trace_digest(gather_by_gc(parts)));

  std::atomic<bool> go{false};
  const std::vector<TraceRecord>* seen[2] = {};
  std::thread a([&] {
    while (!go.load(std::memory_order_acquire)) {
    }
    seen[0] = &info.trace();
  });
  std::thread b([&] {
    while (!go.load(std::memory_order_acquire)) {
    }
    seen[1] = &info.trace();
  });
  go.store(true, std::memory_order_release);
  a.join();
  b.join();
  EXPECT_EQ(seen[0], seen[1]);
  EXPECT_TRUE(*seen[0] == gather_by_gc(parts));
}

}  // namespace
}  // namespace djvu::sched
