// Per-thread scheduler tallies (docs/INTERNALS.md §6a).
//
// A replay turn hands the global counter from one thread to the next: one
// cache-line transfer of the counter itself.  Any count the turn path
// bumps on another shared line adds one more transfer to that critical
// path, and a locked read-modify-write on it stalls the core as well.  So
// every count the per-event and per-interval paths keep lives in a tally
// of the thread doing the work: each tally has exactly one writer, which
// adds with a relaxed load and store on a cache line no other thread
// writes.  A snapshot sums every tally and stays exact, because no count
// is ever shared between writers.  The rare-path counts — parks, wakeups,
// stalls, stripe and quantum waits — stay on their shared lines.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>

#include "sched/sched_stats.h"

namespace djvu::sched {

/// A count with a single writer.  The owner adds with a relaxed load and
/// store (no locked RMW); any thread may read it.
class TallyCount {
 public:
  void add(std::uint64_t n = 1) {
    n_.store(n_.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
  }
  std::uint64_t get() const { return n_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> n_{0};
};

/// One thread's counts of the scheduler's per-event and per-interval
/// paths, on a cache line of its own.  Only the thread it was handed to
/// writes it; each field feeds the SchedStats field of the same name.
struct alignas(64) TurnTally {
  TallyCount waits_fast;       // TurnGate::wait
  TallyCount waits_spun;
  TallyCount ticks;            // GlobalCounter::tick
  TallyCount sections;         // GlobalCounter's record sections
  TallyCount leases_taken;     // GlobalCounter's replay leases
  TallyCount leased_events;
  TallyCount lease_publish_count;
};

/// Hands each thread a tally of its own and sums them.  A tally lives as
/// long as its board; claiming one takes a mutex, so threads claim once
/// (when they register) and keep it.
class TallyBoard {
 public:
  TurnTally& claim() {
    std::lock_guard<std::mutex> lock(mutex_);
    return tallies_.emplace_back();
  }

  /// Adds every tally's counts to `s`.
  void add_to(SchedStats& s) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const TurnTally& t : tallies_) {
      s.waits_fast += t.waits_fast.get();
      s.waits_spun += t.waits_spun.get();
      s.ticks += t.ticks.get();
      s.sections += t.sections.get();
      s.leases_taken += t.leases_taken.get();
      s.leased_events += t.leased_events.get();
      s.lease_publish_count += t.lease_publish_count.get();
    }
  }

 private:
  mutable std::mutex mutex_;
  /// A deque: claiming a tally never moves the ones already handed out.
  std::deque<TurnTally> tallies_;
};

}  // namespace djvu::sched
