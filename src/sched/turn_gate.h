// The one replay wait (docs/INTERNALS.md §1, §6).
//
// Replay has a single primitive: a thread waits until a counter reaches its
// next event's recorded value.  Total-order replay waits on the global
// counter, causal replay (§1d) on one conflict key's published count; both
// are a wait on an atomic cell, so both go through one TurnGate per VM.
//
// A wait spins for kSpinBudget (sched/spin_wait.h; only with two or more
// usable CPUs), then parks on a targeted waiter slot: its own condition
// variable, keyed by (cell, target).  A publisher that finds a thread
// parked releases only the slots whose target its cell reached.  With
// nobody parked, publication is one seq_cst load of `parked_` and never
// takes the mutex; a spinner does not count as parked.
//
// The gate also owns everything a wait can end in besides its turn: the
// poison flag that unwinds every waiter when a sibling thread diverges,
// and the runner-aware stall detector.  There is one stall rule: a parked
// wait gives up after a full stall window with no publication on any cell
// while every registered runner is parked, or after kStallGraceFactor
// windows in a row with no publication; any publication restarts the count.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>

#include "sched/sched_stats.h"
#include "sched/turn_tally.h"

namespace djvu::sched {

/// A counter a replay wait can block on.
using TurnCell = std::atomic<std::uint64_t>;

class TurnGate {
 public:
  /// `stall_timeout` is the stall detector's window.
  explicit TurnGate(std::chrono::milliseconds stall_timeout);
  TurnGate(const TurnGate&) = delete;
  TurnGate& operator=(const TurnGate&) = delete;

  /// Quiet windows a parked wait rides out while some runner is not parked
  /// (threads wedged outside the counters must still surface as an error,
  /// just not as eagerly as a certain deadlock).
  static constexpr int kStallGraceFactor = 8;

  /// Hands the calling thread a tally of its own (TurnTally): every wait
  /// and counter operation of that thread counts there, and stats() sums
  /// them.  Threads claim one when they register and keep it.
  TurnTally& tally() { return tallies_.claim(); }

  /// Blocks until `cell` reaches `target` and returns the value it then
  /// observed: `target` on the turn, more when the cell was already or has
  /// since been published past it (the caller reports that divergence).
  /// A wait that never parked counts in the caller's `tally`.  Throws
  /// ReplayDivergenceError when poisoned (kPoisoned) or when the stall
  /// detector fires (kStall).
  std::uint64_t wait(const TurnCell& cell, std::uint64_t target,
                     TurnTally& tally) {
    if (poisoned_.load(std::memory_order_acquire)) throw_poisoned();
    const std::uint64_t v = cell.load(std::memory_order_seq_cst);
    if (v == target) {
      tally.waits_fast.add();
      return v;
    }
    return v > target ? v : wait_slow(cell, target, tally);
  }

  /// Tells the gate `cell` now holds `v`.  Call after every store to a
  /// cell a thread may wait on.  Lock-free unless a thread is parked: the
  /// seq_cst store to the cell followed by this seq_cst load pairs with the
  /// waiter's parked_ increment followed by its re-check of the cell, so
  /// at least one side sees the other.
  void published(const TurnCell& cell, std::uint64_t v) {
    if (parked_.load(std::memory_order_seq_cst) != 0) release_reached(cell, v);
  }

  /// The lowest target a thread is parked on `cell` for below `bound`, if
  /// any (a jump of the cell to `bound` would skip that thread's turn).
  std::optional<std::uint64_t> parked_below(const TurnCell& cell,
                                            std::uint64_t bound) const;

  /// Every current and future wait throws kPoisoned.  Called when any
  /// thread of the VM fails, so sibling threads unwind instead of waiting
  /// for turns that will never come.
  void poison();

  /// Runner registry for the stall detector: a runner is a thread that can
  /// publish (a bound application thread not blocked outside the scheduler,
  /// e.g. in VmThread::join).  With no runners registered (unit tests,
  /// benches) every quiet window counts as a certain stall.
  void runner_began() { runners_.fetch_add(1, std::memory_order_seq_cst); }
  void runner_ended() { runners_.fetch_sub(1, std::memory_order_seq_cst); }

  /// Whether waits spin before they park: fixed at construction, true when
  /// the constructing thread may run on at least two CPUs.
  bool spins() const { return spins_; }

  /// The wait-side SchedStats fields (waits, wakeups, stall detections,
  /// parked high water, parked time) plus the sums of every tally this
  /// gate handed out; every other field is 0.
  SchedStats stats() const;

 private:
  struct Waiter;

  std::uint64_t wait_slow(const TurnCell& cell, std::uint64_t target,
                          TurnTally& tally);
  void release_reached(const TurnCell& cell, std::uint64_t v);
  [[noreturn]] static void throw_poisoned();

  // Read-mostly line: spinners poll poisoned_, every publication loads
  // parked_.  Nothing here is written per turn.
  alignas(64) std::atomic<bool> poisoned_{false};
  /// Threads parked right now.  Changed only under mutex_; read lock-free
  /// by published() (see there for the pairing).
  std::atomic<std::uint64_t> parked_{0};
  std::atomic<std::uint64_t> runners_{0};
  const std::chrono::milliseconds stall_timeout_;
  const bool spins_;

  /// Every per-wait and per-turn count, one tally per thread.
  TallyBoard tallies_;

  // Rare-path stats (relaxed; exactness across threads is not required),
  // on their own lines: only a parking or parked wait writes them.
  alignas(64) std::atomic<std::uint64_t> waits_parked_{0};
  std::atomic<std::uint64_t> wakeups_delivered_{0};
  std::atomic<std::uint64_t> wakeups_spurious_{0};
  std::atomic<std::uint64_t> stall_detections_{0};
  std::atomic<std::uint64_t> max_parked_waiters_{0};
  std::atomic<std::uint64_t> total_wait_micros_{0};
  std::atomic<std::uint64_t> max_wait_micros_{0};

  mutable std::mutex mutex_;
  /// Intrusive list of parked waiters (slots live on the waiting threads'
  /// stacks).  Guarded by mutex_.
  Waiter* waiters_ = nullptr;
  /// The last publication seen while a thread was parked: the stall clock.
  /// The first parker anchors it, so stall time only accumulates while
  /// someone is parked.  Guarded by mutex_.
  std::chrono::steady_clock::time_point last_progress_{};
};

}  // namespace djvu::sched
