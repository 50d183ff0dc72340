// Per-conflict-key causal order for partial-order record/replay
// (order_mode = causal; docs/INTERNALS.md §1d).
//
// The paper's global counter totally orders every critical event, so replay
// is serialized even on many cores.  This class records and replays the
// *partial* order that actually constrains the execution: each conflict key
// (the same SectionKey the sharded record path already threads through every
// gateway) keeps its own sequence number.
//
// Record mode: `record_next(key)` assigns the event's per-key sequence
// number.  It MUST be called inside the GC-critical section for `key` —
// same-key events serialize on the same stripe, so per-key sequence order
// equals stripe-acquisition order equals object access order (with sharding
// off, the single section gives the same guarantee trivially).
//
// Replay mode: an event recorded with per-key sequence s calls
// `await(key, s)` — blocking until exactly s same-key events have published
// — executes, then calls `publish(key)`.  Events on independent keys never
// wait on each other, so a replay with k independent keys runs up to
// k-way parallel.  Which runtime object `key` names differs between record
// and replay (keys are addresses); correspondence holds by induction on
// each thread's program order — see §1d for the argument.
//
// Awaits spin before they park, exactly as GlobalCounter::await does
// (sched/spin_wait.h), so causal and total-order replay compare like for
// like.  Stall detection mirrors GlobalCounter's: a parked waiter that sees
// no publication anywhere for a full stall window while every registered
// runner is parked aborts with ReplayDivergenceError(kStall); while
// non-parked runners could still produce progress it extends up to
// kStallGraceFactor windows.  poison() unwinds every current and future
// waiter when a sibling thread diverges.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/ids.h"

namespace djvu::sched {

using SectionKey = std::uint64_t;

/// Thread-safe per-key sequence table with turn-waiting per key.
class CausalOrder {
 private:
  struct Shard;

 public:
  /// `stall_timeout` is the replay stall window (see GlobalCounter's
  /// constructor doc); `shards` sizes the key-hash lock table (throughput
  /// tuning only — correctness never depends on the shard count, since a
  /// shard serializes only its own bookkeeping, not event bodies).
  explicit CausalOrder(std::chrono::milliseconds stall_timeout =
                           std::chrono::milliseconds(10000),
                       std::size_t shards = 64);

  CausalOrder(const CausalOrder&) = delete;
  CausalOrder& operator=(const CausalOrder&) = delete;

  /// Same backstop multiplier as GlobalCounter: with runners active, a
  /// waiter gives up after stall_timeout * kStallGraceFactor without
  /// progress anywhere.
  static constexpr int kStallGraceFactor = 8;

  /// Resolved handle to one key's sequence cell.  resolve() takes the
  /// shard lock once; every later record_next/await/publish through the
  /// ticket is lock-free on the fast path (one atomic on the key's cell).
  /// Callers cache tickets per (thread, key) — a key's cell lives as long
  /// as the CausalOrder, so a ticket never dangles.
  class Ticket {
   public:
    Ticket() = default;
    explicit operator bool() const { return cell_ != nullptr; }

   private:
    friend class CausalOrder;
    std::atomic<std::uint64_t>* cell_ = nullptr;
    Shard* home_ = nullptr;
  };

  /// Finds or creates `key`'s sequence cell (the only locking step).
  Ticket resolve(SectionKey key);

  /// Record mode: assigns and returns the next sequence number for the
  /// ticket's key (0 for the key's first event).  Caller must hold the
  /// GC-critical section for that key.
  std::uint64_t record_next(Ticket t);
  std::uint64_t record_next(SectionKey key) {
    return record_next(resolve(key));
  }

  /// Replay mode: blocks until exactly `seq` events on the ticket's key
  /// have published (`key` appears only in error text).  Throws
  /// ReplayDivergenceError when the key's published count is already past
  /// `seq` (kCounterPassed — the per-key order and the execution
  /// disagree), when poisoned (kPoisoned), or when the stall detector
  /// fires (kStall).
  void await(Ticket t, SectionKey key, std::uint64_t seq);
  void await(SectionKey key, std::uint64_t seq) {
    await(resolve(key), key, seq);
  }

  /// Replay mode: publishes completion of the current event on the
  /// ticket's key, releasing the key's next waiter.
  void publish(Ticket t);
  void publish(SectionKey key) { publish(resolve(key)); }

  /// Total publications so far (replay progress observer).
  std::uint64_t published() const {
    return progress_.load(std::memory_order_acquire);
  }

  /// Marks the order poisoned: every current and future await throws.
  void poison();

  /// Runner registry for the stall detector (see GlobalCounter::runner_began
  /// — a table with no registered runners treats every quiet window as a
  /// stall).
  void runner_began();
  void runner_ended();

  /// Awaits that parked (diagnostics; relaxed).
  std::uint64_t waits_parked() const {
    return waits_parked_.load(std::memory_order_relaxed);
  }

  /// Awaits satisfied while spinning, before they would have parked
  /// (diagnostics; relaxed).  Lock-free fast-path awaits are not counted.
  std::uint64_t waits_spun() const {
    return waits_spun_.load(std::memory_order_relaxed);
  }

  /// Whether await() spins before it parks: fixed at construction, true
  /// when the constructing thread may run on at least two CPUs.
  bool spins() const { return spins_; }

 private:
  /// One lock-table shard: bookkeeping for every key hashing here.  The
  /// mutex guards only the cell map and the cv protocol; the cells
  /// themselves are atomics so the await fast path and publish never lock.
  /// The condition variable is per-shard, not per-key — publishes notify
  /// the shard and waiters re-check their own key's count; with keys
  /// spread over 64 shards the herd per notify is small, and the common
  /// await is the lock-free fast path (predecessor already published).
  struct alignas(64) Shard {
    std::mutex mutex;
    std::condition_variable cv;
    /// Key → published-count cell.  unique_ptr keeps cell addresses stable
    /// across rehashes (tickets hold raw pointers).
    std::unordered_map<SectionKey, std::unique_ptr<std::atomic<std::uint64_t>>>
        counts;
    /// Waiters currently parked on this shard's cv.  Incremented under the
    /// mutex but read lock-free by publish to skip the notify on the
    /// no-waiter common path (seq_cst pairing with the cell increment
    /// closes the lost-wakeup window — see publish()).
    std::atomic<std::uint64_t> waiters{0};
  };

  Shard& shard(SectionKey key) {
    // splitmix64 finalizer, as in GlobalCounter::stripe_index.
    std::uint64_t x = key;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return shards_[static_cast<std::size_t>(x % shard_count_)];
  }

  [[noreturn]] void throw_poisoned() const;
  [[noreturn]] void throw_passed(SectionKey key, std::uint64_t seq,
                                 std::uint64_t count) const;
  [[noreturn]] void throw_stall(SectionKey key, std::uint64_t seq,
                                std::uint64_t count) const;

  const std::chrono::milliseconds stall_timeout_;
  const bool spins_;
  const std::size_t shard_count_;
  std::unique_ptr<Shard[]> shards_;

  std::atomic<bool> poisoned_{false};
  /// Total publications across all keys; the stall detector's progress
  /// signal (a waiter that sees this move anywhere restarts its window).
  std::atomic<std::uint64_t> progress_{0};
  std::atomic<std::uint64_t> parked_{0};
  std::atomic<std::uint64_t> runners_{0};
  std::atomic<std::uint64_t> waits_parked_{0};
  std::atomic<std::uint64_t> waits_spun_{0};
};

}  // namespace djvu::sched
