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
// equals stripe-acquisition order equals object access order (with one
// stripe, the single section gives the same guarantee trivially).
//
// Replay mode: an event recorded with per-key sequence s calls
// `await(key, s)` — a wait on the key's published count through the VM's
// TurnGate, the same spin, park, poison and stall detector total-order
// replay uses — executes, then calls `publish(key)`.  Events on independent
// keys never wait on each other, so a replay with k independent keys runs up
// to k-way parallel.  Which runtime object `key` names differs between
// record and replay (keys are addresses); correspondence holds by induction
// on each thread's program order — see §1d for the argument.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "sched/turn_gate.h"

namespace djvu::sched {

using SectionKey = std::uint64_t;

/// Thread-safe per-key sequence table with turn-waiting per key.
class CausalOrder {
 public:
  /// Replay waits go through `gate` (the VM's GlobalCounter::gate()),
  /// which must outlive this order.
  explicit CausalOrder(TurnGate& gate) : gate_(gate) {}

  CausalOrder(const CausalOrder&) = delete;
  CausalOrder& operator=(const CausalOrder&) = delete;

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
    TurnCell* cell_ = nullptr;
  };

  /// Finds or creates `key`'s sequence cell (the only locking step).
  Ticket resolve(SectionKey key);

  /// Record mode: assigns and returns the next sequence number for the
  /// ticket's key (0 for the key's first event).  Caller must hold the
  /// GC-critical section for that key.  Same-key calls are serialized by
  /// that section, so the fetch_add order IS the key's access order.
  std::uint64_t record_next(Ticket t) {
    return t.cell_->fetch_add(1, std::memory_order_seq_cst);
  }
  std::uint64_t record_next(SectionKey key) {
    return record_next(resolve(key));
  }

  /// Replay mode: blocks until exactly `seq` events on the ticket's key
  /// have published (`key` appears only in error text).  Throws
  /// ReplayDivergenceError when the key's published count is already past
  /// `seq` (kCounterPassed — the per-key order and the execution
  /// disagree), or as TurnGate::wait does (kPoisoned, kStall).  The wait
  /// counts in the caller's `tally` (TurnGate::tally).
  void await(Ticket t, SectionKey key, std::uint64_t seq, TurnTally& tally) {
    const std::uint64_t count = gate_.wait(*t.cell_, seq, tally);
    if (count != seq) throw_passed(key, seq, count);
  }
  void await(SectionKey key, std::uint64_t seq, TurnTally& tally) {
    await(resolve(key), key, seq, tally);
  }

  /// Replay mode: publishes completion of the current event on the
  /// ticket's key, releasing the key's next waiter.
  void publish(Ticket t) {
    const std::uint64_t count =
        t.cell_->fetch_add(1, std::memory_order_seq_cst) + 1;
    gate_.published(*t.cell_, count);
  }
  void publish(SectionKey key) { publish(resolve(key)); }

  /// Restarts `key`'s order at 0: its object died, and an object later
  /// born at the same address must start its own order in record and
  /// replay alike.  No event on the key may be in flight; cached tickets
  /// stay valid.
  void retire(SectionKey key);

 private:
  /// Key-hash lock table size.  A shard guards only key → cell resolution,
  /// which threads do once per key and cache.
  static constexpr std::size_t kShards = 64;

  struct alignas(64) Shard {
    std::mutex mutex;
    /// unique_ptr keeps cell addresses stable across rehashes (tickets
    /// hold raw pointers).
    std::unordered_map<SectionKey, std::unique_ptr<TurnCell>> cells;
  };

  Shard& shard(SectionKey key);

  [[noreturn]] static void throw_passed(SectionKey key, std::uint64_t seq,
                                        std::uint64_t count);

  TurnGate& gate_;
  Shard shards_[kShards];
};

}  // namespace djvu::sched
