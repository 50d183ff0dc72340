// The per-DJVM global counter and GC-critical section (§2.2).
//
// "The approach to capture logical thread schedule information is based on a
// global counter (i.e., time stamp) shared by all the threads ... The global
// counter ticks at each execution of a critical event to uniquely identify
// each critical event."
//
// Record mode: `with_section(f)` performs counter update + event execution
// as one atomic operation (the paper's application-transparent, light-weight
// GC-critical section).  Blocking events instead run outside the section and
// call `tick()` afterwards to mark themselves.
//
// Sharded record mode (constructor `record_stripes > 0`): the single section
// is replaced by a striped lock table keyed by the event's conflict object.
// `with_section(key, f)` locks only the stripe the key hashes to, assigns
// the event's number with an atomic fetch_add *while holding the stripe*,
// and runs the event body under that stripe.  Events on independent objects
// proceed in parallel; events on the same object stay mutually exclusive
// with their numbering, so the counter order restricted to any one object
// equals its lock-acquisition (i.e. access) order.  Replay's total-order
// enforcement — unchanged — linearizes all per-object orders and therefore
// reproduces every observed value (docs/INTERNALS.md "Sharded GC-critical
// sections" gives the full argument).  `with_exclusive_section(f)` locks
// every stripe for events that must exclude ALL concurrent events
// (checkpoint snapshots).
//
// Replay mode: `await(g)` blocks a thread until the counter reaches its next
// event's recorded value; `tick()` releases the next event in the total
// order.
//
// Interval-leased replay (`lease_begin`/`lease_publish`/`lease_complete`):
// a thread whose next event opens a logical schedule interval [first, last]
// performs ONE await(first), leases the whole range, executes the
// interval's events with thread-local bookkeeping (no atomics, no mutex,
// no wakeup scans — by the interval definition no other thread has a
// recorded event inside the range), and publishes the entire interval with
// a single lease_complete.  Long intervals publish partial progress every
// stride events via lease_publish so `value()` observers (the stall
// detector, checkpoint snapshots, SchedStats) never see a frozen counter;
// published values only ever under-report executed progress, never
// over-report (docs/INTERNALS.md §1b).  Replay's turn protocol guarantees
// at most one lease exists at a time.
//
// Turn-waiting spins, then parks: await() first polls the value for a short
// fixed budget (sched/spin_wait.h; only when the process may run on two or
// more CPUs), and only a wait still unsatisfied after it parks.  A spinner
// never registers as a waiter, so it costs the tickers nothing.  A thread
// that jumps the counter with advance_to() cannot see a spinner either: a
// jump past a spinning waiter's turn surfaces as that waiter's
// kCounterPassed divergence rather than advance_to's UsageError.
//
// Parked waits use TARGETED wakeups: each parked thread owns a waiter slot
// (its own condition_variable keyed by its target value); a tick computes
// the new value and notifies only the thread whose turn arrived.  The value
// is an atomic, so `value()`, the await fast path, and replay-mode `tick()`
// with no waiters parked never take the mutex.  Concurrency contract:
// with_section() calls on the same stripe (always, in single-section mode)
// are mutually exclusive with each other but NOT with tick(); the two are
// never mixed concurrently — with_section() is the record-mode event path,
// tick() the replay-mode one, where the turn protocol already serializes
// tickers.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <mutex>
#include <utility>

#include "common/errors.h"
#include "common/ids.h"
#include "sched/sched_stats.h"

namespace djvu::sched {

/// Conflict key for the sharded record path: an integer identifying the
/// object a critical event conflicts on (usually a mixed object address;
/// thread-local events use an odd key derived from the thread number, which
/// can never collide with an aligned pointer).
using SectionKey = std::uint64_t;

/// Thread-safe global counter with targeted-wakeup turn-waiting.
class GlobalCounter {
 public:
  /// `stall_timeout` is the replay stall detector's window: a parked waiter
  /// that sees no counter progress for this long while every registered
  /// runner is parked aborts with ReplayDivergenceError (a mismatched log
  /// would otherwise deadlock the VM).  While at least one runner is off
  /// doing real work (e.g. a slow recorded read), waiters keep waiting up
  /// to kStallGraceFactor windows before giving up — so legitimate slowness
  /// elsewhere no longer trips the detector at the first window.
  ///
  /// `record_stripes` selects the record-mode section layout: 0 keeps the
  /// paper-faithful single GC-critical section; N > 0 builds an N-stripe
  /// lock table for `with_section(key, f)` (replay mode never passes
  /// stripes — turn-waiting is layout-independent).
  explicit GlobalCounter(std::chrono::milliseconds stall_timeout =
                             std::chrono::milliseconds(10000),
                         std::size_t record_stripes = 0);
  ~GlobalCounter();
  GlobalCounter(const GlobalCounter&) = delete;
  GlobalCounter& operator=(const GlobalCounter&) = delete;

  /// Backstop multiplier: with runners active, a waiter gives up after
  /// stall_timeout * kStallGraceFactor without progress (threads wedged in
  /// non-counter blockage — e.g. a mismatched connection pool — must still
  /// surface as an error, just not as eagerly as a certain deadlock).
  static constexpr int kStallGraceFactor = 8;

  /// Current value (== number of critical events started so far; with the
  /// single section "started" and "completed" coincide).  Lock-free.
  /// Acquire, not seq_cst: this is a pure observer — it pairs with the
  /// (release-or-stronger) publications in tick() / with_section() /
  /// publish_increment_locked() to see a fresh value, but it is NOT part of
  /// the register-vs-tick Dekker pair (await() performs its own seq_cst
  /// loads of value_ for that; see parked_'s comment).
  GlobalCount value() const { return value_.load(std::memory_order_acquire); }

  /// Marks one critical event: atomically assigns the current value to the
  /// event and increments.  Returns the assigned value.  Lock-free unless a
  /// waiter is parked; then the one waiter whose turn arrived is notified.
  GlobalCount tick();

  /// GC-critical section: runs `f` with the section lock held and the event
  /// numbered `value()`, then increments — counter update and event
  /// execution as a single atomic action (record mode, non-blocking events).
  /// This overload always uses the single global section, regardless of the
  /// stripe configuration.
  template <typename F>
  GlobalCount with_section(F&& f) {
    check_no_lease();
    GlobalCount v;
    {
      std::unique_lock<std::mutex> lock = acquire_timed(mutex_, nullptr);
      v = value_.load(std::memory_order_relaxed);
      std::forward<F>(f)(v);
      publish_increment_locked(v + 1);
    }
    sections_.fetch_add(1, std::memory_order_relaxed);
    return v;
  }

  /// Sharded GC-critical section: runs `f` holding only the stripe `key`
  /// hashes to, with the event's number assigned by an atomic fetch_add
  /// while the stripe is held.  Falls back to the single section when the
  /// counter was constructed without stripes.  Events whose keys hash to
  /// different stripes execute concurrently; same-key events (and hash
  /// collisions, which only over-serialize) stay atomic with their
  /// numbering.
  template <typename F>
  GlobalCount with_section(SectionKey key, F&& f) {
    if (stripe_count_ == 0) return with_section(std::forward<F>(f));
    check_no_lease();
    Stripe& s = stripes_[stripe_index(key)];
    GlobalCount v;
    {
      std::unique_lock<std::mutex> lock = acquire_timed(s.mutex, &s);
      // seq_cst keeps the per-stripe assignment totally ordered with every
      // other stripe's (a plain release RMW would suffice for the per-object
      // argument, but seq_cst keeps value() monotone for cross-stripe
      // observers and costs the same on x86/ARM RMW).
      v = value_.fetch_add(1, std::memory_order_seq_cst);
      std::forward<F>(f)(v);
    }
    sections_.fetch_add(1, std::memory_order_relaxed);
    return v;
  }

  /// Fully exclusive GC-critical section: excludes every concurrent
  /// with_section() on every stripe (and the single section).  Used by
  /// events whose body snapshots state owned by arbitrary other objects —
  /// checkpoint barriers — where per-object exclusion is not enough.
  template <typename F>
  GlobalCount with_exclusive_section(F&& f) {
    if (stripe_count_ == 0) return with_section(std::forward<F>(f));
    check_no_lease();
    GlobalCount v;
    {
      std::unique_lock<std::mutex> global = acquire_timed(mutex_, nullptr);
      for (std::size_t i = 0; i < stripe_count_; ++i) stripes_[i].mutex.lock();
      v = value_.fetch_add(1, std::memory_order_seq_cst);
      std::forward<F>(f)(v);
      for (std::size_t i = stripe_count_; i > 0; --i) {
        stripes_[i - 1].mutex.unlock();
      }
    }
    sections_.fetch_add(1, std::memory_order_relaxed);
    return v;
  }

  /// Jumps the counter forward to `target` (replay-from-checkpoint: the
  /// skipped prefix of events is accounted for in one step).  Throws
  /// UsageError when the counter is already past `target` — or when the
  /// jump would skip over a parked waiter's turn (resuming past events
  /// that live threads still intend to execute is a checkpoint/skip usage
  /// error, not a schedule divergence; the error names the skipped target)
  /// — or while an interval lease is active (the leaseholder owns the
  /// counter; jumping underneath it would forge its unpublished events).
  void advance_to(GlobalCount target);

  // --- replay interval leasing ------------------------------------------

  /// Takes a lease on the interval [first, last].  The caller must hold
  /// the turn for `first` (i.e. have just awaited it): the counter's
  /// published value stays at `first` while the leaseholder executes the
  /// interval's events locally.  Throws UsageError when the counter is not
  /// at `first` or another lease is already active — replay's turn
  /// protocol admits exactly one owner, so either means a protocol bug at
  /// the call site, not a schedule divergence.
  void lease_begin(GlobalCount first, GlobalCount last);

  /// Publishes partial progress inside the active lease: the counter jumps
  /// to `next`, the leaseholder's next unexecuted value (first < next <=
  /// last).  One seq_cst store + one targeted-wakeup pass, replacing
  /// `next - value()` individual ticks.  Stride publication only ever
  /// under-reports executed progress — `next` counts completed events — so
  /// value() observers see a correct lower bound.
  void lease_publish(GlobalCount next);

  /// Completes the lease at interval end: publishes `last + 1` (the whole
  /// interval becomes visible in one publication) and releases ownership,
  /// waking the thread whose turn `last + 1` is.
  void lease_complete(GlobalCount last);

  /// Releases the lease early at `next`, the leaseholder's next unexecuted
  /// value (quiescing for an event that needs the counter exact, e.g. a
  /// checkpoint barrier): publishes any locally completed events and drops
  /// ownership without reaching interval end.
  void lease_release(GlobalCount next);

  /// Blocks until the counter equals `target` (replay turn-waiting): spins
  /// for up to kSpinBudget when spins() is true, then parks.  Throws
  /// ReplayDivergenceError if the counter is already past `target` (an
  /// earlier event over-ticked — the log and the execution disagree), if
  /// the counter has been poisoned, or if the stall detector fires (a
  /// tampered/mismatched log can leave every thread waiting for a value
  /// nobody will produce; the detector turns that deadlock into a
  /// diagnosable error).  The stall window is the constructor's
  /// `stall_timeout`, counted only while at least one waiter is parked and
  /// held off (up to kStallGraceFactor windows) while non-parked runners
  /// could still produce progress.
  void await(GlobalCount target);

  /// Marks the counter poisoned: every current and future await throws.
  /// Called when any thread of the VM fails, so sibling threads unwind
  /// instead of waiting for turns that will never come.
  void poison();

  /// Runner registry for the stall detector: a "runner" is a thread that
  /// can potentially tick the counter (a bound application thread that is
  /// not blocked outside the scheduler, e.g. in std::thread::join).  When
  /// every runner is parked in await(), no progress is possible and a
  /// stall is certain after one window; otherwise waiters extend.  A
  /// counter with no registered runners (unit tests, benches) treats every
  /// quiet window as a stall, matching the historical behaviour.
  void runner_began();
  void runner_ended();

  /// Self-measurement snapshot (lock-free, monotone between calls).
  SchedStats stats() const;

  /// The configured stall window.
  std::chrono::milliseconds stall_timeout() const { return stall_timeout_; }

  /// Stripes in the record-section lock table (0 = single section).
  std::size_t record_stripes() const { return stripe_count_; }

  /// Whether await() spins before it parks: fixed at construction, true
  /// when the constructing thread may run on at least two CPUs.
  bool spins() const { return spins_; }

 private:
  struct Waiter;

  /// One lock-table stripe.  Cache-line sized so neighbouring stripes do
  /// not false-share under concurrent record traffic.
  struct alignas(64) Stripe {
    std::mutex mutex;
    /// Contended acquisitions of this stripe (relaxed; feeds the
    /// max_stripe_collisions high-water mark).
    std::atomic<std::uint64_t> contended{0};
  };

  std::size_t stripe_index(SectionKey key) const {
    // splitmix64 finalizer: cheap, and scrambles the low bits pointers
    // leave constant (alignment) before the modulo.
    std::uint64_t x = key;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(x % stripe_count_);
  }

  /// Misuse guard shared by every GC-critical-section entry point: record
  /// sections and replay leases must never coexist (sections are the
  /// record-mode event path, leases the replay-mode one).  One relaxed
  /// load of a flag that is false for the whole record phase — the hot
  /// path pays a predictable not-taken branch.
  void check_no_lease() const {
    if (lease_active_.load(std::memory_order_relaxed)) {
      throw UsageError(
          "GC-critical section while a replay interval lease is active: "
          "record sections and replay leases must never coexist");
    }
  }

  /// Locks `m`, counting the acquisition as contended (and timing the wait)
  /// when the lock was not immediately available.  `stripe` is the stripe
  /// whose collision counter to bump, nullptr for the global section.  The
  /// clock is only read on the contended path, so the uncontended hot path
  /// stays a bare try_lock.
  std::unique_lock<std::mutex> acquire_timed(std::mutex& m, Stripe* stripe);

  /// Stores the new value and, when waiters are parked, records progress
  /// and releases those whose turn arrived.  Caller holds mutex_.
  void publish_increment_locked(GlobalCount new_value);

  /// Mutex-taking tail of tick(): record progress, release the waiter whose
  /// turn arrived.
  void notify_waiters_slow(GlobalCount new_value);

  /// Releases (and notifies) every parked waiter whose target the counter
  /// has reached or passed.  Caller holds mutex_.
  void release_reached_locked(GlobalCount new_value);

  [[noreturn]] void throw_poisoned() const;

  std::atomic<GlobalCount> value_{0};
  std::atomic<bool> poisoned_{false};

  /// Number of currently parked waiters.  seq_cst stores/loads pair with
  /// value_'s to close the register-vs-tick race (Dekker): a waiter
  /// publishes its slot (parked_.fetch_add in await) then re-reads the
  /// value (value_.load in await's loop); a ticker publishes the value
  /// (value_.fetch_add in tick) then reads the parked count (parked_.load
  /// in tick) — at least one side always sees the other.  Each seq_cst
  /// operation below names its partner on the other side of this pair.
  std::atomic<std::uint64_t> parked_{0};

  std::atomic<std::uint64_t> runners_{0};

  /// True while a replay interval lease is held.  Atomic because guards
  /// (advance_to, with_section, a second lease_begin) read it from other
  /// threads; lease_first_ is written at lease_begin and read at
  /// publication/release only by the leaseholder, so it needs no atomics.
  std::atomic<bool> lease_active_{false};
  GlobalCount lease_first_ = 0;

  // Stats (relaxed; exactness across threads is not required).
  std::atomic<std::uint64_t> ticks_{0};
  std::atomic<std::uint64_t> sections_{0};
  std::atomic<std::uint64_t> waits_fast_{0};
  std::atomic<std::uint64_t> waits_parked_{0};
  std::atomic<std::uint64_t> waits_spun_{0};
  std::atomic<std::uint64_t> wakeups_delivered_{0};
  std::atomic<std::uint64_t> wakeups_spurious_{0};
  std::atomic<std::uint64_t> stall_detections_{0};
  std::atomic<std::uint64_t> max_parked_waiters_{0};
  std::atomic<std::uint64_t> total_wait_micros_{0};
  std::atomic<std::uint64_t> max_wait_micros_{0};
  std::atomic<std::uint64_t> stripe_waits_{0};
  std::atomic<std::uint64_t> section_wait_micros_{0};
  std::atomic<std::uint64_t> leases_{0};
  std::atomic<std::uint64_t> leased_events_{0};
  std::atomic<std::uint64_t> lease_publishes_{0};
  /// Contended acquisitions of the single global section (the "stripe 0"
  /// of the unsharded layout; feeds max_stripe_collisions there).
  std::atomic<std::uint64_t> global_contended_{0};

  const std::chrono::milliseconds stall_timeout_;
  const bool spins_;

  /// Record-section lock table (empty = single-section mode).  Immutable
  /// after construction.
  const std::size_t stripe_count_;
  std::unique_ptr<Stripe[]> stripes_;

  mutable std::mutex mutex_;
  /// Intrusive list of parked waiters (slots live on the waiting threads'
  /// stacks).  Guarded by mutex_.
  Waiter* waiters_ = nullptr;
  /// Last time the counter made progress while waiters were parked; the
  /// stall clock's anchor.  Reset when the parked set becomes non-empty so
  /// stall time only accumulates while someone is actually parked.
  /// Guarded by mutex_.
  std::chrono::steady_clock::time_point last_progress_{};
};

}  // namespace djvu::sched
