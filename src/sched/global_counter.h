// The per-DJVM global counter and GC-critical section (§2.2).
//
// "The approach to capture logical thread schedule information is based on a
// global counter (i.e., time stamp) shared by all the threads ... The global
// counter ticks at each execution of a critical event to uniquely identify
// each critical event."
//
// Record mode: `with_section(key, f)` performs counter update + event
// execution as one atomic operation (the paper's application-transparent,
// light-weight GC-critical section).  Blocking events instead run outside
// the section and call `tick()` afterwards to mark themselves.
//
// The section is a striped lock table keyed by the event's conflict object
// (constructor `record_stripes >= 1`).  `with_section(key, f)` locks only
// the stripe the key hashes to, assigns the event's number with an atomic
// fetch_add *while holding the stripe*, and runs the event body under that
// stripe.  One stripe is the paper's single section: every event takes the
// same lock.  With more stripes, events on independent objects proceed in
// parallel; events on the same object stay mutually exclusive with their
// numbering, so the counter order restricted to any one object equals its
// lock-acquisition (i.e. access) order.  Replay's total-order enforcement —
// unchanged — linearizes all per-object orders and therefore reproduces
// every observed value (docs/INTERNALS.md "Sharded GC-critical sections"
// gives the full argument).  `with_exclusive_section(f)` locks every stripe
// for events that must exclude ALL concurrent events (checkpoint
// snapshots).
//
// Record quantum (constructor `record_quantum > 0`): `with_section(key,
// hold, f)` additionally gives each stripe a bounded owner.  The thread
// that takes a stripe keeps it for up to one quantum; a contender polls
// the stripe's owner line and goes ahead once the owner's quantum has run
// out, its own wait has reached the quantum, the owner has gone idle, or
// the owner has given the stripe up (StripeHold, yield_stripe).  The
// recorded schedule then holds runs of one thread's events instead of the
// finest interleaving the hardware happens to produce; mutual exclusion
// still comes from the stripe mutex alone, so the quantum only ever delays
// a contender, never for more than one quantum (docs/INTERNALS.md §1a).
//
// Replay mode: `await(g)` blocks a thread until the counter reaches its next
// event's recorded value; `tick()` releases the next event in the total
// order.  A one-event interval takes exactly that pair; only an interval of
// two or more events is leased (below).
//
// Interval-leased replay (`lease_begin`/`lease_publish`/`lease_complete`):
// a thread whose next event opens a logical schedule interval [first, last]
// with last > first performs ONE await(first), leases the whole range,
// executes the interval's events with thread-local bookkeeping (no
// atomics, no mutex, no wakeup scans — by the interval definition no other
// thread has a recorded event inside the range), and publishes the entire
// interval with a single lease_complete.  Long intervals publish partial
// progress every stride events via lease_publish so `value()` observers
// (the stall detector, checkpoint snapshots, SchedStats) never see a
// frozen counter; published values only ever under-report executed
// progress, never over-report (docs/INTERNALS.md §1b).  Replay's turn protocol guarantees
// at most one lease exists at a time.
//
// Replay turn waits, poison and the stall detector live in the counter's
// TurnGate (sched/turn_gate.h), which causal replay's waits on object
// order cells share.  value(), the await fast path and replay-mode tick()
// with nobody parked never take a mutex, and they write no shared cache
// line but value_ itself: every per-event and per-interval count (ticks,
// sections, leases, fast waits) goes to the calling thread's TurnTally
// (sched/turn_tally.h), a slot tally() hands each thread, and stats() sums
// the slots.
//
// Concurrency contract: with_section() calls on the same stripe are
// mutually exclusive with each other but NOT with tick(); the two are
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
#include "sched/turn_gate.h"

namespace djvu::sched {

/// Conflict key for the record section: an integer identifying the
/// object a critical event conflicts on (usually a mixed object address;
/// thread-local events use an odd key derived from the thread number, which
/// can never collide with an aligned pointer).
using SectionKey = std::uint64_t;

/// One thread's hold on at most one record-section stripe under the record
/// quantum.  Each recording thread keeps its own (sched::ThreadState) and
/// passes it to with_section / yield_stripe; the counter touches it only on
/// that thread, so it needs no synchronization.
struct StripeHold {
  static constexpr std::size_t kNone = ~std::size_t{0};

  /// Names the holder on the stripe's owner line: nonzero, and distinct
  /// among the threads of one counter (the thread number + 1).  A
  /// collision only costs a contender an unneeded wait.
  std::uint32_t token = 1;
  /// Index of the held stripe, or kNone.
  std::size_t stripe = kNone;
  /// The owner word this thread wrote when it took the stripe (token and
  /// take time); the stripe is still held while its owner line equals it.
  std::uint64_t word = 0;
  /// The key this thread last published as the holder's key.
  SectionKey key = 0;
  /// The stripe this thread last gave up while its owner line still held
  /// `word`, or kNone.  Re-taking it while it is still free restores
  /// `word` without a clock read (GlobalCounter::take_stripe).
  std::size_t yielded = kNone;
};

/// Thread-safe global counter; replay turn-waiting goes through its gate.
class GlobalCounter {
 public:
  /// `stall_timeout` is the turn gate's stall window (TurnGate).
  ///
  /// `record_stripes` is the size of the record-section lock table: 1 is
  /// the paper-faithful single GC-critical section, N > 1 shards it by
  /// conflict key (replay never enters a section — turn-waiting is
  /// layout-independent).  0 is a UsageError.
  ///
  /// `record_quantum` is each stripe's owner quantum for the holding
  /// with_section overload: 0 leaves that overload the plain section;
  /// negative, or beyond kMaxRecordQuantum, is a UsageError.
  explicit GlobalCounter(std::chrono::milliseconds stall_timeout =
                             std::chrono::milliseconds(10000),
                         std::size_t record_stripes = 1,
                         std::chrono::microseconds record_quantum =
                             std::chrono::microseconds(0));
  GlobalCounter(const GlobalCounter&) = delete;
  GlobalCounter& operator=(const GlobalCounter&) = delete;

  /// Current value (== number of critical events started so far).
  /// Lock-free.
  /// Acquire, not seq_cst: this is a pure observer — it pairs with the
  /// (release-or-stronger) publications in tick() / with_section() /
  /// publish() to see a fresh value, but it is NOT part of the
  /// register-vs-publish pairing (see TurnGate::published()).
  GlobalCount value() const { return value_.load(std::memory_order_acquire); }

  /// Hands the calling thread its tally (TurnGate::tally): every counter
  /// operation below counts in the tally its caller passes, and stats()
  /// sums them all.  A thread claims one and passes it to every call.
  TurnTally& tally() { return gate_.tally(); }

  /// Marks one critical event: atomically assigns the current value to the
  /// event and increments.  Returns the assigned value.  Lock-free unless a
  /// waiter is parked; then the one waiter whose turn arrived is notified.
  GlobalCount tick(TurnTally& tally);

  /// GC-critical section: runs `f` holding only the stripe `key` hashes
  /// to, with the event's number assigned by an atomic fetch_add while the
  /// stripe is held — counter update and event execution as a single
  /// atomic action (record mode, non-blocking events).  Events whose keys
  /// hash to different stripes execute concurrently; same-key events (and
  /// hash collisions, which only over-serialize — with one stripe, every
  /// event collides) stay atomic with their numbering.
  template <typename F>
  GlobalCount with_section(SectionKey key, TurnTally& tally, F&& f) {
    return run_section(stripes_[stripe_index(key)], tally,
                       std::forward<F>(f));
  }

  /// The same section under the record quantum: the calling thread first
  /// holds `key`'s stripe — at once when it already does or the stripe is
  /// free, else after a bounded quantum wait — giving up the stripe it held
  /// before.  Only a holder on the same key is waited for: a contender
  /// whose key merely collides with the holder's enters the section
  /// without holding the stripe.  The holder pays one owner-line load and
  /// one relaxed store per event, and reads the clock only when it takes a
  /// stripe.  With record_quantum 0 this is with_section(key, tally, f).
  template <typename F>
  GlobalCount with_section(SectionKey key, StripeHold& hold, TurnTally& tally,
                           F&& f) {
    const std::size_t i = stripe_index(key);
    Stripe& s = stripes_[i];
    if (quantum_us_ != 0 &&
        ((hold.stripe == i &&
          s.owner.load(std::memory_order_relaxed) == hold.word) ||
         take_stripe(i, key, hold))) {
      if (hold.key != key) {
        // A second key on the held stripe (a hash collision): contenders
        // compare against the key the holder is using now.
        hold.key = key;
        s.owner_key.store(key, std::memory_order_relaxed);
      }
      // The liveness beat contenders read to tell a busy holder from an
      // idle one; only the holder writes it, so load + store suffices.
      s.entries.store(s.entries.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
    }
    return run_section(s, tally, std::forward<F>(f));
  }

  /// Gives up the stripe `hold` names, if the caller still holds it, so a
  /// contender goes ahead at once.  Record threads call it before they
  /// block (a native monitor lock, a condvar wait, a network call, a join)
  /// and when they end.  A no-op with record_quantum 0 or no stripe held.
  void yield_stripe(StripeHold& hold) {
    if (hold.stripe == StripeHold::kNone) return;
    std::uint64_t expected = hold.word;
    hold.yielded = stripes_[hold.stripe].owner.compare_exchange_strong(
                       expected, 0, std::memory_order_release,
                       std::memory_order_relaxed)
                       ? hold.stripe
                       : StripeHold::kNone;
    hold.stripe = StripeHold::kNone;
  }

  /// Fully exclusive GC-critical section: excludes every concurrent
  /// with_section() on every stripe.  Used by
  /// events whose body snapshots state owned by arbitrary other objects —
  /// checkpoint barriers — where per-object exclusion is not enough.
  template <typename F>
  GlobalCount with_exclusive_section(TurnTally& tally, F&& f) {
    check_no_lease();
    GlobalCount v;
    {
      for (std::size_t i = 0; i < stripe_count_; ++i) stripes_[i].mutex.lock();
      v = value_.fetch_add(1, std::memory_order_seq_cst);
      std::forward<F>(f)(v);
      for (std::size_t i = stripe_count_; i > 0; --i) {
        stripes_[i - 1].mutex.unlock();
      }
    }
    tally.sections.add();
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
  /// Like a spinner, a waiter that parks after the check sees the jump as
  /// its own kCounterPassed divergence.
  void advance_to(GlobalCount target);

  // --- replay interval leasing ------------------------------------------

  /// Takes a lease on the interval [first, last].  The caller must hold
  /// the turn for `first` (i.e. have just awaited it): the counter's
  /// published value stays at `first` while the leaseholder executes the
  /// interval's events locally.  Throws UsageError when the counter is not
  /// at `first` or another lease is already active — replay's turn
  /// protocol admits exactly one owner, so either means a protocol bug at
  /// the call site, not a schedule divergence.  The lease calls count in
  /// the leaseholder's `tally`.
  void lease_begin(GlobalCount first, GlobalCount last, TurnTally& tally);

  /// Publishes partial progress inside the active lease: the counter jumps
  /// to `next`, the leaseholder's next unexecuted value (first < next <=
  /// last).  One seq_cst store + one targeted-wakeup pass, replacing
  /// `next - value()` individual ticks.  Stride publication only ever
  /// under-reports executed progress — `next` counts completed events — so
  /// value() observers see a correct lower bound.
  void lease_publish(GlobalCount next, TurnTally& tally);

  /// Completes the lease at interval end: publishes `last + 1` (the whole
  /// interval becomes visible in one publication) and releases ownership,
  /// waking the thread whose turn `last + 1` is.
  void lease_complete(GlobalCount last, TurnTally& tally);

  /// Releases the lease early at `next`, the leaseholder's next unexecuted
  /// value (quiescing for an event that needs the counter exact, e.g. a
  /// checkpoint barrier): publishes any locally completed events and drops
  /// ownership without reaching interval end.
  void lease_release(GlobalCount next, TurnTally& tally);

  /// Blocks until the counter equals `target` (replay turn-waiting, see
  /// TurnGate::wait).  Throws ReplayDivergenceError if the counter is
  /// already past `target` (an earlier event over-ticked — the log and the
  /// execution disagree), when poisoned, or when the stall detector fires.
  void await(GlobalCount target, TurnTally& tally) {
    const GlobalCount v = gate_.wait(value_, target, tally);
    if (v != target) throw_passed(target, v);
  }

  /// The gate every replay wait of this VM goes through, causal waits on
  /// object order cells (vm::Conflict) too.
  /// Poison, the runner registry and the stall window live there.
  TurnGate& gate() { return gate_; }
  void poison() { gate_.poison(); }
  void runner_began() { gate_.runner_began(); }
  void runner_ended() { gate_.runner_ended(); }
  bool spins() const { return gate_.spins(); }

  /// Self-measurement snapshot (monotone between calls; it locks only the
  /// tally list, never the turn path).  The per-event counts are the sums
  /// of every thread's tally; the wait fields count every wait through
  /// gate(), causal ones included.
  SchedStats stats() const;

  /// Stripes in the record-section lock table (1 = the single section).
  std::size_t record_stripes() const { return stripe_count_; }

  /// Largest accepted record quantum: the owner line keeps the take time
  /// in kTimeBits of microseconds, and elapsed times are taken modulo
  /// 2^kTimeBits, so a quantum must stay below half that range.
  static constexpr std::chrono::microseconds kMaxRecordQuantum{
      std::int64_t{1} << 38};

 private:

  /// One lock-table stripe.  Cache-line sized so neighbouring stripes do
  /// not false-share under concurrent record traffic.
  struct alignas(64) Stripe {
    std::mutex mutex;
    /// Contended acquisitions of this stripe (relaxed; feeds the
    /// max_stripe_collisions high-water mark).
    std::atomic<std::uint64_t> contended{0};
    /// Record quantum: the holder's owner word (token in the low
    /// kTokenBits, take time in microseconds since the counter's epoch
    /// above them; 0 = free) and the key it holds the stripe for, on a
    /// line contenders poll and only a claim, a yield or a colliding key
    /// writes.
    alignas(64) std::atomic<std::uint64_t> owner{0};
    std::atomic<SectionKey> owner_key{0};
    /// The holder's section entries (the liveness beat), on a line of its
    /// own: the holder writes it per event, and contenders read it only
    /// once per clock read, so their polling never steals the holder's
    /// line on every event.
    alignas(64) std::atomic<std::uint64_t> entries{0};
  };

  /// Owner-word layout: the token's low bits and the take time.
  static constexpr int kTokenBits = 24;
  static constexpr int kTimeBits = 64 - kTokenBits;
  static constexpr std::uint64_t kTimeMask = (std::uint64_t{1} << kTimeBits) - 1;

  /// A holder counts as idle once it has entered no section for
  /// 1/kIdleFraction of a quantum (6.25 us at the 50 us default; checked
  /// once per round of polls, so never sooner than one round).  Measured
  /// in time, not polls, so a build whose events run slower (a sanitizer)
  /// does not mistake a busy holder for an idle one.
  static constexpr std::uint64_t kIdleFraction = 8;

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

  /// The section body shared by both with_section overloads.
  template <typename F>
  GlobalCount run_section(Stripe& s, TurnTally& tally, F&& f) {
    check_no_lease();
    GlobalCount v;
    {
      std::unique_lock<std::mutex> lock = acquire_timed(s);
      // seq_cst keeps the per-stripe assignment totally ordered with every
      // other stripe's (a plain release RMW would suffice for the per-object
      // argument, but seq_cst keeps value() monotone for cross-stripe
      // observers and costs the same on x86/ARM RMW).
      v = value_.fetch_add(1, std::memory_order_seq_cst);
      std::forward<F>(f)(v);
    }
    tally.sections.add();
    return v;
  }

  /// Record quantum slow path: gives up `hold`'s old stripe and holds
  /// stripe `i` for `key` — claiming it at once when free (with the old
  /// owner word when `i` is the stripe `hold` just yielded), else after
  /// quantum_wait — and returns true.  Returns false, holding nothing,
  /// when the stripe's holder uses another key: a collision is no reason
  /// to wait.
  bool take_stripe(std::size_t i, SectionKey key, StripeHold& hold);

  /// Polls stripe `s`'s owner line until the stripe is free, its holder's
  /// quantum has run out, the holder is idle (no section entry for
  /// 1/kIdleFraction of a quantum), or this wait has lasted one quantum —
  /// then claims it for `hold`.  Counts the wait and how it ended.
  void quantum_wait(Stripe& s, SectionKey key, StripeHold& hold);

  /// CASes `s`'s owner line from `expected` to `hold`'s word stamped
  /// `now_us`; on success records the word in `hold` and publishes `key`
  /// as the holder's key.
  bool claim(Stripe& s, std::uint64_t expected, SectionKey key,
             StripeHold& hold, std::uint64_t now_us);

  /// claim() with the owner word given: CASes `s`'s owner line from
  /// `expected` to `word`.
  bool claim_word(Stripe& s, std::uint64_t expected, std::uint64_t word,
                  SectionKey key, StripeHold& hold);

  /// Microseconds since the counter's epoch (the owner-word time base).
  std::uint64_t now_us() const;

  /// Locks `stripe`, counting the acquisition as contended (and timing the
  /// wait) when the lock was not immediately available.  The clock is only
  /// read on the contended path, so the uncontended hot path stays a bare
  /// try_lock.
  std::unique_lock<std::mutex> acquire_timed(Stripe& stripe);

  /// Stores `v` (seq_cst, the cell side of TurnGate::published()'s
  /// pairing) and releases the waiters whose turn arrived.
  void publish(GlobalCount v) {
    value_.store(v, std::memory_order_seq_cst);
    gate_.published(value_, v);
  }

  [[noreturn]] static void throw_passed(GlobalCount target, GlobalCount v);

  /// A spinning waiter polls value_ and the gate's poison flag, so both
  /// sit on cache lines that nothing else writes per turn: a lease's own
  /// bookkeeping (lease_active_) would otherwise invalidate every
  /// spinner's copy several times per handoff.  The per-turn counts live
  /// in the threads' tallies, off every shared line.
  alignas(64) TurnCell value_{0};
  TurnGate gate_;

  /// Record-section lock table.  Immutable after construction.
  const std::size_t stripe_count_;
  std::unique_ptr<Stripe[]> stripes_;
  /// Record quantum in microseconds (0 = none) and the owner-word epoch.
  const std::uint64_t quantum_us_;
  const std::chrono::steady_clock::time_point epoch_;
  /// True while a replay interval lease is held.  Atomic because guards
  /// (advance_to, with_section, a second lease_begin) read it from other
  /// threads; lease_first_ is written at lease_begin and read at
  /// publication/release only by the leaseholder, so it needs no atomics.
  std::atomic<bool> lease_active_{false};
  GlobalCount lease_first_ = 0;

  // Rare-path stats (relaxed; exactness across threads is not required):
  // contended stripes and quantum waits only.
  alignas(64) std::atomic<std::uint64_t> stripe_waits_{0};
  std::atomic<std::uint64_t> section_wait_micros_{0};
  std::atomic<std::uint64_t> quantum_waits_{0};
  std::atomic<std::uint64_t> quantum_wait_micros_{0};
  std::atomic<std::uint64_t> quantum_idle_{0};
  std::atomic<std::uint64_t> quantum_yielded_{0};
  std::atomic<std::uint64_t> quantum_expired_{0};
};

}  // namespace djvu::sched
