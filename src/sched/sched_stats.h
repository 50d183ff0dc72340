// Scheduler observability: counters the GlobalCounter maintains about its
// own hot path, so the cost of §2.2's ordering primitive is measurable
// instead of argued about (cf. "Distributed Order Recording Techniques for
// Efficient Record-and-Replay of Multi-threaded Programs": instrument the
// order-recording path itself).
//
// The headline metric is wakeups per critical event: a broadcast design
// wakes every parked waiter on every tick (O(waiters)); the targeted design
// wakes exactly the turn-holder (O(1)), which `wakeups_delivered` vs
// `wakeups_spurious` makes visible.  `bench_micro` and `bench_replay_speed`
// print these; `record::to_text(LogStats)` renders them next to the log
// shape when a snapshot is supplied.
#pragma once

#include <cstdint>
#include <string>

namespace djvu::sched {

/// A point-in-time snapshot of one GlobalCounter's self-measurements.
/// Plain values — taking a snapshot never blocks the scheduler.
struct SchedStats {
  /// Counter increments via tick() (replay-mode event completions outside
  /// a lease: every event per-event, one-event intervals when leasing).
  std::uint64_t ticks = 0;

  /// GC-critical sections executed via with_section() (record-mode events).
  std::uint64_t sections = 0;

  /// await() calls satisfied on the lock-free fast path (the counter had
  /// already reached the target — the common case for the turn-holder).
  std::uint64_t waits_fast = 0;

  /// await() calls that actually parked on a waiter slot.
  std::uint64_t waits_parked = 0;

  /// The part of waits_fast satisfied while spinning: the turn arrived
  /// within the spin budget, so the wait never parked.  Counted in
  /// waits_fast too, so waits_fast + waits_parked stays the total.
  std::uint64_t waits_spun = 0;

  /// Targeted wakeups delivered to the waiter whose turn arrived (also
  /// counts waiters released to report divergence/poison — every release
  /// of a parked waiter is one delivery).
  std::uint64_t wakeups_delivered = 0;

  /// Parked waiters that woke without their turn having arrived (OS-level
  /// spurious wakeups; stays ~0 under the targeted design, O(ticks ×
  /// waiters) under a broadcast design).
  std::uint64_t wakeups_spurious = 0;

  /// Stall-detector firings (each one aborts a replay with
  /// ReplayDivergenceError).
  std::uint64_t stall_detections = 0;

  /// High-water mark of simultaneously parked waiters.
  std::uint64_t max_parked_waiters = 0;

  /// Total and maximum time waiters spent parked (spinning excluded).
  std::uint64_t total_wait_micros = 0;
  std::uint64_t max_wait_micros = 0;

  /// Record-section layout: stripes in the GC-critical-section lock table
  /// (1 = the paper's single section).
  std::uint64_t stripe_count = 0;

  /// Section entries that found their stripe already held and had to
  /// block.
  std::uint64_t stripe_waits = 0;

  /// Total time section entries spent blocked on a held stripe.
  std::uint64_t section_wait_micros = 0;

  /// High-water mark of contended acquisitions on any one stripe.  A large
  /// value concentrated here while stripe_waits is similar means one hot
  /// object (or a hash collision pile-up) the shard layout is not
  /// dissolving.
  std::uint64_t max_stripe_collisions = 0;

  /// Record quantum (TuningConfig::record_quantum): section entries that
  /// found their stripe held by another thread's quantum and waited for it
  /// outside the stripe mutex (stripe_waits stays the mutex's own count).
  std::uint64_t quantum_waits = 0;

  /// Total time those waits took.
  std::uint64_t quantum_wait_micros = 0;

  /// How each quantum wait ended: the holder entered no section for 1/8
  /// of a quantum (idle), gave the stripe up before blocking or moving on
  /// (yielded), or the holder's quantum or the wait itself reached one
  /// quantum (expired).  They sum to quantum_waits once every wait ended.
  std::uint64_t quantum_idle = 0;
  std::uint64_t quantum_yielded = 0;
  std::uint64_t quantum_expired = 0;

  /// Replay interval leases taken (one per logical schedule interval of
  /// two or more events when leasing is on — a one-event interval ticks;
  /// 0 under the paper-faithful per-event protocol).
  std::uint64_t leases_taken = 0;

  /// Critical events executed under a lease with thread-local bookkeeping
  /// only (no atomics, no wakeup scan).
  std::uint64_t leased_events = 0;

  /// Counter publications performed by the lease path: stride publications
  /// plus one interval-end completion per lease — the replay analogue of
  /// ticks.  The leasing win is lease_publish_count << leased_events:
  /// ~(#intervals + #events/stride) publications instead of #events.
  std::uint64_t lease_publish_count = 0;

  /// Wakeups (delivered + spurious) per counter publication — the O(1) vs
  /// O(waiters) acceptance metric.  0 when nothing ever ticked.
  double wakeups_per_tick() const {
    const std::uint64_t t = ticks + sections + lease_publish_count;
    return t == 0 ? 0.0
                  : static_cast<double>(wakeups_delivered + wakeups_spurious) /
                        static_cast<double>(t);
  }
};

/// Multi-line human-readable rendering.
std::string to_text(const SchedStats& s);

}  // namespace djvu::sched
