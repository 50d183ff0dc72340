// Spin-then-park for replay turn waits (docs/INTERNALS.md §1).
//
// A replay turn handoff is short: the turn-holder runs one event (or one
// leased interval) and publishes the next value.  Parking on a condition
// variable turns every such handoff into a futex wake plus a cross-core
// reschedule, tens of microseconds each.  TurnGate::wait therefore polls
// for a short fixed budget first and only parks when the turn has not
// arrived by then.  The pollers never register as waiters, so the wakers'
// lock-free fast paths are unaffected.
#pragma once

#include <chrono>

#include "common/cpus.h"

namespace djvu::sched {

/// How long a turn wait polls before it parks.  Long enough to cover a
/// typical handoff on a multi-core host, short against every stall window
/// (milliseconds and up), so a stalled waiter still parks and reaches the
/// stall detector almost at once.
inline constexpr std::chrono::microseconds kSpinBudget{50};

/// Polls between clock reads (a steady_clock read costs more than a poll).
inline constexpr int kSpinPollsPerClockRead = 64;

/// Whether waits should spin at all: only when the calling thread may run
/// on at least two CPUs.  On one CPU the turn-holder cannot run while the
/// waiter spins, so every spin would be a lost budget.
inline bool spinning_pays() { return usable_cpus() >= 2; }

/// Tells the CPU this is a busy-wait loop (frees pipeline resources for a
/// sibling hyperthread and avoids a memory-order mis-speculation on exit).
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Polls `ready()` with a CPU pause between polls for up to kSpinBudget.
/// Returns true as soon as `ready()` does, false when the budget runs out.
template <typename Ready>
bool spin_until(Ready&& ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  for (;;) {
    for (int i = 0; i < kSpinPollsPerClockRead; ++i) {
      if (ready()) return true;
      cpu_relax();
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
  }
}

}  // namespace djvu::sched
