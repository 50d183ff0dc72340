#include "sched/turn_gate.h"

#include <algorithm>
#include <condition_variable>
#include <string>

#include "common/errors.h"
#include "sched/spin_wait.h"

namespace djvu::sched {

namespace {

void raise_max(std::atomic<std::uint64_t>& high, std::uint64_t v) {
  std::uint64_t prev = high.load(std::memory_order_relaxed);
  while (v > prev && !high.compare_exchange_weak(prev, v,
                                                 std::memory_order_relaxed)) {
  }
}

}  // namespace

/// One parked thread's slot.  Lives on the waiting thread's stack for the
/// duration of its wait; linked into the gate's intrusive list under mutex_.
struct TurnGate::Waiter {
  const TurnCell* cell = nullptr;
  std::uint64_t target = 0;
  std::condition_variable cv;
  /// Set (under mutex_) by whoever releases this waiter: the publication
  /// that reached its target, or poison.  Tells a targeted wakeup from an
  /// OS-level spurious one.
  bool released = false;
  Waiter* next = nullptr;
};

TurnGate::TurnGate(std::chrono::milliseconds stall_timeout)
    : stall_timeout_(stall_timeout), spins_(spinning_pays()) {}

void TurnGate::throw_poisoned() {
  throw ReplayDivergenceError(
      "replay aborted: another thread of this VM diverged (turn gate "
      "poisoned)",
      DivergenceCause::kPoisoned);
}

void TurnGate::release_reached(const TurnCell& cell, std::uint64_t v) {
  std::lock_guard<std::mutex> lock(mutex_);
  last_progress_ = std::chrono::steady_clock::now();
  for (Waiter* w = waiters_; w != nullptr; w = w->next) {
    // Targeted wakeup: in a consistent schedule at most one thread waits
    // for the value a cell just reached; targets strictly below it belong
    // to waiters the cell jumped past, whose owners must wake to report it.
    if (w->cell != &cell || w->target > v || w->released) continue;
    w->released = true;
    wakeups_delivered_.fetch_add(1, std::memory_order_relaxed);
    w->cv.notify_one();
  }
}

std::uint64_t TurnGate::wait_slow(const TurnCell& cell, std::uint64_t target,
                                  TurnTally& tally) {
  // Spin phase: poll without registering, so publishers keep their
  // lock-free path.  A cell published past the target, like a budget that
  // ran out, falls through to the park path, whose re-check reports it.
  if (spins_ && spin_until([&] {
        return poisoned_.load(std::memory_order_relaxed) ||
               cell.load(std::memory_order_seq_cst) >= target;
      })) {
    if (poisoned_.load(std::memory_order_acquire)) throw_poisoned();
    const std::uint64_t v = cell.load(std::memory_order_seq_cst);
    if (v == target) {
      tally.waits_fast.add();
      tally.waits_spun.add();
      return v;
    }
  }

  const auto park_start = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(mutex_);
  if (parked_.load(std::memory_order_relaxed) == 0) last_progress_ = park_start;
  Waiter self;
  self.cell = &cell;
  self.target = target;
  self.next = waiters_;
  waiters_ = &self;
  raise_max(max_parked_waiters_,
            parked_.fetch_add(1, std::memory_order_seq_cst) + 1);
  waits_parked_.fetch_add(1, std::memory_order_relaxed);

  bool stalled = false;
  for (;;) {
    if (poisoned_.load(std::memory_order_relaxed)) break;
    // Re-read after registering (see published()).
    if (cell.load(std::memory_order_seq_cst) >= target) break;
    // The one stall rule.  Every runner parked: nobody can publish, so one
    // quiet window is a certain deadlock.  Otherwise a runner may be
    // legitimately slow (a long recorded read), so ride out up to
    // kStallGraceFactor quiet windows.  A publication resets both clocks.
    const auto now = std::chrono::steady_clock::now();
    const auto window_end = last_progress_ + stall_timeout_;
    const auto grace_end = last_progress_ + stall_timeout_ * kStallGraceFactor;
    if (now >= grace_end ||
        (now >= window_end && parked_.load(std::memory_order_relaxed) >=
                                  runners_.load(std::memory_order_relaxed))) {
      stalled = true;
      break;
    }
    self.released = false;
    const auto wake = self.cv.wait_until(
        lock, now < window_end ? window_end
                               : std::min(now + stall_timeout_, grace_end));
    if (wake == std::cv_status::no_timeout && !self.released &&
        !poisoned_.load(std::memory_order_relaxed) &&
        cell.load(std::memory_order_seq_cst) < target) {
      wakeups_spurious_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  for (Waiter** p = &waiters_; *p != nullptr; p = &(*p)->next) {
    if (*p == &self) {
      *p = self.next;
      break;
    }
  }
  const std::uint64_t parked_with_self =
      parked_.fetch_sub(1, std::memory_order_seq_cst);
  const auto waited = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - park_start)
          .count());
  total_wait_micros_.fetch_add(waited, std::memory_order_relaxed);
  raise_max(max_wait_micros_, waited);
  lock.unlock();

  if (poisoned_.load(std::memory_order_acquire)) throw_poisoned();
  const std::uint64_t v = cell.load(std::memory_order_seq_cst);
  if (stalled && v < target) {
    stall_detections_.fetch_add(1, std::memory_order_relaxed);
    throw ReplayDivergenceError(
        "replay stalled at " + std::to_string(v) + " while waiting for " +
            std::to_string(target) + " (" + std::to_string(parked_with_self) +
            " waiter(s) parked, " +
            std::to_string(runners_.load(std::memory_order_relaxed)) +
            " runner(s) registered): the schedule log does not match this "
            "execution",
        DivergenceCause::kStall);
  }
  return v;
}

std::optional<std::uint64_t> TurnGate::parked_below(
    const TurnCell& cell, std::uint64_t bound) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::optional<std::uint64_t> lowest;
  for (const Waiter* w = waiters_; w != nullptr; w = w->next) {
    if (w->cell == &cell && w->target < bound &&
        (!lowest || w->target < *lowest)) {
      lowest = w->target;
    }
  }
  return lowest;
}

void TurnGate::poison() {
  std::lock_guard<std::mutex> lock(mutex_);
  poisoned_.store(true, std::memory_order_release);
  for (Waiter* w = waiters_; w != nullptr; w = w->next) {
    if (!w->released) {
      w->released = true;
      wakeups_delivered_.fetch_add(1, std::memory_order_relaxed);
    }
    w->cv.notify_one();
  }
}

SchedStats TurnGate::stats() const {
  SchedStats s;
  tallies_.add_to(s);
  s.waits_parked = waits_parked_.load(std::memory_order_relaxed);
  s.wakeups_delivered = wakeups_delivered_.load(std::memory_order_relaxed);
  s.wakeups_spurious = wakeups_spurious_.load(std::memory_order_relaxed);
  s.stall_detections = stall_detections_.load(std::memory_order_relaxed);
  s.max_parked_waiters = max_parked_waiters_.load(std::memory_order_relaxed);
  s.total_wait_micros = total_wait_micros_.load(std::memory_order_relaxed);
  s.max_wait_micros = max_wait_micros_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace djvu::sched
