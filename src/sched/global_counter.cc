#include "sched/global_counter.h"

#include <algorithm>
#include <condition_variable>
#include <string>

#include "common/strutil.h"
#include "sched/spin_wait.h"

namespace djvu::sched {

/// One parked thread's slot in the waiter registry.  Lives on the waiting
/// thread's stack for the duration of its await(); linked into the
/// counter's intrusive list under mutex_.
struct GlobalCounter::Waiter {
  GlobalCount target = 0;
  std::condition_variable cv;
  /// Set (under mutex_) by whoever releases this waiter — the tick that
  /// reached its target, an advance, or poison.  Distinguishes a targeted
  /// wakeup from an OS-level spurious one.
  bool released = false;
  Waiter* next = nullptr;
};

GlobalCounter::GlobalCounter(std::chrono::milliseconds stall_timeout,
                             std::size_t record_stripes)
    : stall_timeout_(stall_timeout),
      spins_(spinning_pays()),
      stripe_count_(record_stripes),
      stripes_(record_stripes ? std::make_unique<Stripe[]>(record_stripes)
                              : nullptr) {}

GlobalCounter::~GlobalCounter() = default;

std::unique_lock<std::mutex> GlobalCounter::acquire_timed(std::mutex& m,
                                                          Stripe* stripe) {
  std::unique_lock<std::mutex> lock(m, std::try_to_lock);
  if (lock.owns_lock()) return lock;
  const auto t0 = std::chrono::steady_clock::now();
  lock.lock();
  const auto waited = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  stripe_waits_.fetch_add(1, std::memory_order_relaxed);
  section_wait_micros_.fetch_add(waited, std::memory_order_relaxed);
  if (stripe != nullptr) {
    stripe->contended.fetch_add(1, std::memory_order_relaxed);
  } else {
    global_contended_.fetch_add(1, std::memory_order_relaxed);
  }
  return lock;
}

void GlobalCounter::runner_began() {
  runners_.fetch_add(1, std::memory_order_seq_cst);
}

void GlobalCounter::runner_ended() {
  runners_.fetch_sub(1, std::memory_order_seq_cst);
}

void GlobalCounter::throw_poisoned() const {
  throw ReplayDivergenceError(
      "replay aborted: another thread diverged (counter poisoned)",
      DivergenceCause::kPoisoned);
}

void GlobalCounter::release_reached_locked(GlobalCount new_value) {
  for (Waiter* w = waiters_; w != nullptr; w = w->next) {
    if (w->target > new_value || w->released) continue;
    // Targeted wakeup: awaiters run when value_ >= target, so release the
    // waiter whose target the counter just reached.  In a consistent
    // schedule that is at most one waiter (each turn value is awaited by
    // one thread); targets strictly below new_value belong to waiters the
    // counter jumped past, whose owners must wake to report divergence.
    w->released = true;
    wakeups_delivered_.fetch_add(1, std::memory_order_relaxed);
    w->cv.notify_one();
  }
}

void GlobalCounter::publish_increment_locked(GlobalCount new_value) {
  value_.store(new_value, std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_seq_cst) != 0) {
    last_progress_ = std::chrono::steady_clock::now();
    release_reached_locked(new_value);
  }
}

GlobalCount GlobalCounter::tick() {
  const GlobalCount v = value_.fetch_add(1, std::memory_order_seq_cst);
  ticks_.fetch_add(1, std::memory_order_relaxed);
  // Fast path: nobody parked — no mutex, no notification.  The seq_cst
  // fetch_add/load pair with the waiter's publish-then-recheck closes the
  // race (see parked_'s comment in the header).
  if (parked_.load(std::memory_order_seq_cst) != 0) notify_waiters_slow(v + 1);
  return v;
}

void GlobalCounter::notify_waiters_slow(GlobalCount new_value) {
  std::lock_guard<std::mutex> lock(mutex_);
  last_progress_ = std::chrono::steady_clock::now();
  release_reached_locked(new_value);
}

void GlobalCounter::lease_begin(GlobalCount first, GlobalCount last) {
  if (last < first) {
    throw UsageError("lease_begin: interval [" + std::to_string(first) +
                     ", " + std::to_string(last) + "] is empty");
  }
  const GlobalCount v = value_.load(std::memory_order_seq_cst);
  if (v != first) {
    throw UsageError("lease_begin(" + std::to_string(first) +
                     ") without holding the turn (counter at " +
                     std::to_string(v) + ")");
  }
  if (lease_active_.exchange(true, std::memory_order_seq_cst)) {
    throw UsageError(
        "lease_begin while another lease is active: replay's turn protocol "
        "admits exactly one leaseholder");
  }
  lease_first_ = first;
  leases_.fetch_add(1, std::memory_order_relaxed);
}

void GlobalCounter::lease_publish(GlobalCount next) {
  // The leaseholder is the unique counter mutator while the lease is held
  // (every other replaying thread is parked or pre-await), so a plain
  // store publishes correctly; the seq_cst store + parked_ load is the
  // same Dekker pairing as tick()'s fetch_add + load (see parked_'s
  // comment in the header).
  value_.store(next, std::memory_order_seq_cst);
  lease_publishes_.fetch_add(1, std::memory_order_relaxed);
  if (parked_.load(std::memory_order_seq_cst) != 0) notify_waiters_slow(next);
}

void GlobalCounter::lease_complete(GlobalCount last) {
  leased_events_.fetch_add(last + 1 - lease_first_,
                           std::memory_order_relaxed);
  // Release the lease BEFORE publishing: the thread whose turn last + 1 is
  // may return from await and lease_begin its own interval the instant the
  // new value is visible.
  lease_active_.store(false, std::memory_order_seq_cst);
  lease_publish(last + 1);
}

void GlobalCounter::lease_release(GlobalCount next) {
  leased_events_.fetch_add(next - lease_first_, std::memory_order_relaxed);
  lease_active_.store(false, std::memory_order_seq_cst);
  // Publish only if the leaseholder completed events since the last
  // publication (a release right after begin or a stride boundary is a
  // no-op for observers).
  if (value_.load(std::memory_order_seq_cst) != next) lease_publish(next);
}

void GlobalCounter::advance_to(GlobalCount target) {
  if (lease_active_.load(std::memory_order_seq_cst)) {
    throw UsageError(
        "advance_to(" + std::to_string(target) +
        ") while an interval lease is active: the leaseholder owns the "
        "counter and its unpublished events would be forged");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (value_.load(std::memory_order_seq_cst) > target) {
    throw UsageError("advance_to moving the global counter backwards");
  }
  // A parked waiter whose turn the jump would skip means the caller is
  // resuming past events a live thread still intends to execute — a
  // checkpoint/skip usage error at THIS call site, not a "schedule
  // divergence" for the innocent waiter to throw.
  for (Waiter* w = waiters_; w != nullptr; w = w->next) {
    if (w->target < target) {
      throw UsageError(
          "advance_to(" + std::to_string(target) +
          ") would skip the parked waiter for turn " +
          std::to_string(w->target) +
          ": replay-from-checkpoint must not jump past events a live "
          "thread still intends to execute");
    }
  }
  publish_increment_locked(target);
}

void GlobalCounter::await(GlobalCount target) {
  if (poisoned_.load(std::memory_order_acquire)) throw_poisoned();
  {
    const GlobalCount v = value_.load(std::memory_order_seq_cst);
    if (v == target) {
      // Lock-free fast path: the turn has already arrived (always the case
      // for the thread holding the next turn).
      waits_fast_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (v > target) {
      throw ReplayDivergenceError(
          "global counter passed " + std::to_string(target) + " (now " +
          std::to_string(v) + "): schedule divergence",
          DivergenceCause::kCounterPassed);
    }
  }

  // Spin phase: poll without registering.  A spinner is invisible to the
  // tickers (parked_ stays untouched), so their lock-free fast path holds;
  // it reads value_ itself instead of being told.  A counter that jumped
  // past the target, like a budget that ran out, falls through to the park
  // path, whose publish-then-recheck reports it.
  if (spins_ && spin_until([&] {
        return poisoned_.load(std::memory_order_relaxed) ||
               value_.load(std::memory_order_seq_cst) >= target;
      })) {
    if (poisoned_.load(std::memory_order_acquire)) throw_poisoned();
    if (value_.load(std::memory_order_seq_cst) == target) {
      waits_fast_.fetch_add(1, std::memory_order_relaxed);
      waits_spun_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }

  const auto park_start = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(mutex_);
  // Stall time only accumulates while at least one waiter is parked: the
  // first parker (re)anchors the progress clock.
  if (parked_.load(std::memory_order_relaxed) == 0) {
    last_progress_ = park_start;
  }
  Waiter self;
  self.target = target;
  self.next = waiters_;
  waiters_ = &self;
  const std::uint64_t now_parked =
      parked_.fetch_add(1, std::memory_order_seq_cst) + 1;
  std::uint64_t prev_max = max_parked_waiters_.load(std::memory_order_relaxed);
  while (now_parked > prev_max &&
         !max_parked_waiters_.compare_exchange_weak(
             prev_max, now_parked, std::memory_order_relaxed)) {
  }
  waits_parked_.fetch_add(1, std::memory_order_relaxed);

  bool stalled = false;
  for (;;) {
    if (poisoned_.load(std::memory_order_relaxed)) break;
    // Re-read after publishing the slot: a concurrent tick either sees
    // parked_ != 0 (and will notify us) or happened before our publish (and
    // this load sees its value).
    if (value_.load(std::memory_order_seq_cst) >= target) break;
    const auto now = std::chrono::steady_clock::now();
    const auto stall_deadline = last_progress_ + stall_timeout_;
    const auto hard_deadline = park_start + stall_timeout_ * kStallGraceFactor;
    if (now >= hard_deadline) {
      stalled = true;
      break;
    }
    if (now >= stall_deadline &&
        parked_.load(std::memory_order_relaxed) >=
            runners_.load(std::memory_order_relaxed)) {
      // Every thread that could tick is itself parked: no progress is
      // possible, this is a certain deadlock — diagnose it.
      stalled = true;
      break;
    }
    // Deadline-based predicate wait: wake on the targeted notify, or at the
    // stall deadline to re-evaluate.  While a non-parked runner could still
    // produce progress we re-arm in stall_timeout-sized slices up to the
    // hard deadline instead of firing (legitimate slowness elsewhere — e.g.
    // a long recorded read — must not abort the replay).
    const auto wait_deadline =
        now < stall_deadline
            ? std::min(stall_deadline, hard_deadline)
            : std::min(now + stall_timeout_, hard_deadline);
    self.released = false;
    const auto wake = self.cv.wait_until(lock, wait_deadline);
    if (wake == std::cv_status::no_timeout && !self.released &&
        !poisoned_.load(std::memory_order_relaxed) &&
        value_.load(std::memory_order_seq_cst) < target) {
      wakeups_spurious_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  for (Waiter** p = &waiters_; *p != nullptr; p = &(*p)->next) {
    if (*p == &self) {
      *p = self.next;
      break;
    }
  }
  parked_.fetch_sub(1, std::memory_order_seq_cst);
  const auto waited_micros = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - park_start)
          .count());
  total_wait_micros_.fetch_add(waited_micros, std::memory_order_relaxed);
  std::uint64_t prev_wait = max_wait_micros_.load(std::memory_order_relaxed);
  while (waited_micros > prev_wait &&
         !max_wait_micros_.compare_exchange_weak(prev_wait, waited_micros,
                                                 std::memory_order_relaxed)) {
  }
  lock.unlock();

  if (poisoned_.load(std::memory_order_acquire)) throw_poisoned();
  const GlobalCount v = value_.load(std::memory_order_seq_cst);
  if (stalled && v < target) {
    stall_detections_.fetch_add(1, std::memory_order_relaxed);
    throw ReplayDivergenceError(
        "global counter stalled at " + std::to_string(v) +
        " while waiting for " + std::to_string(target) + " (" +
        std::to_string(parked_.load(std::memory_order_relaxed) + 1) +
        " waiter(s) parked, " +
        std::to_string(runners_.load(std::memory_order_relaxed)) +
        " runner(s) registered): the schedule log does not match this "
        "execution",
        DivergenceCause::kStall);
  }
  if (v > target) {
    throw ReplayDivergenceError(
        "global counter passed " + std::to_string(target) + " (now " +
        std::to_string(v) + "): schedule divergence",
        DivergenceCause::kCounterPassed);
  }
}

void GlobalCounter::poison() {
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

SchedStats GlobalCounter::stats() const {
  SchedStats s;
  s.ticks = ticks_.load(std::memory_order_relaxed);
  s.sections = sections_.load(std::memory_order_relaxed);
  s.waits_fast = waits_fast_.load(std::memory_order_relaxed);
  s.waits_parked = waits_parked_.load(std::memory_order_relaxed);
  s.waits_spun = waits_spun_.load(std::memory_order_relaxed);
  s.wakeups_delivered = wakeups_delivered_.load(std::memory_order_relaxed);
  s.wakeups_spurious = wakeups_spurious_.load(std::memory_order_relaxed);
  s.stall_detections = stall_detections_.load(std::memory_order_relaxed);
  s.max_parked_waiters = max_parked_waiters_.load(std::memory_order_relaxed);
  s.total_wait_micros = total_wait_micros_.load(std::memory_order_relaxed);
  s.max_wait_micros = max_wait_micros_.load(std::memory_order_relaxed);
  s.stripe_count = stripe_count_;
  s.stripe_waits = stripe_waits_.load(std::memory_order_relaxed);
  s.section_wait_micros = section_wait_micros_.load(std::memory_order_relaxed);
  s.leases_taken = leases_.load(std::memory_order_relaxed);
  s.leased_events = leased_events_.load(std::memory_order_relaxed);
  s.lease_publish_count = lease_publishes_.load(std::memory_order_relaxed);
  std::uint64_t worst = global_contended_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < stripe_count_; ++i) {
    worst = std::max(worst,
                     stripes_[i].contended.load(std::memory_order_relaxed));
  }
  s.max_stripe_collisions = worst;
  return s;
}

std::string to_text(const SchedStats& s) {
  std::string out;
  out += str_format(
      "scheduler: %llu ticks, %llu sections, %llu fast waits (%llu spun), "
      "%llu parked waits\n",
      static_cast<unsigned long long>(s.ticks),
      static_cast<unsigned long long>(s.sections),
      static_cast<unsigned long long>(s.waits_fast),
      static_cast<unsigned long long>(s.waits_spun),
      static_cast<unsigned long long>(s.waits_parked));
  out += str_format(
      "  wakeups: %llu delivered, %llu spurious (%.3f per tick), "
      "max %llu parked\n",
      static_cast<unsigned long long>(s.wakeups_delivered),
      static_cast<unsigned long long>(s.wakeups_spurious),
      s.wakeups_per_tick(),
      static_cast<unsigned long long>(s.max_parked_waiters));
  out += str_format(
      "  wait time: %llu us total, %llu us max; %llu stall detection(s)\n",
      static_cast<unsigned long long>(s.total_wait_micros),
      static_cast<unsigned long long>(s.max_wait_micros),
      static_cast<unsigned long long>(s.stall_detections));
  out += str_format(
      "  sections: %llu stripe(s), %llu contended entries, %llu us blocked, "
      "max %llu collisions on one stripe\n",
      static_cast<unsigned long long>(s.stripe_count),
      static_cast<unsigned long long>(s.stripe_waits),
      static_cast<unsigned long long>(s.section_wait_micros),
      static_cast<unsigned long long>(s.max_stripe_collisions));
  out += str_format(
      "  leases: %llu taken, %llu leased event(s), %llu publication(s)\n",
      static_cast<unsigned long long>(s.leases_taken),
      static_cast<unsigned long long>(s.leased_events),
      static_cast<unsigned long long>(s.lease_publish_count));
  return out;
}

}  // namespace djvu::sched
