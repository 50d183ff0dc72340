#include "sched/global_counter.h"

#include <algorithm>
#include <string>

#include "common/strutil.h"
#include "sched/spin_wait.h"

namespace djvu::sched {

GlobalCounter::GlobalCounter(std::chrono::milliseconds stall_timeout,
                             std::size_t record_stripes,
                             std::chrono::microseconds record_quantum)
    : gate_(stall_timeout),
      stripe_count_(record_stripes),
      stripes_(std::make_unique<Stripe[]>(record_stripes)),
      quantum_us_(static_cast<std::uint64_t>(
          std::max<std::int64_t>(record_quantum.count(), 0))),
      epoch_(std::chrono::steady_clock::now()) {
  if (record_stripes == 0) {
    throw UsageError(
        "record_stripes must be at least 1 (1 is the single GC-critical "
        "section)");
  }
  if (record_quantum.count() < 0 || record_quantum > kMaxRecordQuantum) {
    throw UsageError("record_quantum must lie in [0, " +
                     std::to_string(kMaxRecordQuantum.count()) +
                     "] microseconds (0 = no quantum), got " +
                     std::to_string(record_quantum.count()));
  }
}

std::uint64_t GlobalCounter::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

bool GlobalCounter::claim(Stripe& s, std::uint64_t expected, SectionKey key,
                          StripeHold& hold, std::uint64_t now_us) {
  std::uint64_t token = hold.token & ((std::uint64_t{1} << kTokenBits) - 1);
  if (token == 0) token = 1;
  return claim_word(s, expected, ((now_us & kTimeMask) << kTokenBits) | token,
                    key, hold);
}

bool GlobalCounter::claim_word(Stripe& s, std::uint64_t expected,
                               std::uint64_t word, SectionKey key,
                               StripeHold& hold) {
  if (!s.owner.compare_exchange_strong(expected, word,
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
    return false;
  }
  hold.word = word;
  hold.key = key;
  hold.yielded = StripeHold::kNone;
  s.owner_key.store(key, std::memory_order_relaxed);
  return true;
}

bool GlobalCounter::take_stripe(std::size_t i, SectionKey key,
                                StripeHold& hold) {
  // A thread holds at most one stripe: moving on gives the old one up.
  yield_stripe(hold);
  Stripe& s = stripes_[i];
  // Re-taking the stripe this thread gave up before it blocked (a network
  // event, a monitor): when it is still free, the old owner word goes back
  // without a clock read.  The quantum then counts on from the original
  // take, so a contender's bound can only shrink.
  if (hold.yielded == i && s.owner.load(std::memory_order_relaxed) == 0 &&
      claim_word(s, 0, hold.word, key, hold)) {
    hold.stripe = i;
    return true;
  }
  if (s.owner.load(std::memory_order_relaxed) != 0 ||
      !claim(s, 0, key, hold, now_us())) {
    // Held: only a holder on the same key is worth waiting for.
    if (s.owner_key.load(std::memory_order_relaxed) != key) return false;
    quantum_wait(s, key, hold);
  }
  hold.stripe = i;
  return true;
}

void GlobalCounter::quantum_wait(Stripe& s, SectionKey key,
                                 StripeHold& hold) {
  // Counted when the wait starts, so a test can see a contender waiting.
  quantum_waits_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t start = now_us();
  // The holder word and entry count last seen, and since when.
  std::uint64_t seen = s.owner.load(std::memory_order_relaxed);
  std::uint64_t seen_entries = s.entries.load(std::memory_order_relaxed);
  std::uint64_t seen_since = start;
  // The SchedStats count of how the wait ended.
  std::atomic<std::uint64_t>* ended = nullptr;
  while (ended == nullptr) {
    // A free stripe is claimed by exactly one contender (the CAS); the
    // others see the new holder and keep waiting on its quantum.
    for (int p = 0; p < kSpinPollsPerClockRead; ++p) {
      if (s.owner.load(std::memory_order_relaxed) == 0 &&
          claim(s, 0, key, hold, now_us())) {
        ended = &quantum_yielded_;
        break;
      }
      cpu_relax();
    }
    if (ended != nullptr) break;
    const std::uint64_t now = now_us();
    const std::uint64_t w = s.owner.load(std::memory_order_relaxed);
    const std::uint64_t e = s.entries.load(std::memory_order_relaxed);
    if (w == 0) continue;  // freed since the last poll: claim it above
    // The holder may have claimed after `now` was read: a take time ahead
    // of `now` wraps to more than half the time range and means "just
    // taken", not "long expired".
    const std::uint64_t held_for = (now - (w >> kTokenBits)) & kTimeMask;
    if (held_for >= quantum_us_ && held_for <= kTimeMask / 2) {
      if (claim(s, w, key, hold, now)) ended = &quantum_expired_;
    } else if (w != seen || e != seen_entries) {
      seen = w;
      seen_entries = e;
      seen_since = now;
    } else if (now - seen_since >= quantum_us_ / kIdleFraction) {
      // The same holder entered no section for a fraction of a quantum.
      if (claim(s, w, key, hold, now)) ended = &quantum_idle_;
    }
    if (ended == nullptr && now - start >= quantum_us_ &&
        claim(s, w, key, hold, now)) {
      // The stripe changed hands during the wait; bound it regardless.
      ended = &quantum_expired_;
    }
  }
  quantum_wait_micros_.fetch_add(now_us() - start, std::memory_order_relaxed);
  ended->fetch_add(1, std::memory_order_relaxed);
}

std::unique_lock<std::mutex> GlobalCounter::acquire_timed(Stripe& stripe) {
  std::unique_lock<std::mutex> lock(stripe.mutex, std::try_to_lock);
  if (lock.owns_lock()) return lock;
  const auto t0 = std::chrono::steady_clock::now();
  lock.lock();
  const auto waited = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  stripe_waits_.fetch_add(1, std::memory_order_relaxed);
  section_wait_micros_.fetch_add(waited, std::memory_order_relaxed);
  stripe.contended.fetch_add(1, std::memory_order_relaxed);
  return lock;
}

void GlobalCounter::throw_passed(GlobalCount target, GlobalCount v) {
  throw ReplayDivergenceError("global counter passed " +
                                  std::to_string(target) + " (now " +
                                  std::to_string(v) + "): schedule divergence",
                              DivergenceCause::kCounterPassed);
}

GlobalCount GlobalCounter::tick(TurnTally& tally) {
  const GlobalCount v = value_.fetch_add(1, std::memory_order_seq_cst);
  tally.ticks.add();
  gate_.published(value_, v + 1);
  return v;
}

void GlobalCounter::lease_begin(GlobalCount first, GlobalCount last,
                                TurnTally& tally) {
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
  tally.leases_taken.add();
}

void GlobalCounter::lease_publish(GlobalCount next, TurnTally& tally) {
  // The leaseholder is the unique counter mutator while the lease is held
  // (every other replaying thread is parked or pre-await), so a plain
  // store publishes correctly.
  tally.lease_publish_count.add();
  publish(next);
}

void GlobalCounter::lease_complete(GlobalCount last, TurnTally& tally) {
  tally.leased_events.add(last + 1 - lease_first_);
  // Release the lease BEFORE publishing: the thread whose turn last + 1 is
  // may return from await and lease_begin its own interval the instant the
  // new value is visible.
  lease_active_.store(false, std::memory_order_seq_cst);
  lease_publish(last + 1, tally);
}

void GlobalCounter::lease_release(GlobalCount next, TurnTally& tally) {
  tally.leased_events.add(next - lease_first_);
  lease_active_.store(false, std::memory_order_seq_cst);
  // Publish only if the leaseholder completed events since the last
  // publication (a release right after begin or a stride boundary is a
  // no-op for observers).
  if (value_.load(std::memory_order_seq_cst) != next) {
    lease_publish(next, tally);
  }
}

void GlobalCounter::advance_to(GlobalCount target) {
  if (lease_active_.load(std::memory_order_seq_cst)) {
    throw UsageError(
        "advance_to(" + std::to_string(target) +
        ") while an interval lease is active: the leaseholder owns the "
        "counter and its unpublished events would be forged");
  }
  if (value_.load(std::memory_order_seq_cst) > target) {
    throw UsageError("advance_to moving the global counter backwards");
  }
  // A parked waiter whose turn the jump would skip means the caller is
  // resuming past events a live thread still intends to execute — a
  // checkpoint/skip usage error at THIS call site, not a "schedule
  // divergence" for the innocent waiter to throw.
  if (const auto skipped = gate_.parked_below(value_, target)) {
    throw UsageError(
        "advance_to(" + std::to_string(target) +
        ") would skip the parked waiter for turn " + std::to_string(*skipped) +
        ": replay-from-checkpoint must not jump past events a live thread "
        "still intends to execute");
  }
  publish(target);
}

SchedStats GlobalCounter::stats() const {
  SchedStats s = gate_.stats();
  s.stripe_count = stripe_count_;
  s.stripe_waits = stripe_waits_.load(std::memory_order_relaxed);
  s.section_wait_micros = section_wait_micros_.load(std::memory_order_relaxed);
  std::uint64_t worst = 0;
  for (std::size_t i = 0; i < stripe_count_; ++i) {
    worst = std::max(worst,
                     stripes_[i].contended.load(std::memory_order_relaxed));
  }
  s.max_stripe_collisions = worst;
  s.quantum_waits = quantum_waits_.load(std::memory_order_relaxed);
  s.quantum_wait_micros = quantum_wait_micros_.load(std::memory_order_relaxed);
  s.quantum_idle = quantum_idle_.load(std::memory_order_relaxed);
  s.quantum_yielded = quantum_yielded_.load(std::memory_order_relaxed);
  s.quantum_expired = quantum_expired_.load(std::memory_order_relaxed);
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
      "  record quantum: %llu wait(s), %llu us waited; ended %llu idle, "
      "%llu yielded, %llu expired\n",
      static_cast<unsigned long long>(s.quantum_waits),
      static_cast<unsigned long long>(s.quantum_wait_micros),
      static_cast<unsigned long long>(s.quantum_idle),
      static_cast<unsigned long long>(s.quantum_yielded),
      static_cast<unsigned long long>(s.quantum_expired));
  out += str_format(
      "  leases: %llu taken, %llu leased event(s), %llu publication(s)\n",
      static_cast<unsigned long long>(s.leases_taken),
      static_cast<unsigned long long>(s.leased_events),
      static_cast<unsigned long long>(s.lease_publish_count));
  return out;
}

}  // namespace djvu::sched
