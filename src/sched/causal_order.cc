#include "sched/causal_order.h"

#include <string>

#include "common/errors.h"
#include "sched/spin_wait.h"

namespace djvu::sched {

CausalOrder::CausalOrder(std::chrono::milliseconds stall_timeout,
                         std::size_t shards)
    : stall_timeout_(stall_timeout),
      spins_(spinning_pays()),
      shard_count_(shards == 0 ? 1 : shards),
      shards_(std::make_unique<Shard[]>(shard_count_)) {}

CausalOrder::Ticket CausalOrder::resolve(SectionKey key) {
  Shard& s = shard(key);
  Ticket t;
  t.home_ = &s;
  std::lock_guard<std::mutex> lock(s.mutex);
  auto& slot = s.counts[key];
  if (!slot) slot = std::make_unique<std::atomic<std::uint64_t>>(0);
  t.cell_ = slot.get();
  return t;
}

std::uint64_t CausalOrder::record_next(Ticket t) {
  // Same-key calls are serialized by the key's GC-critical section (the
  // caller's contract), so the fetch_add order IS the key's access order;
  // the atomicity only protects against different keys sharing the cache
  // line or the shard.
  return t.cell_->fetch_add(1, std::memory_order_seq_cst);
}

void CausalOrder::await(Ticket t, SectionKey key, std::uint64_t seq) {
  std::uint64_t c = t.cell_->load(std::memory_order_seq_cst);
  if (poisoned_.load(std::memory_order_acquire)) throw_poisoned();
  if (c == seq) return;  // lock-free fast path: predecessor published
  if (c > seq) throw_passed(key, seq, c);

  // Spin phase, as in GlobalCounter::await: poll the cell without counting
  // as a shard waiter (publish keeps skipping the notify).  A passed turn,
  // like a budget that ran out, falls through to the park path, which
  // re-checks and reports it.
  if (spins_ && spin_until([&] {
        return poisoned_.load(std::memory_order_relaxed) ||
               t.cell_->load(std::memory_order_seq_cst) >= seq;
      })) {
    if (poisoned_.load(std::memory_order_acquire)) throw_poisoned();
    if (t.cell_->load(std::memory_order_seq_cst) == seq) {
      waits_spun_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }

  Shard& s = *t.home_;
  std::unique_lock<std::mutex> lock(s.mutex);
  // Order matters for the lost-wakeup argument in publish(): the waiter
  // count rises BEFORE the final pre-park re-check of the cell.
  s.waiters.fetch_add(1, std::memory_order_seq_cst);
  parked_.fetch_add(1, std::memory_order_seq_cst);
  waits_parked_.fetch_add(1, std::memory_order_relaxed);
  const auto unpark = [&] {
    s.waiters.fetch_sub(1, std::memory_order_relaxed);
    parked_.fetch_sub(1, std::memory_order_relaxed);
  };

  std::uint64_t last_progress = progress_.load(std::memory_order_acquire);
  auto window_start = std::chrono::steady_clock::now();
  int quiet_windows = 0;
  for (;;) {
    c = t.cell_->load(std::memory_order_seq_cst);
    if (c >= seq) {
      unpark();
      if (c == seq) return;
      throw_passed(key, seq, c);
    }
    if (poisoned_.load(std::memory_order_acquire)) {
      unpark();
      throw_poisoned();
    }
    s.cv.wait_for(lock, stall_timeout_);
    if (poisoned_.load(std::memory_order_acquire)) {
      unpark();
      throw_poisoned();
    }
    c = t.cell_->load(std::memory_order_seq_cst);
    if (c >= seq) {
      unpark();
      if (c == seq) return;
      throw_passed(key, seq, c);
    }
    // Still waiting: global progress anywhere restarts the stall window.
    const std::uint64_t p = progress_.load(std::memory_order_acquire);
    const auto now = std::chrono::steady_clock::now();
    if (p != last_progress) {
      last_progress = p;
      window_start = now;
      quiet_windows = 0;
      continue;
    }
    if (now - window_start < stall_timeout_) continue;
    ++quiet_windows;
    window_start = now;
    // Certain stall: every registered runner is parked (or no runners are
    // registered at all) and a full window passed with no publication.
    // Probable stall: some runner is off the scheduler (slow recorded I/O?)
    // — extend, but not forever.
    const bool all_parked = parked_.load(std::memory_order_seq_cst) >=
                            runners_.load(std::memory_order_seq_cst);
    if (all_parked || quiet_windows >= kStallGraceFactor) {
      unpark();
      throw_stall(key, seq, c);
    }
  }
}

void CausalOrder::publish(Ticket t) {
  t.cell_->fetch_add(1, std::memory_order_seq_cst);
  progress_.fetch_add(1, std::memory_order_release);
  // Skip the notify when nobody is parked on the shard — the common case.
  // No lost wakeup: a waiter raises `waiters` (seq_cst) before its final
  // pre-park re-check of the cell.  If this publish's waiter-count load
  // reads the old value, the load precedes the waiter's increment in the
  // seq_cst total order, so the waiter's later cell re-check must see the
  // incremented count and never parks.  Otherwise we see the waiter and
  // notify — taking the mutex first so the signal cannot land between the
  // waiter's re-check and its wait.
  if (t.home_->waiters.load(std::memory_order_seq_cst) != 0) {
    { std::lock_guard<std::mutex> lock(t.home_->mutex); }
    t.home_->cv.notify_all();
  }
}

void CausalOrder::poison() {
  poisoned_.store(true, std::memory_order_release);
  for (std::size_t i = 0; i < shard_count_; ++i) {
    // Take the shard mutex so the store cannot slide between a waiter's
    // poisoned check and its wait (the classic lost-wakeup window).
    { std::lock_guard<std::mutex> lock(shards_[i].mutex); }
    shards_[i].cv.notify_all();
  }
}

void CausalOrder::runner_began() {
  runners_.fetch_add(1, std::memory_order_seq_cst);
}

void CausalOrder::runner_ended() {
  runners_.fetch_sub(1, std::memory_order_seq_cst);
}

void CausalOrder::throw_poisoned() const {
  throw ReplayDivergenceError(
      "causal order poisoned: another thread of this VM diverged",
      DivergenceCause::kPoisoned);
}

void CausalOrder::throw_passed(SectionKey key, std::uint64_t seq,
                               std::uint64_t count) const {
  throw ReplayDivergenceError(
      "causal replay passed its turn on key " + std::to_string(key) +
          ": recorded per-key seq " + std::to_string(seq) + " but " +
          std::to_string(count) +
          " same-key events already published — the per-key order and the "
          "execution disagree",
      DivergenceCause::kCounterPassed);
}

void CausalOrder::throw_stall(SectionKey key, std::uint64_t seq,
                              std::uint64_t count) const {
  throw ReplayDivergenceError(
      "causal replay stalled waiting on key " + std::to_string(key) +
          " for per-key seq " + std::to_string(seq) + " (published: " +
          std::to_string(count) + ", total publications: " +
          std::to_string(progress_.load(std::memory_order_acquire)) +
          "): no thread can publish the predecessor — mismatched or "
          "tampered log",
      DivergenceCause::kStall);
}

}  // namespace djvu::sched
