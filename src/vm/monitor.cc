#include "vm/monitor.h"

namespace djvu::vm {

using sched::EventKind;

ThreadNum Monitor::check_owner(const char* op) {
  ThreadNum self = vm_.current_state().num;
  if (owner_.load(std::memory_order_relaxed) != std::int64_t{self}) {
    throw UsageError(std::string(op) +
                     " called by a thread that does not own the monitor");
  }
  return self;
}

void Monitor::enter() {
  sched::ThreadState& state = vm_.current_state();
  const ThreadNum self = state.num;
  if (owner_.load(std::memory_order_relaxed) == std::int64_t{self}) {
    // Reentrant acquisition: non-blocking, still a critical event.
    ++depth_;
    vm_.mark_event(EventKind::kMonitorEnter,
                   static_cast<std::uint64_t>(depth_), this);
    return;
  }
  if (vm_.mode() == Mode::kReplay) {
    // Turn first: once it is this event's turn, the previous holder's exit
    // has already completed (and unlocked), so lock() cannot block.  Holds
    // under interval leasing too: a within-lease enter's preceding exit is
    // either local to this thread (unlocked in program order) or has a
    // counter value below the lease start and so happened-before the
    // lease-opening await.
    vm_.replay_turn_begin(EventKind::kMonitorEnter, this);
    mutex_.lock();
    owner_.store(self, std::memory_order_relaxed);
    depth_ = 1;
    vm_.replay_turn_end(EventKind::kMonitorEnter, 1);
  } else {
    // Record (and passthrough): blocking acquisition outside the
    // GC-critical section, marked afterwards.  The record stripe is given
    // up first: a holder blocked here would make its contenders wait out
    // the quantum.
    vm_.yield_stripe(state);
    mutex_.lock();
    owner_.store(self, std::memory_order_relaxed);
    depth_ = 1;
    vm_.mark_event(EventKind::kMonitorEnter, 1, this);  // no-op in passthrough
  }
}

void Monitor::exit() {
  check_owner("Monitor::exit");
  if (depth_ > 1) {
    --depth_;
    vm_.mark_event(EventKind::kMonitorExit,
                   static_cast<std::uint64_t>(depth_), this);
    return;
  }
  // Real release *inside* the GC-critical section: exit-tick happens-before
  // any later enter-tick, which is what makes replay-time acquisition
  // non-blocking.  (With interval leasing the exit's publication may be
  // deferred to the lease end — but a cross-thread enter awaits a counter
  // value past that lease, so the ordering survives: publication carries
  // the release.)
  vm_.critical_event(
      EventKind::kMonitorExit,
      [&](GlobalCount) {
        depth_ = 0;
        owner_.store(kNoOwner, std::memory_order_relaxed);
        mutex_.unlock();
        return std::uint64_t{0};
      },
      0, this);
}

void Monitor::wait() { wait_body("Monitor::wait", std::nullopt); }

void Monitor::wait_for(std::chrono::milliseconds timeout) {
  wait_body("Monitor::wait_for", timeout);
}

void Monitor::wait_body(const char* op,
                        std::optional<std::chrono::milliseconds> timeout) {
  ThreadNum self = check_owner(op);
  int saved_depth = depth_;  // Java wait releases fully even when nested
  const bool replay = vm_.mode() == Mode::kReplay;

  // Replay releases at the recorded kWaitRelease turn.  Record /
  // passthrough tick the release while still physically holding the mutex
  // (so the release tick precedes any successor's enter tick), then let
  // cv_.wait perform the atomic unlock+sleep — a notifier must hold the
  // monitor, so it cannot run before we are inside wait().
  vm_.critical_event(
      EventKind::kWaitRelease,
      [&](GlobalCount) {
        depth_ = 0;
        owner_.store(kNoOwner, std::memory_order_relaxed);
        if (replay) mutex_.unlock();
        return std::uint64_t{0};
      },
      0, this);
  if (replay) {
    // Skip the condition variable entirely: the schedule already places the
    // matching notify before our kWaitReacquire event.
    vm_.replay_turn_begin(EventKind::kWaitReacquire, this);
    mutex_.lock();
  } else {
    std::unique_lock<std::mutex> lk(mutex_, std::adopt_lock);
    vm_.yield_stripe(vm_.current_state());
    // Timeout vs notify: both are just a reacquire.
    if (timeout) {
      cv_.wait_for(lk, *timeout);
    } else {
      cv_.wait(lk);
    }
    lk.release();  // keep holding; we own the monitor again
  }
  owner_.store(self, std::memory_order_relaxed);
  depth_ = saved_depth;
  if (replay) {
    vm_.replay_turn_end(EventKind::kWaitReacquire, 0);
  } else {
    vm_.mark_event(EventKind::kWaitReacquire, 0, this);
  }
}

void Monitor::notify() {
  check_owner("Monitor::notify");
  vm_.critical_event(
      EventKind::kNotify,
      [&](GlobalCount) {
        if (vm_.mode() != Mode::kReplay) cv_.notify_one();
        return std::uint64_t{0};
      },
      0, this);
}

void Monitor::notify_all() {
  check_owner("Monitor::notify_all");
  vm_.critical_event(
      EventKind::kNotifyAll,
      [&](GlobalCount) {
        if (vm_.mode() != Mode::kReplay) cv_.notify_all();
        return std::uint64_t{0};
      },
      0, this);
}

}  // namespace djvu::vm
