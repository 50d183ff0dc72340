// Java-style monitors (synchronized blocks, wait/notify/notifyAll).
//
// Record-mode discipline (§2.2, §3 "Synchronization events with blocking
// semantics, such as monitorenter and wait, can cause deadlocks if they
// cannot proceed in a GC-critical section.  Therefore, we handle these
// events differently by executing them outside a GC-critical section."):
//
//   monitorenter — acquire the mutex *outside* the GC-critical section,
//                  then mark the event;
//   monitorexit  — release the mutex *inside* the GC-critical section, so
//                  exit-tick < the next holder's enter-tick;
//   wait         — a kWaitRelease event (release inside the section),
//                  a real block on the condition variable, then a
//                  kWaitReacquire event after reacquiring the mutex;
//   notify(All)  — non-blocking events inside the section.
//
// Replay-mode discipline: a monitorenter waits for its turn first, and the
// mutex is then guaranteed free (the previous holder's exit ticked at a
// smaller counter value), so acquisition can never block; wait() does not
// block on the condition variable at all — the recorded ordering between
// the matching notify and the kWaitReacquire event carries the semantics.
//
// Monitors are reentrant, like Java's.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>

#include "common/errors.h"
#include "vm/vm.h"

namespace djvu::vm {

/// A reentrant monitor bound to one Vm.
class Monitor {
 public:
  explicit Monitor(Vm& vm) : vm_(vm) {}
  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// monitorenter — begins a synchronized region (reentrant).
  void enter();

  /// monitorexit — ends a synchronized region.
  void exit();

  /// Object.wait(): releases the monitor, blocks until notified (record) /
  /// until its recorded reacquire turn (replay), reacquires.  Caller must
  /// hold the monitor.
  void wait();

  /// Object.wait(timeout): like wait() but also wakes after `timeout` in
  /// record mode.  Whether the wake-up was a notify or a timeout is
  /// invisible to the schedule — both are a kWaitReacquire event.
  void wait_for(std::chrono::milliseconds timeout);

  /// Object.notify().  Caller must hold the monitor.
  void notify();

  /// Object.notifyAll().  Caller must hold the monitor.
  void notify_all();

  /// RAII synchronized block.
  class Synchronized {
   public:
    explicit Synchronized(Monitor& m) : m_(m) { m_.enter(); }
    ~Synchronized() { m_.exit(); }
    Synchronized(const Synchronized&) = delete;
    Synchronized& operator=(const Synchronized&) = delete;

   private:
    Monitor& m_;
  };

 private:
  static constexpr std::int64_t kNoOwner = -1;

  /// Throws UsageError unless the calling thread owns the monitor.
  ThreadNum check_owner(const char* op);

  /// wait() and wait_for(): the same events in every mode; only record's
  /// sleep differs (with a timeout or without).
  void wait_body(const char* op,
                 std::optional<std::chrono::milliseconds> timeout);

  Vm& vm_;
  ConflictKeyLifetime key_lifetime_{vm_, this};
  std::mutex mutex_;
  std::condition_variable cv_;
  /// Owning thread (kNoOwner when free).  Atomic so a thread can check "am
  /// I the owner?" for reentrancy without acquiring mutex_ (which would
  /// self-deadlock).
  std::atomic<std::int64_t> owner_{kNoOwner};
  /// Reentrancy depth; only touched by the owner.
  int depth_ = 0;
};

}  // namespace djvu::vm
