// Shared variables — the paper's canonical critical events.
//
// "An execution behavior of a thread schedule can be different from that of
// another thread schedule, if the order of shared variable accesses is
// different in the two thread schedules." (§2.1)  Every get() and set() is a
// critical event: in record mode it executes inside the GC-critical section
// (counter update + access as one atomic action); in replay mode it executes
// at its recorded global-counter value — under interval leasing possibly
// with purely thread-local bookkeeping, which is still data-race-free for
// the cell: every event inside a lease belongs to the leaseholder, and the
// counter publications at the lease boundaries carry the seq_cst edges that
// order this thread's accesses against every other thread's
// (docs/INTERNALS.md §1b).
//
// Accesses remain *logically* racy across events (a get();set() increment
// can lose updates, exactly like an unsynchronized Java field), but the
// physical access is data-race-free: lock-free types use an atomic cell —
// matching the cost of a plain JVM field access in passthrough mode, which
// is what the record-overhead measurements compare against — and other
// types fall back to a tiny internal mutex.  The lost-update nondeterminism
// — the bug the paper's benchmark deliberately contains — lives at the
// interleaving level, which is what the schedule captures.
#pragma once

#include <atomic>
#include <functional>
#include <mutex>
#include <type_traits>
#include <utility>

#include "sched/critical_event.h"
#include "vm/vm.h"

namespace djvu::vm {

namespace detail {

/// True when T can live in a lock-free std::atomic (guarded evaluation:
/// std::atomic<T> must not even be *instantiated* for non-trivially-copyable
/// types like std::string).
template <typename T>
constexpr bool use_atomic_cell() {
  if constexpr (std::is_trivially_copyable_v<T>) {
    return std::atomic<T>::is_always_lock_free;
  } else {
    return false;
  }
}

/// Storage for SharedVar: atomic when lock-free, mutex-guarded otherwise.
template <typename T, bool kAtomic = use_atomic_cell<T>()>
class SharedCell {
 public:
  explicit SharedCell(T initial) : value_(initial) {}
  T load() const { return value_.load(std::memory_order_relaxed); }
  void store(T v) { value_.store(v, std::memory_order_relaxed); }

 private:
  std::atomic<T> value_;
};

template <typename T>
class SharedCell<T, false> {
 public:
  explicit SharedCell(T initial) : value_(std::move(initial)) {}
  T load() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return value_;
  }
  void store(T v) {
    std::lock_guard<std::mutex> lock(mutex_);
    value_ = std::move(v);
  }

 private:
  mutable std::mutex mutex_;
  T value_;
};

}  // namespace detail

/// An unsynchronized shared variable of (hashable, copyable) type T.
template <typename T>
class SharedVar {
 public:
  /// Creates the variable with an initial value.
  explicit SharedVar(Vm& vm, T initial = T{})
      : vm_(vm), cell_(std::move(initial)) {}

  SharedVar(const SharedVar&) = delete;
  SharedVar& operator=(const SharedVar&) = delete;

  /// Reads the value (one kSharedRead critical event).  The trace aux is
  /// the hash of the observed value, so replay verification catches any
  /// divergence in what the application *saw*, not just in event order.
  T get() {
    if (!vm_.instrumented()) return cell_.load();  // plain JVM: a raw load
    T out{};
    // Conflict key `this`: the cell has no lock of its own, so same-var
    // accesses MUST share a stripe — their stores/loads then serialize in
    // counter order (independent vars record in parallel).
    vm_.critical_event(
        sched::EventKind::kSharedRead,
        [&](GlobalCount) {
          out = cell_.load();
          return static_cast<std::uint64_t>(std::hash<T>{}(out));
        },
        0, this);
    return out;
  }

  /// Writes the value (one kSharedWrite critical event).
  void set(T v) {
    if (!vm_.instrumented()) {  // plain JVM: a raw store
      cell_.store(std::move(v));
      return;
    }
    vm_.critical_event(
        sched::EventKind::kSharedWrite,
        [&](GlobalCount) {
          std::uint64_t aux = static_cast<std::uint64_t>(std::hash<T>{}(v));
          cell_.store(std::move(v));
          return aux;
        },
        0, this);
  }

  /// Unsynchronized read-modify-write: get() then set(f(old)) — TWO
  /// critical events with a window in between, i.e. deliberately subject to
  /// lost updates like an unsynchronized Java `x = f(x)`.
  T update(const std::function<T(T)>& f) {
    T next = f(get());
    set(next);
    return next;
  }

  /// Non-event peek for test assertions after all threads joined.  Not an
  /// application API: bypasses the schedule.
  T unsafe_peek() const { return cell_.load(); }

  /// Non-event store used by checkpoint restore (outside the schedule,
  /// before any replayed event executes).  Not an application API.
  void set_for_restore(T v) { cell_.store(std::move(v)); }

 private:
  Vm& vm_;
  ConflictKeyLifetime key_lifetime_{vm_, this};
  detail::SharedCell<T> cell_;
};

}  // namespace djvu::vm
