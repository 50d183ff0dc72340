// Per-VM thread bookkeeping.
//
// "Since threads are created in the same order in the record and replay
// phases, our implementation guarantees that a thread has the same threadNum
// value in both the record and replay phases." (§4.1.3)  Thread creation is
// itself a critical event, so creation order — and therefore threadNum
// assignment — is part of the enforced schedule.
#pragma once

#include <array>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/errors.h"
#include "common/ids.h"
#include "sched/global_counter.h"
#include "sched/interval.h"
#include "sched/trace.h"

namespace djvu::sched {

/// Mutable per-thread record/replay state.  Owned by the registry; used only
/// by its own application thread (no internal locking needed).
struct ThreadState {
  ThreadNum num = 0;

  /// Record mode: on-the-fly logical-interval detection.
  IntervalRecorder recorder;

  /// Record mode: the section stripe this thread holds under the record
  /// quantum (GlobalCounter::with_section / yield_stripe).
  StripeHold stripe_hold;

  /// This thread's scheduler tally (sched/turn_tally.h): a slot the VM's
  /// counter handed it at registration, passed to every counter and gate
  /// call the thread makes.  Never null once registered.
  TurnTally* tally = nullptr;

  /// Replay mode: cursor over this thread's recorded intervals.
  IntervalCursor cursor;

  /// Replay interval lease (managed by vm::Vm's replay gateways): while
  /// active, this thread owns the counter range up to lease_end and
  /// completes events with thread-local bookkeeping only, publishing at
  /// lease_next_publish and at interval end.  Only ever touched by the
  /// owning thread.
  bool lease_active = false;
  GlobalCount lease_end = 0;
  GlobalCount lease_next_publish = 0;

  /// Causal order mode, record side: per-event conflict-key sequence
  /// numbers in program order (event i of this thread got per-key seq
  /// causal_buf[i]).  Drained to the spooler alongside intervals, or
  /// collected wholesale at end of record.
  std::vector<std::uint64_t> causal_buf;

  /// Causal order mode, replay side: this thread's recorded per-key seqs,
  /// owned by the replay log.  Indexed by cursor.consumed() — the cursor
  /// and the causal list advance in lock step, one entry per event.
  const std::vector<std::uint64_t>* causal_seqs = nullptr;

  /// Causal order mode, both sides: the order of this thread's
  /// thread-local events (vm::kThreadLocalConflict), which conflict with
  /// nothing but the thread itself.
  TurnCell local_order{0};

  /// Causal order mode, replay side: the cell of the event between its
  /// wait (replay_turn_wait) and its publication (replay_turn_done), null
  /// otherwise.  Only ever touched by the owning thread.
  TurnCell* causal_turn = nullptr;

  /// Per-thread network event numbering ("eventNum is used to order network
  /// events within a specific thread").  Advances identically in record and
  /// replay because it counts API calls, not outcomes.
  EventNum next_network_event = 0;

  /// Allocates the eventNum for the network event being executed.
  EventNum take_network_event_num() { return next_network_event++; }

  /// Locally buffered trace records (when the Vm keeps a trace): events
  /// append here without any cross-thread lock and the Vm merges the
  /// buffer into its ExecutionTrace at thread finish / trace access.
  std::vector<TraceRecord> trace_buf;

  /// Bounded recent-event ring for divergence forensics (replay mode
  /// only): the last kRecentRingSize events this thread executed, written
  /// by the owning thread per event — one fixed-size array store and one
  /// counter increment, no locks, no allocation.  Snapshotted into the
  /// DivergenceReport when the thread diverges.
  static constexpr std::size_t kRecentRingSize = 16;
  std::array<TraceRecord, kRecentRingSize> recent_ring{};
  std::uint64_t recent_count = 0;

  void ring_push(const TraceRecord& r) {
    recent_ring[recent_count % kRecentRingSize] = r;
    ++recent_count;
  }

  /// The ring's contents, oldest first.
  std::vector<TraceRecord> ring_snapshot() const {
    const std::uint64_t n =
        recent_count < kRecentRingSize ? recent_count : kRecentRingSize;
    std::vector<TraceRecord> out;
    out.reserve(n);
    for (std::uint64_t i = recent_count - n; i < recent_count; ++i) {
      out.push_back(recent_ring[i % kRecentRingSize]);
    }
    return out;
  }
};

/// Registry of all threads of one VM; assigns creation-order thread numbers.
class ThreadRegistry {
 public:
  ThreadRegistry() = default;
  ThreadRegistry(const ThreadRegistry&) = delete;
  ThreadRegistry& operator=(const ThreadRegistry&) = delete;

  /// Creates the state for the next thread (creation order), counting in
  /// `tally` (GlobalCounter::tally).  Thread-safety note: in record/replay
  /// modes callers must invoke this from inside the spawn critical event so
  /// that numbering is part of the schedule.
  ThreadState& register_thread(TurnTally& tally) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& state = threads_.emplace_back(std::make_unique<ThreadState>());
    state->num = static_cast<ThreadNum>(threads_.size() - 1);
    state->stripe_hold.token = state->num + 1;
    state->tally = &tally;
    return *state;
  }

  /// Looks up a thread's state; nullptr when out of range.
  ThreadState* find(ThreadNum num) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (num >= threads_.size()) return nullptr;
    return threads_[num].get();
  }

  /// Number of threads registered so far.
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return threads_.size();
  }

  /// Runs `f` on every registered thread's state under the registry lock.
  /// Callers must only touch state the owning thread has quiesced or
  /// published (e.g. draining trace buffers at end of phase).
  template <typename F>
  void for_each(F&& f) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& t : threads_) f(*t);
  }

  /// Closes every thread's open interval and returns the per-thread interval
  /// lists indexed by threadNum (end of record).
  std::vector<IntervalList> collect_intervals() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<IntervalList> out;
    out.reserve(threads_.size());
    for (auto& t : threads_) out.push_back(t->recorder.finish());
    return out;
  }

  /// Moves out every thread's buffered causal per-key seqs, indexed by
  /// threadNum (end of record, causal order mode).
  std::vector<std::vector<std::uint64_t>> collect_causal() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::uint64_t>> out;
    out.reserve(threads_.size());
    for (auto& t : threads_) {
      out.push_back(std::move(t->causal_buf));
      t->causal_buf.clear();
    }
    return out;
  }

 private:
  mutable std::mutex mutex_;
  std::deque<std::unique_ptr<ThreadState>> threads_;
};

}  // namespace djvu::sched
