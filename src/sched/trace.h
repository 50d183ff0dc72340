// Execution traces for replay verification.
//
// A trace is the ordered list of critical events one VM executed, each with
// its global counter value, thread, kind and a payload hash (e.g. CRC of the
// bytes a read returned, or the value a shared-variable access observed).
// Record and replay each produce a trace; the Verifier (src/core) asserts
// they are identical — the executable form of "a perfect replay is
// observed" (§6).
//
// Tracing is optional (Vm config) so overhead measurements can exclude it.
// The hot path never touches this class directly: the Vm buffers records in
// per-thread vectors (ThreadState::trace_buf) and merges them here in
// batches, so trace-keeping adds no cross-thread contention per event.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "common/ids.h"
#include "sched/critical_event.h"

namespace djvu::sched {

/// One critical event in a trace.
struct TraceRecord {
  GlobalCount gc = 0;
  ThreadNum thread = 0;
  EventKind kind = EventKind::kSharedRead;
  std::uint64_t aux = 0;  // payload hash / observed value

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

/// Stable-sorts `records` by gc: the one trace order.  Every trace the
/// system compares — a run's in-memory trace (ExecutionTrace::sorted), a
/// spool's loaded trace (record::load_spool) and a saved trace file — is in
/// this order, so equal records digest equally whichever path built them.
///
/// Recorded and replayed traces have no ties: every critical event takes
/// its own counter value (Vm::critical_event ticks once per event, and
/// Vm::replay_turn_end runs the event at its own recorded gc), and a thread
/// spawn is one critical event of the parent.  Ties come only from
/// hand-built inputs.  Stability makes those deterministic too: equal gcs
/// keep their input order, which for a trace is batch append order.
///
/// Linear time when max - min < 2n (a stable counting sort on gc - min),
/// which every recorded trace meets: its gcs are dense, one counter value
/// per critical event.  Sparser inputs take a stable comparison sort.
void sort_by_gc(std::vector<TraceRecord>& records);

/// The records of `parts`, in exactly the order that concatenating the
/// parts (in span order) and calling sort_by_gc gives — without building
/// the concatenation.  On the dense path a counting scatter places each
/// record straight from its part into the one output vector; a range too
/// sparse for counting falls back to concatenate-then-sort.  This is how
/// a trace kept as batches (ExecutionTrace, an indexed spool load's
/// per-chunk parts) becomes one sorted vector.
std::vector<TraceRecord> gather_by_gc(
    std::span<const std::vector<TraceRecord>> parts);

/// True when `records` is in sort_by_gc's order.
bool is_sorted_by_gc(const std::vector<TraceRecord>& records);

/// Order-significant digest of a trace, which must already be in
/// sort_by_gc's order: two CRC-32s of the records serialized as 21
/// little-endian bytes each, the high word over the second half of the
/// bytes and the low word over all of them.  Computed in one streaming
/// pass with no buffer of the whole trace.
std::uint64_t trace_digest(const std::vector<TraceRecord>& sorted_records);

/// Thread-safe append-only trace, kept as the batches it was handed.
class ExecutionTrace {
 public:
  /// Appends a batch of records (any thread) — one lock round-trip for a
  /// whole per-thread buffer.  The batch is kept as its own part instead of
  /// being copied into one shared vector: a shared vector would regrow on
  /// whichever thread appends, and glibc keeps those multi-megabyte blocks
  /// cached in that thread's malloc arena after the trace is gone, so peak
  /// RSS would climb with every replay.  The merged view is built by the
  /// reading thread (sorted()).
  void append_batch(std::vector<TraceRecord> batch) {
    if (batch.empty()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    parts_.push_back(std::move(batch));
  }

  /// Number of records.
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const auto& part : parts_) n += part.size();
    return n;
  }

  /// All records in the trace order (sort_by_gc), gathered from the parts
  /// under the lock (gather_by_gc); every call builds a new vector.
  std::vector<TraceRecord> sorted() const;

 private:
  mutable std::mutex mutex_;
  /// Appended records in arrival order, one part per batch.
  std::vector<std::vector<TraceRecord>> parts_;
};

}  // namespace djvu::sched
