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
#include <string>
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

/// Order-insensitive-input, order-significant-output digest of a trace:
/// CRC64 (two CRC32 slicings) over the serialized records, which must
/// already be gc-sorted.  The free-function form exists so spooled runs —
/// whose records come off disk, not out of an ExecutionTrace — produce
/// digests comparable with ExecutionTrace::digest().
std::uint64_t trace_digest(const std::vector<TraceRecord>& sorted_records);

/// Thread-safe append-only trace with a cached sorted view.
class ExecutionTrace {
 public:
  /// Appends one record (any thread).
  void append(const TraceRecord& r) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (parts_.empty()) parts_.emplace_back();
    parts_.back().push_back(r);
    sorted_valid_ = false;
  }

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
    sorted_valid_ = false;
  }

  /// Records sorted by global counter value (the per-VM total order).
  /// The sorted view is computed once and cached until the next append;
  /// digest()/first_divergence()/exports calling this repeatedly cost one
  /// sort total, not one per call.
  std::vector<TraceRecord> sorted() const;

  /// Number of records.
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const auto& part : parts_) n += part.size();
    return n;
  }

  /// Order-insensitive-input, order-significant-output digest of the trace
  /// (CRC over the gc-sorted serialized records).
  std::uint64_t digest() const;

  /// Human-readable description of the first position where two traces
  /// differ; empty string when identical.
  static std::string first_divergence(const ExecutionTrace& recorded,
                                      const ExecutionTrace& replayed);

 private:
  /// Ensures sorted_cache_ is valid and returns a reference to it.  Caller
  /// holds mutex_; the reference is only valid while the lock is held.
  const std::vector<TraceRecord>& sorted_locked() const;

  mutable std::mutex mutex_;
  /// Appended records in arrival order, one part per batch.
  std::vector<std::vector<TraceRecord>> parts_;
  /// All parts merged and sorted by gc; rebuilt lazily, invalidated by
  /// append.
  mutable std::vector<TraceRecord> sorted_cache_;
  mutable bool sorted_valid_ = false;
};

}  // namespace djvu::sched
