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

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
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
/// the concatenation.  A recorded trace (one record per gc in [min, max])
/// has each record placed at gc - min, then checked; a dense range with
/// ties takes a counting scatter straight from the parts into the one
/// output vector; a range too sparse for counting falls back to
/// concatenate-then-sort.  This is how a trace kept as batches
/// (ExecutionTrace, an indexed spool load's per-chunk parts) becomes one
/// sorted vector.
std::vector<TraceRecord> gather_by_gc(
    std::span<const std::vector<TraceRecord>> parts);

/// True when `records` is in sort_by_gc's order.
bool is_sorted_by_gc(const std::vector<TraceRecord>& records);

/// Fewest records per run, on average, for which gc_ordered_runs sorts the
/// runs rather than leave the trace to gather_by_gc.  A conservative bound:
/// a trace of one-event runs stops its scan after n / 16 records, and then
/// costs what gathering it did (bench_micro BM_TraceDigestRuns/1).
inline constexpr std::size_t kMinMeanRunRecords = 16;

/// The gc order of `parts` as the gc-consecutive runs it is made of, found
/// without moving a record: each part splits into maximal runs whose gcs
/// step by one (a thread's logical schedule interval, traced as it ran),
/// and the runs are sorted by first gc.  Returned when the runs tile
/// [min, max] exactly — every gc once, which a recorded trace meets — so
/// that concatenating them is sort_by_gc's order.  nullopt when they do not
/// (ties, gaps, overlaps: hand-built or sparse traces), and when the parts
/// hold more than one run per kMinMeanRunRecords records; the caller
/// gathers then.  The spans point into `parts`.
std::optional<std::vector<std::span<const TraceRecord>>> gc_ordered_runs(
    std::span<const std::vector<TraceRecord>> parts);

/// Order-significant digest of the trace that concatenating `runs` gives,
/// which must be in sort_by_gc's order: two CRC-32s of the records
/// serialized as 21 little-endian bytes each, the high word over the second
/// half of the bytes and the low word over all of them.  Computed in one
/// streaming pass with no buffer of the whole trace, so the runs of
/// gc_ordered_runs digest in place.
std::uint64_t trace_digest_runs(
    std::span<const std::span<const TraceRecord>> runs);

/// trace_digest_runs of the one run `sorted_records`.
std::uint64_t trace_digest(const std::vector<TraceRecord>& sorted_records);

/// Index of the first record where `a` and `b` differ, or min(a.size(),
/// b.size()) when one is a prefix of the other (equal traces included).
/// The one first-difference search: core::verify, record::diff_traces and
/// record::diff_trace_files all locate a divergence through it.
std::size_t first_difference(std::span<const TraceRecord> a,
                             std::span<const TraceRecord> b);

/// Thread-safe append-only trace, kept as the batches it was handed.
class ExecutionTrace {
 public:
  /// Appends a batch of records (any thread) — one lock round-trip for a
  /// whole per-thread buffer.  The batch is kept as its own part instead of
  /// being copied into one shared vector: a shared vector would regrow on
  /// whichever thread appends, and glibc keeps those multi-megabyte blocks
  /// cached in that thread's malloc arena after the trace is gone, so peak
  /// RSS would climb with every replay.  The merged view is built by the
  /// reading thread: a finished run moves the parts into a RunTrace
  /// (take_parts), and sorted() gathers them for any other reader.
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

  /// Moves the parts out, leaving the trace empty: how a finished run hands
  /// its trace to a RunTrace without copying or sorting a record.
  std::vector<std::vector<TraceRecord>> take_parts() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(parts_, {});
  }

 private:
  mutable std::mutex mutex_;
  /// Appended records in arrival order, one part per batch.
  std::vector<std::vector<TraceRecord>> parts_;
};

/// A finished run's trace, immutable: the parts its ExecutionTrace kept,
/// with the record count and digest computed once at construction, and the
/// gc-sorted vector built only when first read.  A recorded trace digests
/// straight from its gc-ordered runs (gc_ordered_runs), so a run whose
/// trace is only compared by digest never sorts a record.  A trace whose
/// runs do not tile is gathered (gather_by_gc) at construction and digested
/// from that one vector, so sorted() is already built for it.
class RunTrace {
 public:
  explicit RunTrace(std::vector<std::vector<TraceRecord>> parts);

  std::size_t size() const { return size_; }
  std::uint64_t digest() const { return digest_; }

  /// All records in sort_by_gc's order.  The first call concatenates the
  /// runs (under std::call_once, so concurrent first readers are safe) and
  /// frees the parts; later calls return the same vector.
  const std::vector<TraceRecord>& sorted() const;

 private:
  std::size_t size_ = 0;
  std::uint64_t digest_ = 0;
  mutable std::once_flag built_;
  // Until built_: the records as appended and their gc order.  Freed by
  // the build, after which sorted_ alone holds the records.
  mutable std::vector<std::vector<TraceRecord>> parts_;
  mutable std::vector<std::span<const TraceRecord>> runs_;
  mutable std::vector<TraceRecord> sorted_;
};

}  // namespace djvu::sched
