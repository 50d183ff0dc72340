// Execution-trace persistence and offline diffing.
//
// Traces are the verification artifact (sched/trace.h): the gc-ordered list
// of critical events a run executed.  Persisting them enables the offline
// debugging workflow: record on one machine, replay elsewhere, and diff the
// two trace files to pinpoint the first divergent event without rerunning
// anything (examples/trace_diff.cpp).
//
// Format: a trace file is a DJVUSPL1 spool (record/log_spool.h) holding
// only kTrace items and a finish item, so it shares the spool's framing,
// per-chunk CRCs, index footer and whole-file CRC, and every reader of a
// spool reads it.  Corrupt input throws LogFormatError (invariant I7).
#pragma once

#include <string>
#include <vector>

#include "common/ids.h"
#include "sched/trace.h"

namespace djvu::record {

/// A persisted trace: identity + gc-sorted records.
struct TraceFile {
  DjvmId vm_id = 0;
  std::vector<sched::TraceRecord> records;

  friend bool operator==(const TraceFile&, const TraceFile&) = default;
};

/// Writes `trace` as a spool file: its records, which must be gc-sorted
/// (UsageError otherwise), go through a default-option LogSpooler as trace
/// batches, followed by a finish item.  Throws Error on I/O failure.
void save_trace_to_file(const TraceFile& trace, const std::string& path);

/// Loads a trace file (or the trace of any spool) through load_spool.
/// Throws LogFormatError unless the file ends cleanly: a torn tail, which
/// load_spool would recover as a prefix, is corruption here.
TraceFile load_trace_from_file(const std::string& path);

/// One line of a trace diff report.
struct TraceDiff {
  bool identical = false;
  /// Index of the first differing record (or the shorter length).
  std::size_t position = 0;
  /// Human-readable description of the difference.
  std::string description;
  /// A few records of context from each side, rendered.
  std::vector<std::string> context_a;
  std::vector<std::string> context_b;
};

/// Compares two traces; fills context (up to `context_events` records
/// around the divergence per side).
TraceDiff diff_traces(const TraceFile& a, const TraceFile& b,
                      std::size_t context_events = 3);

/// Diff of two on-disk traces: trace files, or the trace of any spool,
/// a multi-threaded recording's included.  Both sides load in full through
/// load_trace_from_file, then diff_traces compares them, so the result is
/// exactly diff_traces on the loaded traces.  Every chunk CRC and the
/// whole-file CRC of both files are checked, and a torn file throws
/// LogFormatError, so a damaged file is never reported as identical or as a
/// prefix of the other.  The trade is memory: both traces are resident,
/// O(trace) rather than O(context_events).
TraceDiff diff_trace_files(const std::string& path_a,
                           const std::string& path_b,
                           std::size_t context_events = 3);

/// One-line rendering of a trace record.
std::string to_text(const sched::TraceRecord& r);

}  // namespace djvu::record
