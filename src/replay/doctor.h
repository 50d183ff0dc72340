// The replay doctor: post-mortem cross-referencing of a divergent replay
// against the recorded log.
//
// A DivergenceReport (sched/divergence.h) says what the *replayed* run was
// doing when it left the recorded schedule.  The doctor adds the recorded
// side: which thread owned the divergence position during record and under
// which logical schedule interval, how much schedule the blamed thread had
// recorded, the intervals surrounding the divergence (the context window a
// human reads first), the log's shape statistics, and — for spooled
// recordings — whether the file ended cleanly or recovered from a torn
// tail.  The result renders as human-readable text and as a single JSON
// object for tooling (CI artifact upload, timeline viewers).
#pragma once

#include <string>
#include <vector>

#include "record/log_stats.h"
#include "record/vm_log.h"
#include "sched/divergence.h"

namespace djvu::replay {

/// One recorded interval in the doctor's context window around the
/// divergence position.
struct ContextInterval {
  ThreadNum thread = 0;
  sched::LogicalInterval interval{0, 0};
  bool owns_divergence = false;  ///< contains the divergence position
};

/// Everything the doctor worked out about one divergent replay.
struct DoctorReport {
  /// The selected (blame-ordered first) divergence of the failed run.
  sched::DivergenceReport divergence;

  /// Every report the run produced, blame-ordered (stall victims after
  /// the affirmative root cause).  May be empty when the caller only has
  /// the selected report.
  std::vector<sched::DivergenceReport> all;

  // Recorded-log location (spool diagnosis only).
  bool log_found = false;
  std::string log_path;

  /// True once a recorded log was cross-referenced (diagnose()).  False
  /// when none was found, or one was found but could not be loaded: every
  /// recorded-side field below then keeps its default and is not rendered.
  bool loaded = false;
  /// Crash-consistency verdict of the loaded spool (meaningful only when
  /// loaded).
  bool clean_end = true;
  std::uint64_t truncated_bytes = 0;

  /// Shape statistics of the recorded log (record/log_stats.h).
  record::LogStats stats{};

  /// The thread + interval that owned the divergence position during
  /// record (when the position falls inside some recorded interval).
  bool owner_known = false;
  ThreadNum recorded_owner_thread = 0;
  sched::LogicalInterval recorded_owner_interval{0, 0};

  /// Recorded totals for the blamed thread.
  std::uint64_t thread_recorded_events = 0;
  std::size_t thread_recorded_intervals = 0;

  /// Recorded intervals overlapping a window around the divergence
  /// position, schedule-ordered.
  std::vector<ContextInterval> context;

  /// Human-oriented findings derived from the cross-reference.
  std::vector<std::string> notes;
};

/// Cross-references report.divergence against the recorded log, filling
/// stats, owner, thread totals, context window and notes, and sets loaded.
void diagnose(DoctorReport& report, const record::VmLog& log);

/// Diagnoses against a spooled recording: `path` is either one .djvuspool
/// file or the spool directory of the run (the file is then located by the
/// report's VM name, falling back to matching vm_id in each file header
/// via record::LogSource).  A missing log yields log_found == false with a
/// note instead of an error.
///
/// The located file is loaded once with record::load_spooled_log (the
/// replay loader: indexed for a footer'd spool, a sequential scan that
/// recovers a torn tail's prefix otherwise) and cross-referenced with
/// diagnose(), so a sealed spool and a footerless copy of it produce the
/// same report.  A file damaged beyond a torn tail (a foreign header, a
/// CRC-certified chunk that does not decode) yields log_found == true and
/// a note carrying the load error, not a throw; loaded stays false and the
/// recorded-side fields keep their defaults, as for a missing log.
DoctorReport diagnose_spool(const sched::DivergenceReport& divergence,
                            const std::string& path);

/// Multi-line human-readable rendering.
std::string to_text(const DoctorReport& report);

/// Single JSON object (embeds sched::to_json for each divergence report
/// and record::to_json for the log statistics).
std::string to_json(const DoctorReport& report);

}  // namespace djvu::replay
