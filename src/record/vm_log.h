// The complete record-phase output of one DJVM: identity, logical thread
// schedule, network log and summary statistics.  This is what gets written
// to disk after record and loaded before replay.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "record/network_log.h"
#include "sched/interval.h"

namespace djvu::record {

/// Ceiling on a decoded thread number or thread count, shared by the bundle
/// and spool decoders.  Loading allocates a per-thread slot for every
/// number up to the largest one named, and thread numbers are dense
/// creation indices, so a number past this is a corrupt field, not a
/// recording (no DJVM runs a million threads).
inline constexpr std::uint64_t kMaxLogThreads = std::uint64_t{1} << 20;

/// Per-thread logical schedule: interval lists indexed by threadNum (§2.2).
struct ScheduleLog {
  std::vector<sched::IntervalList> per_thread;

  friend bool operator==(const ScheduleLog&, const ScheduleLog&) = default;

  /// Total number of recorded intervals across all threads.
  std::size_t interval_count() const {
    std::size_t n = 0;
    for (const auto& list : per_thread) n += list.size();
    return n;
  }

  /// Total number of critical events the intervals encode.
  GlobalCount event_count() const {
    GlobalCount n = 0;
    for (const auto& list : per_thread) {
      for (const auto& lsi : list) n += lsi.length();
    }
    return n;
  }
};

/// Per-thread per-event conflict-key sequence numbers, recorded only in
/// causal order mode (tuning.order_mode = kCausal): entry i of thread t's
/// list is the per-key seq of that thread's i-th critical event, in program
/// order.  Together with the schedule (which still carries the total-order
/// gc), this is the causal partial order replay enforces — conflict keys
/// themselves are never logged (they are run-specific addresses); replay
/// re-derives them by induction on program order (docs/INTERNALS.md §1d).
/// Empty for total-order recordings.
struct CausalLog {
  std::vector<std::vector<std::uint64_t>> per_thread;

  friend bool operator==(const CausalLog&, const CausalLog&) = default;

  /// True when no thread recorded any causal entry (total-order recording).
  bool empty() const {
    for (const auto& list : per_thread) {
      if (!list.empty()) return false;
    }
    return true;
  }

  /// Total causal entries across all threads (== critical events when
  /// recorded causally).
  std::uint64_t event_count() const {
    std::uint64_t n = 0;
    for (const auto& list : per_thread) n += list.size();
    return n;
  }
};

/// Summary statistics gathered during record (drives the Tables 1/2 rows).
struct RecordStats {
  /// Final global counter value == number of critical events (§2.2).
  GlobalCount critical_events = 0;

  /// Number of critical events that are network events ("#nw events").
  std::uint64_t network_events = 0;

  friend bool operator==(const RecordStats&, const RecordStats&) = default;
};

/// Everything one DJVM records.
struct VmLog {
  /// "Each DJVM is assigned a unique JVM identity (DJVM-id) during the
  /// record phase.  This identity is logged ... and reused in the replay
  /// phase." (§4.1.3)
  DjvmId vm_id = 0;

  ScheduleLog schedule;
  NetworkLog network;
  /// Causal-mode partial order (empty for total-order recordings).
  CausalLog causal;
  RecordStats stats;
};

}  // namespace djvu::record
