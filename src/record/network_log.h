// The per-DJVM NetworkLogFile (§4.1.3): "the per DJVM log file where
// information required for replaying network events is recorded."
//
// Record side: threads append entries for their own network events (the
// structure is sharded by thread, with a light lock for thread-list
// creation).  Replay side: entries are looked up by networkEventId
// <threadNum, eventNum>.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/errors.h"
#include "record/log_entries.h"

namespace djvu::record {

/// Thread-safe network event log.
class NetworkLog {
 public:
  NetworkLog() = default;

  /// Movable so VmLog bundles can be returned by value.  Moving is only
  /// safe while no other thread touches either log (load/save time).
  NetworkLog(NetworkLog&& other) noexcept
      : per_thread_(std::move(other.per_thread_)) {}
  NetworkLog& operator=(NetworkLog&& other) noexcept {
    per_thread_ = std::move(other.per_thread_);
    return *this;
  }

  /// Record mode: appends the outcome of network event
  /// <thread, entry.event_num>; a second entry for one event is misuse
  /// (UsageError).
  void append(ThreadNum thread, NetworkLogEntry entry);

  /// As append, but returns false instead of throwing when the event
  /// already has an entry: a file reader reports that as a format error.
  bool insert(ThreadNum thread, NetworkLogEntry entry);

  /// Replay mode: finds the entry for <thread, event_num>, or nullptr when
  /// the event recorded no entry (deterministic outcome, no exception).
  const NetworkLogEntry* find(ThreadNum thread, EventNum event_num) const;

  /// All entries of one thread in event order (text export, tests).
  std::vector<NetworkLogEntry> thread_entries(ThreadNum thread) const;

  /// Replay: how many receive events the log serves from each recorded
  /// datagram id, over every thread (the log does not say which socket
  /// served an entry).  Bounds the datagram replayer's residency, §4.2.3.
  std::map<DgNetworkEventId, std::uint32_t> datagram_deliveries() const;

  /// Threads that have at least one entry.
  std::vector<ThreadNum> threads() const;

  /// Total number of entries.
  std::size_t size() const;

  /// Serialized size lower bound is exercised through serializer.cc; this
  /// counts the bytes of recorded open-world content (log size analysis).
  std::size_t content_bytes() const;

  friend bool operator==(const NetworkLog& a, const NetworkLog& b) {
    return a.per_thread_ == b.per_thread_;
  }

 private:
  mutable std::mutex mutex_;
  // threadNum -> (event_num -> entry).  A map (not vector) because most
  // network events record no entry.
  std::map<ThreadNum, std::map<EventNum, NetworkLogEntry>> per_thread_;
};

/// The text both a misused append and a file reader's format error carry.
std::string duplicate_entry_message(ThreadNum thread, EventNum event_num);

}  // namespace djvu::record
