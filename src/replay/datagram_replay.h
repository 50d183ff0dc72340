// Replay-phase datagram delivery (§4.2.3).
//
// "For reliable delivery of UDP packets during replay, we use a reliable
// UDP mechanism ... Note that a datagram delivered during replay need be
// ignored if it was not delivered during record. ... A datagram entry that
// has been delivered multiple times during the record phase due to
// duplication is kept in the buffer until it is delivered to the same number
// of read requests as in the record phase."
//
// The replayer buffers arriving datagrams by DGnetworkEventId and hands
// each receive event exactly the datagram its log entry names.  It is built
// with the recorded delivery count of every id: each delivery decrements the
// id's remaining count and the buffered entry is pruned the moment its count
// is exhausted, so the buffer's residency is bounded by the set of ids with
// outstanding recorded deliveries.  Datagrams never named by any entry are
// dropped on arrival — the "ignored if not delivered during record" rule —
// instead of accumulating.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <utility>

#include "common/bytes.h"
#include "common/ids.h"

namespace djvu::replay {

/// Per-socket replay buffer; several threads may receive on one socket.
class DatagramReplayer {
 public:
  /// One net-level receive: blocks for the next *complete* (reassembled)
  /// tagged datagram.  May throw (socket closed).
  using FetchFn = std::function<std::pair<DgNetworkEventId, Bytes>()>;

  /// `recorded_deliveries` maps each datagram id to the number of receive
  /// events the recorded log serves from it.
  explicit DatagramReplayer(
      std::map<DgNetworkEventId, std::uint32_t> recorded_deliveries);

  /// Returns the application payload of the datagram recorded for this
  /// receive event, fetching (one fetcher at a time) until it arrives.
  Bytes await(const DgNetworkEventId& want, const FetchFn& fetch);

  /// Deposits a datagram directly (tests).
  void put(const DgNetworkEventId& id, Bytes payload);

  /// Number of buffered datagrams: an entry stays until its recorded
  /// delivery count is exhausted.
  std::size_t buffered() const;

  /// Number of datagrams discarded so far (pruned after their final
  /// recorded delivery, or never named by the log).
  std::size_t dropped() const;

 private:
  /// Serves `it` to the caller under `mutex_`: decrements the remaining
  /// count and prunes the entry on its last recorded delivery (moving the
  /// payload out).
  Bytes take_locked(std::map<DgNetworkEventId, Bytes>::iterator it);

  /// True when the arriving datagram should be buffered: while recorded
  /// deliveries of its id remain.
  bool admit_locked(const DgNetworkEventId& id);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<DgNetworkEventId, Bytes> buffer_;
  bool fetch_in_progress_ = false;
  std::size_t waiters_ = 0;

  std::map<DgNetworkEventId, std::uint32_t> remaining_;
  std::size_t dropped_ = 0;
};

}  // namespace djvu::replay
