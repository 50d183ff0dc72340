// Typed entries of the per-DJVM NetworkLogFile (§4.1.3, §4.2.2, §5).
//
// Each entry describes the recorded outcome of one network event, addressed
// by its networkEventId <threadNum, eventNum>.  Only events whose outcome is
// not deterministically recomputable get an entry:
//
//   accept     -> ServerSocketEntry: the clientId (connectionId meta data)
//                 received on the established connection;
//   read       -> numRecorded (bytes actually read);
//   available  -> recorded byte count;
//   bind       -> recorded local port;
//   udp receive-> the DGnetworkEventId of the delivered datagram (this is
//                 the paper's RecordedDatagramLog: its ReceiverGCounter
//                 component is implied by the event's position in the
//                 enforced schedule);
//   any event  -> the NetErrorCode of an exception to re-throw in replay;
//   open world -> full content of the input (reads / receives), §5.
//
// Events with deterministic outcomes (connect, write, create, listen, close,
// udp send) get entries only when they raised an exception.  A udp send's
// DGnetworkEventId is <own vmId, own gc>, and the gc is reproduced by the
// schedule, so it needs no log entry — the same reasoning the paper uses.
#pragma once

#include <optional>

#include "common/bytes.h"
#include "common/errors.h"
#include "common/ids.h"
#include "sched/critical_event.h"

namespace djvu::record {

/// One recorded network event outcome.  Every member has an initializer, so
/// a designated initializer may name only the fields it sets.
struct NetworkLogEntry {
  /// Which native call this entry belongs to.  Checked in replay, by
  /// vm::NetEvent: a replayed call that finds an entry of another kind
  /// diverges instead of being served it.
  sched::EventKind kind = sched::EventKind::kSockRead;

  /// Per-thread sequence number of the network event (the thread component
  /// of the networkEventId is the index of the per-thread list this entry
  /// lives in).
  EventNum event_num = 0;

  /// Exception recorded for this event; kNone when the event succeeded.
  NetErrorCode error = NetErrorCode::kNone;

  /// accept: the clientId sent by the DJVM-client as connection meta data.
  std::optional<ConnectionId> conn_id{};

  /// read: numRecorded; available: byte count; bind: port; sock-create on a
  /// client Socket: recorded local port.
  std::optional<std::uint64_t> value{};

  /// udp receive: id of the datagram that was delivered.
  std::optional<DgNetworkEventId> dg_id{};

  /// Open-world content (full bytes of the read / received datagram /
  /// accept meta), §5: "any input messages are fully recorded including
  /// their contents".
  std::optional<Bytes> data{};

  friend bool operator==(const NetworkLogEntry&,
                         const NetworkLogEntry&) = default;
};

/// The per-kind field rule: names what a successful entry of `e.kind` must
/// carry and `e` lacks, or returns nullptr when `e` carries it, records an
/// exception, or is of a kind whose success needs no field.
/// record::validate and the replay gateway (vm::NetEvent) both apply it.
inline const char* missing_field(const NetworkLogEntry& e) {
  if (e.error != NetErrorCode::kNone) return nullptr;
  switch (e.kind) {
    case sched::EventKind::kSockRead:
      return e.value || e.data ? nullptr : "byte count or content";
    case sched::EventKind::kSockAvailable:
    case sched::EventKind::kSockBind:
    case sched::EventKind::kUdpCreate:
    case sched::EventKind::kTimeRead:
    case sched::EventKind::kSockConnect:  // open world only
      return e.value ? nullptr : "value";
    case sched::EventKind::kSockAccept:
      return e.conn_id || e.value ? nullptr : "clientId or peer address";
    case sched::EventKind::kUdpReceive:
      if (!e.value) return "source address";
      return e.dg_id || e.data ? nullptr : "datagram id or content";
    default:
      return nullptr;
  }
}

}  // namespace djvu::record
