// The §4.1.3 rule, written once: "an exception thrown by a network event in
// the record phase is logged and re-thrown in the replay phase."  Every
// socket, datagram and time gateway reaches the network log through a
// NetEvent.  Record logs the outcome: a success entry, or an error entry and
// the java.net exception.  Replay marks and re-throws a recorded exception
// with the text record threw, and turns an entry that does not match the
// replayed call into a kNetworkMismatch divergence instead of serving it:
// no entry where one is due, an entry of another kind, or a success entry
// without the field its kind needs (record::missing_field).  The exception
// text `op` is a string literal or a callable that builds it, called only
// when an exception is thrown.
#pragma once

#include <string>
#include <type_traits>
#include <utility>

#include "record/log_entries.h"
#include "vm/exceptions.h"
#include "vm/vm.h"

namespace djvu::vm {

class NetEvent {
 public:
  /// Which outcomes of a call log an entry.
  enum class Logs {
    kEveryOutcome,  ///< a success logs one too: replay requires an entry
    kFailuresOnly,  ///< a deterministic success logs nothing
  };

  /// Takes the calling thread's next network event number.  `conflict` is
  /// the key the event marks with.
  NetEvent(Vm& vm, sched::EventKind kind,
           ConflictKey conflict = kThreadLocalConflict);

  EventNum event_num() const { return event_num_; }

  // --- record ---------------------------------------------------------------

  /// Logs a successful outcome.
  void log(std::uint64_t value) { append({.value = value}); }
  void log(std::uint64_t value, Bytes data) {
    append({.value = value, .data = std::move(data)});
  }
  void log(std::uint64_t value, DgNetworkEventId dg_id) {
    append({.value = value, .dg_id = dg_id});
  }
  void log(ConnectionId conn_id) { append({.conn_id = conn_id}); }

  /// Logs a failure, marks the event with its code and throws the java.net
  /// exception for it.
  template <class Op>
  [[noreturn]] void fail(NetErrorCode code, const Op& op) {
    append({.error = code});
    mark_error(code);
    throw_socket_exception(code, op_text(op));
  }

  /// As fail(), for a failure raised inside the event's own GC-critical
  /// section (write, udp send): the section already ticked the event with
  /// the code as aux, so it is not marked again.
  template <class Op>
  [[noreturn]] void fail_in_section(NetErrorCode code, const Op& op) {
    append({.error = code});
    throw_socket_exception(code, op_text(op));
  }

  // --- replay ---------------------------------------------------------------

  /// Looks up the recorded outcome and returns when it is a success the
  /// replayed call may use.  A recorded exception is marked and re-thrown;
  /// a mismatched entry diverges (see the header comment).
  template <class Op>
  void replay(const Op& op, Logs logs = Logs::kEveryOutcome) {
    lookup(logs);
    if (entry_ != nullptr && entry_->error != NetErrorCode::kNone) {
      mark_error(entry_->error);
      throw_socket_exception(entry_->error, op_text(op));
    }
  }

  /// Fields of the success entry replay() found.  value() and dg_id()
  /// diverge when the entry lacks them; data() and conn_id() are null then.
  std::uint64_t value() const;
  DgNetworkEventId dg_id() const;
  const Bytes* data() const { return entry_->data ? &*entry_->data : nullptr; }
  const ConnectionId* conn_id() const {
    return entry_->conn_id ? &*entry_->conn_id : nullptr;
  }

 private:
  template <class Op>
  static std::string op_text(const Op& op) {
    if constexpr (std::is_invocable_v<const Op&>) {
      return op();
    } else {
      return op;
    }
  }

  void append(record::NetworkLogEntry entry);
  void mark_error(NetErrorCode code);
  void lookup(Logs logs);
  [[noreturn]] void diverge(const std::string& what) const;

  Vm& vm_;
  sched::EventKind kind_;
  ConflictKey conflict_;
  sched::ThreadState& state_;
  EventNum event_num_;
  const record::NetworkLogEntry* entry_ = nullptr;
};

}  // namespace djvu::vm
