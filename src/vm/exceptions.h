// Java-like exceptions surfaced to applications by the DJVM socket APIs.
//
// "An exception thrown by a network event in the record phase is logged and
// re-thrown in the replay phase." (§4.1.3)  Exceptions carry a stable
// NetErrorCode so the record layer can persist them and replay can re-throw
// an identical exception without touching the network.
#pragma once

#include <string>

#include "common/errors.h"

namespace djvu::vm {

/// Analogue of java.net.SocketException (and its relatives).
class SocketException : public Error {
 public:
  SocketException(NetErrorCode code, const std::string& what)
      : Error(std::string(net_error_name(code)) + ": " + what), code_(code) {}

  /// Stable code, persisted by record and reproduced by replay.
  NetErrorCode code() const { return code_; }

 private:
  NetErrorCode code_;
};

/// Analogue of java.net.BindException.
class BindException : public SocketException {
 public:
  explicit BindException(const std::string& what)
      : SocketException(NetErrorCode::kAddressInUse, what) {}
};

/// Analogue of java.net.ConnectException.
class ConnectException : public SocketException {
 public:
  explicit ConnectException(const std::string& what)
      : SocketException(NetErrorCode::kConnectionRefused, what) {}
};

/// Analogue of java.net.SocketTimeoutException (SO_TIMEOUT expiry on a
/// blocking accept/read/receive).  Like every network exception it is
/// recorded during record and re-thrown — without waiting — during replay.
class SocketTimeoutException : public SocketException {
 public:
  explicit SocketTimeoutException(const std::string& what)
      : SocketException(NetErrorCode::kTimedOut, what) {}
};

/// The one NetErrorCode → exception mapping, for live failures in record
/// and recorded ones in replay alike, so both phases throw the same class:
/// the java.net subclass where one exists, else SocketException.
[[noreturn]] inline void throw_socket_exception(NetErrorCode code,
                                                const std::string& op) {
  switch (code) {
    case NetErrorCode::kConnectionRefused:
      throw ConnectException(op);
    case NetErrorCode::kAddressInUse:
      throw BindException(op);
    case NetErrorCode::kTimedOut:
      throw SocketTimeoutException(op);
    default:
      throw SocketException(code, op);
  }
}

}  // namespace djvu::vm
