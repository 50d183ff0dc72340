// Java-like stream socket API with record/replay interposition (§4.1).
//
// Mirrors java.net: a client constructs a Socket (create + connect), a
// server constructs a ServerSocket (create + bind + listen) and accept()s;
// getInputStream()/getOutputStream() expose read/write/available.  Every
// native call — accept, bind, create, listen, connect, close, available,
// read, write — is a network critical event (§4.1.2).
//
// Closed-world protocol (§4.1.3): on connect, the client sends its
// connectionId as the *first* data over the new connection ("meta data",
// written with a low-level write before the constructor returns); the
// server reads it during accept and logs a ServerSocketEntry.  During
// replay the server's connection pool buffers out-of-order connections
// until the recorded clientId arrives.
//
// Open-world scheme (§5): connections to/from non-DJVM hosts carry no meta
// data; their inputs are content-logged during record, and during replay the
// socket is *virtual* — no network operation is performed, reads return
// recorded content, writes are dropped.
//
// Per-socket FD-critical sections (Fig. 3) serialize same-socket operations
// while letting different sockets proceed in parallel; we use one lock per
// direction because Java's SocketInputStream and SocketOutputStream are
// independent objects and a blocking read must not stall writes.
#pragma once

#include <chrono>
#include <memory>
#include <mutex>

#include "common/bytes.h"
#include "net/network.h"
#include "replay/connection_pool.h"
#include "vm/exceptions.h"
#include "vm/vm.h"

namespace djvu::vm {

class Socket;

/// Analogue of the InputStream returned by Socket.getInputStream().
class InputStream {
 public:
  /// Blocking read of up to `max` bytes; returns the count, 0 on EOF
  /// (Java returns -1; 0 is this API's EOF signal since it never does
  /// zero-byte reads).
  std::size_t read(std::uint8_t* out, std::size_t max);

  /// Convenience: read into a fresh buffer (empty on EOF).
  Bytes read(std::size_t max);

  /// Bytes readable without blocking (java.io.InputStream.available()).
  std::size_t available();

 private:
  friend class Socket;
  explicit InputStream(Socket& s) : s_(s) {}
  Socket& s_;
};

/// Analogue of the OutputStream returned by Socket.getOutputStream().
class OutputStream {
 public:
  /// Writes the whole buffer (non-blocking; see DESIGN.md §5).
  void write(BytesView data);

 private:
  friend class Socket;
  explicit OutputStream(Socket& s) : s_(s) {}
  Socket& s_;
};

/// Analogue of java.net.Socket.
class Socket {
 public:
  /// Client constructor: create + connect (blocks until established).
  /// Throws ConnectException / SocketException on failure (re-thrown from
  /// the log during replay).
  Socket(Vm& vm, net::SocketAddress remote);

  /// Destructor quietly releases the network object *without* emitting
  /// close events (like JVM finalization).  Call close() for an
  /// application-visible close.
  ~Socket();
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// The socket's input stream.
  InputStream& input_stream() { return in_; }

  /// The socket's output stream.
  OutputStream& output_stream() { return out_; }

  /// Application-visible close (a kSockClose critical event).
  void close();

  /// SO_TIMEOUT for this socket's blocking reads (Java setSoTimeout): a
  /// read that sees no byte within `timeout` throws
  /// SocketTimeoutException — recorded and re-thrown like any network
  /// exception.  Zero disables.  Not itself a critical event (it only sets
  /// a local option whose *effects* are events).
  void set_so_timeout(std::chrono::milliseconds timeout) {
    so_timeout_ = timeout;
  }

  /// Peer address.
  net::SocketAddress remote_address() const { return remote_; }

  /// True for an open-world replay socket that performs no network I/O.
  bool is_virtual() const { return virtual_; }

 private:
  friend class ServerSocket;
  friend class InputStream;
  friend class OutputStream;

  /// Accepted-connection constructor (real).
  Socket(Vm& vm, std::shared_ptr<net::TcpConnection> conn, bool peer_is_djvm);

  /// Virtual-socket constructor (open-world replay).
  Socket(Vm& vm, net::SocketAddress remote, bool virtual_tag);

  std::size_t do_read(std::uint8_t* out, std::size_t max);
  std::size_t do_available();
  void do_write(BytesView data);

  Vm& vm_;
  ConflictKeyLifetime key_lifetime_{vm_, this};
  std::shared_ptr<net::TcpConnection> conn_;  // null for virtual sockets
  net::SocketAddress remote_{};
  bool peer_is_djvm_ = false;
  bool virtual_ = false;
  bool closed_ = false;
  std::mutex read_mutex_;   // FD-critical section, read direction
  std::mutex write_mutex_;  // FD-critical section, write direction
  std::chrono::milliseconds so_timeout_{0};  // 0 = no timeout
  InputStream in_{*this};
  OutputStream out_{*this};
};

/// Analogue of java.net.ServerSocket.
class ServerSocket {
 public:
  /// Creates, binds and listens (three critical events).  `port` 0 picks an
  /// ephemeral port during record; replay rebinds the recorded port.
  ServerSocket(Vm& vm, net::Port port);

  /// Like ~Socket: quiet release, no events.
  ~ServerSocket();
  ServerSocket(const ServerSocket&) = delete;
  ServerSocket& operator=(const ServerSocket&) = delete;

  /// Accepts the next connection (blocking).  Record: arrival order, meta
  /// data logged.  Replay: the connection recorded for this accept event,
  /// via the connection pool.
  std::unique_ptr<Socket> accept();

  /// Application-visible close (kSockClose).  During replay the underlying
  /// listener stays open until destruction so eagerly re-executed connects
  /// cannot be refused by a replayed close racing ahead (DESIGN.md §5).
  void close();

  /// SO_TIMEOUT for accept (Java ServerSocket.setSoTimeout).
  void set_so_timeout(std::chrono::milliseconds timeout) {
    so_timeout_ = timeout;
  }

  /// Bound port (recorded value during replay).
  net::Port local_port() const { return port_; }

 private:
  Vm& vm_;
  ConflictKeyLifetime key_lifetime_{vm_, this};
  std::shared_ptr<net::TcpListener> listener_;
  replay::ConnectionPool pool_;
  std::mutex fd_mutex_;  // serializes net-level accepts (synchronized call)
  std::chrono::milliseconds so_timeout_{0};  // 0 = no timeout
  net::Port port_ = 0;
  bool closed_ = false;
};

}  // namespace djvu::vm
