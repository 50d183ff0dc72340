#include "vm/socket_api.h"

#include <chrono>
#include <cstring>
#include <thread>

#include "common/crc32.h"
#include "vm/net_event.h"

namespace djvu::vm {
namespace {

using sched::EventKind;

/// Wire size of the connectionId meta data: vm(4) + thread(4) + event(8).
constexpr std::size_t kMetaSize = 16;

Bytes encode_meta(const ConnectionId& id) {
  ByteWriter w;
  w.u32(id.djvm_id).u32(id.thread_num).u64(id.event_num);
  return w.take();
}

ConnectionId decode_meta(BytesView data) {
  ByteReader r(data);
  ConnectionId id;
  id.djvm_id = r.u32();
  id.thread_num = r.u32();
  id.event_num = r.u64();
  return id;
}

std::uint64_t conn_id_aux(const ConnectionId& id) {
  return (std::uint64_t{id.djvm_id} << 40) ^ (std::uint64_t{id.thread_num} << 20) ^
         id.event_num;
}

}  // namespace

// ---------------------------------------------------------------------------
// Socket — client constructor (create + connect)
// ---------------------------------------------------------------------------

Socket::Socket(Vm& vm, net::SocketAddress remote) : vm_(vm), remote_(remote) {
  const auto op = [this] { return "connect to " + to_string(remote_); };
  if (!vm_.instrumented()) {
    // Plain JVM: raw connect, no events, no meta data.
    try {
      conn_ = vm_.network().connect(vm_.host(), remote_);
    } catch (const net::NetError& e) {
      throw_socket_exception(e.code(), op());
    }
    return;
  }

  peer_is_djvm_ = vm_.is_djvm_host(remote_.host);
  sched::ThreadState& st = vm_.current_state();

  // create event (§4.1.2 lists create among the native calls).
  st.take_network_event_num();
  vm_.mark_event(EventKind::kSockCreate, 0, this);

  NetEvent ev(vm_, EventKind::kSockConnect, this);
  const ConnectionId my_id{vm_.vm_id(), st.num, ev.event_num()};

  if (vm_.mode() == Mode::kRecord) {
    try {
      // Blocking connect executes outside the GC-critical section.
      conn_ = vm_.network().connect(vm_.host(), remote_);
      if (peer_is_djvm_) {
        // "the client thread ... sends the connectionId for the connect
        // over the established socket as the first data (meta data) ...
        // via a low level (native) socket write" — not itself an event.
        conn_->write(encode_meta(my_id));
      }
    } catch (const net::NetError& err) {
      ev.fail(err.code(), op);
    }
    // Open-world scheme: record that the connect succeeded so replay can
    // virtualize it.
    if (!peer_is_djvm_) ev.log(1);
    vm_.mark_event(EventKind::kSockConnect, conn_id_aux(my_id), this);
    return;
  }

  // Replay: a recorded exception re-throws without executing the connect.
  ev.replay(op, peer_is_djvm_ ? NetEvent::Logs::kFailuresOnly
                              : NetEvent::Logs::kEveryOutcome);
  if (!peer_is_djvm_) {
    // Open-world: "The actual operating system-level connect call is not
    // executed."
    virtual_ = true;
    vm_.mark_event(EventKind::kSockConnect, conn_id_aux(my_id), this);
    return;
  }
  // Closed-world: re-execute the connect eagerly and re-send the meta data.
  // The peer DJVM replays its listen at its own pace, so transient refusals
  // are retried (the record phase proved this connect succeeds).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    try {
      conn_ = vm_.network().connect(vm_.host(), remote_);
      break;
    } catch (const net::NetError& err) {
      if (err.code() == NetErrorCode::kConnectionRefused &&
          std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      vm_.replay_divergence(
          EventKind::kSockConnect,
          "recorded-successful connect failed during replay: " +
              std::string(err.what()),
          this);
    }
  }
  conn_->write(encode_meta(my_id));
  // "DJVM-client ensures that the connect call returns only when the
  // globalCounter for this critical event is reached."
  vm_.mark_event(EventKind::kSockConnect, conn_id_aux(my_id), this);
}

Socket::Socket(Vm& vm, std::shared_ptr<net::TcpConnection> conn,
               bool peer_is_djvm)
    : vm_(vm),
      conn_(std::move(conn)),
      remote_(conn_->remote_address()),
      peer_is_djvm_(peer_is_djvm) {}

Socket::Socket(Vm& vm, net::SocketAddress remote, bool virtual_tag)
    : vm_(vm), remote_(remote), virtual_(virtual_tag) {}

Socket::~Socket() {
  if (conn_ == nullptr || closed_) return;
  // Quiet release (no events).  In replay, only half-close so re-executed
  // peer writes that succeeded during record cannot hit a reset.
  if (vm_.instrumented() && vm_.mode() == Mode::kReplay) {
    conn_->shutdown_write();
  } else {
    conn_->close();
  }
}

void Socket::close() {
  if (closed_) return;
  closed_ = true;
  if (!vm_.instrumented()) {
    if (conn_) conn_->close();
    return;
  }
  sched::ThreadState& st = vm_.current_state();
  st.take_network_event_num();
  vm_.critical_event(
      EventKind::kSockClose,
      [&](GlobalCount) {
        if (vm_.mode() == Mode::kRecord) {
          if (conn_) conn_->close();
        } else if (conn_) {
          conn_->shutdown_write();  // replay: see header comment
        }
        return std::uint64_t{0};
      },
      0, this);
}

// ---------------------------------------------------------------------------
// Socket — read / available / write
// ---------------------------------------------------------------------------

std::size_t Socket::do_read(std::uint8_t* out, std::size_t max) {
  // SO_TIMEOUT wrapper around the raw read (record/passthrough paths).
  auto timed_read = [&](std::uint8_t* buf, std::size_t n) -> std::size_t {
    if (so_timeout_.count() <= 0) return conn_->read(buf, n);
    auto got = conn_->read_for(buf, n,
                               std::chrono::duration_cast<net::Duration>(
                                   so_timeout_));
    if (!got) {
      throw net::NetError(NetErrorCode::kTimedOut,
                          "read timed out after " +
                              std::to_string(so_timeout_.count()) + "ms");
    }
    return *got;
  };
  if (!vm_.instrumented()) {
    try {
      return timed_read(out, max);
    } catch (const net::NetError& e) {
      throw_socket_exception(e.code(), "read");
    }
  }
  NetEvent ev(vm_, EventKind::kSockRead, this);

  if (vm_.mode() == Mode::kRecord) {
    std::lock_guard<std::mutex> fd(read_mutex_);  // Fig. 3 FD-critical section
    std::size_t n = 0;
    try {
      n = timed_read(out, max);  // blocking, outside GC section
    } catch (const net::NetError& err) {
      ev.fail(err.code(), "read");
    }
    if (peer_is_djvm_) {
      ev.log(n);
    } else {
      ev.log(n, Bytes(out, out + n));  // open-world content
    }
    vm_.mark_event(EventKind::kSockRead, crc32({out, n}), this);
    return n;
  }

  // Replay.
  ev.replay("read");
  if (const Bytes* d = ev.data()) {
    // Open-world: serve recorded content, no network.
    if (d->size() > max) {
      vm_.replay_divergence(
          EventKind::kSockRead,
          "recorded read content larger than the replayed buffer", this);
    }
    std::memcpy(out, d->data(), d->size());
    vm_.mark_event(EventKind::kSockRead, crc32(*d), this);
    return d->size();
  }
  const std::size_t m = static_cast<std::size_t>(ev.value());
  if (m > max) {
    vm_.replay_divergence(
        EventKind::kSockRead,
        "recorded read returned more bytes than the replayed request", this);
  }
  if (conn_ == nullptr) {
    vm_.replay_divergence(EventKind::kSockRead,
                          "recorded read of a virtual socket has no content",
                          this);
  }
  // Turn-first (DESIGN.md §5), then read *exactly* numRecorded bytes:
  // "the thread reads only numRecorded bytes even if more bytes are
  // available to read or will block until numRecorded bytes are available".
  // Under interval leasing the "turn" may be lease-local (no await): the
  // bytes this read blocks for were produced by peer-VM writes, not by
  // this VM's counter, so blocking inside a lease cannot deadlock the
  // schedule — the completion below is what orders the event.
  vm_.replay_turn_begin(EventKind::kSockRead, this);
  {
    std::lock_guard<std::mutex> fd(read_mutex_);
    std::size_t got = 0;
    while (got < m) {
      std::size_t r;
      try {
        r = conn_->read(out + got, m - got);
      } catch (const net::NetError& err) {
        vm_.replay_divergence(EventKind::kSockRead,
                              std::string("replay read failed: ") + err.what(),
                              this);
      }
      if (r == 0) {
        vm_.replay_divergence(
            EventKind::kSockRead,
            "EOF before the recorded byte count was read", this);
      }
      got += r;
    }
  }
  vm_.replay_turn_end(EventKind::kSockRead, crc32({out, m}));
  return m;
}

std::size_t Socket::do_available() {
  if (!vm_.instrumented()) {
    return conn_ ? conn_->available() : 0;
  }
  NetEvent ev(vm_, EventKind::kSockAvailable, this);

  if (vm_.mode() == Mode::kRecord) {
    std::size_t n = conn_->available();  // executed before the GC section
    ev.log(n);
    vm_.mark_event(EventKind::kSockAvailable, n, this);
    return n;
  }

  ev.replay("available");
  const std::size_t m = static_cast<std::size_t>(ev.value());
  if (virtual_) {
    vm_.mark_event(EventKind::kSockAvailable, m, this);
    return m;
  }
  // "the available event can potentially block until it returns the
  // recorded number of bytes".
  vm_.replay_turn_begin(EventKind::kSockAvailable, this);
  if (m > 0 && !conn_->wait_available(m)) {
    vm_.replay_divergence(
        EventKind::kSockAvailable,
        "stream ended before the recorded available() count", this);
  }
  vm_.replay_turn_end(EventKind::kSockAvailable, m);
  return m;
}

void Socket::do_write(BytesView data) {
  if (!vm_.instrumented()) {
    try {
      conn_->write(data);
    } catch (const net::NetError& e) {
      throw_socket_exception(e.code(), "write");
    }
    return;
  }
  NetEvent ev(vm_, EventKind::kSockWrite, this);

  if (vm_.mode() == Mode::kRecord) {
    std::lock_guard<std::mutex> fd(write_mutex_);
    try {
      // write is non-blocking: executed inside the GC-critical section,
      // "similar to how we handle critical events corresponding to shared
      // variable updates".
      vm_.critical_event(
          EventKind::kSockWrite,
          [&](GlobalCount) {
            conn_->write(data);
            return crc32(data);
          },
          0, this);
    } catch (const net::NetError& err) {
      // The event already ticked (a throwing event still happened); log the
      // exception for replay.
      ev.fail_in_section(err.code(), "write");
    }
    return;
  }

  // Replay.
  ev.replay("write", NetEvent::Logs::kFailuresOnly);
  // Turn-first: the write lock is taken inside the turn.  Taking it before
  // the turn lets a writer whose turn comes later hold it while the writer
  // whose turn is current blocks on it, and the schedule deadlocks.
  vm_.critical_event(
      EventKind::kSockWrite,
      [&](GlobalCount) {
        std::lock_guard<std::mutex> fd(write_mutex_);
        if (conn_ != nullptr && !virtual_) {
          try {
            conn_->write(data);
          } catch (const net::NetError& err) {
            vm_.replay_divergence(
                EventKind::kSockWrite,
                std::string(
                    "recorded-successful write failed during replay: ") +
                    err.what(),
                this);
          }
        }
        // Virtual socket: "any message sent to a non-DJVM thread during
        // the record phase need not be sent again during the replay phase."
        return crc32(data);
      },
      0, this);
}

std::size_t InputStream::read(std::uint8_t* out, std::size_t max) {
  return s_.do_read(out, max);
}

Bytes InputStream::read(std::size_t max) {
  Bytes buf(max);
  std::size_t n = s_.do_read(buf.data(), max);
  buf.resize(n);
  return buf;
}

std::size_t InputStream::available() { return s_.do_available(); }

void OutputStream::write(BytesView data) { s_.do_write(data); }

// ---------------------------------------------------------------------------
// ServerSocket
// ---------------------------------------------------------------------------

ServerSocket::ServerSocket(Vm& vm, net::Port port) : vm_(vm) {
  if (!vm_.instrumented()) {
    try {
      listener_ = vm_.network().listen({vm_.host(), port});
    } catch (const net::NetError& e) {
      throw_socket_exception(e.code(),
                             "listen on port " + std::to_string(port));
    }
    port_ = listener_->address().port;
    return;
  }
  sched::ThreadState& st = vm_.current_state();

  st.take_network_event_num();
  vm_.mark_event(EventKind::kSockCreate, 0, this);

  NetEvent ev(vm_, EventKind::kSockBind, this);
  const auto op = [port] { return "bind port " + std::to_string(port); };
  if (vm_.mode() == Mode::kRecord) {
    try {
      listener_ = vm_.network().listen({vm_.host(), port});
    } catch (const net::NetError& err) {
      ev.fail(err.code(), op);
    }
    port_ = listener_->address().port;
    ev.log(port_);  // "the DJVM records its return value" (the port)
    vm_.mark_event(EventKind::kSockBind, port_, this);
  } else {
    ev.replay(op);
    // "we execute the bind event, passing the recorded local port as
    // argument" — deterministic re-binding.
    port_ = static_cast<net::Port>(ev.value());
    try {
      listener_ = vm_.network().listen({vm_.host(), port_});
    } catch (const net::NetError& err) {
      vm_.replay_divergence(
          EventKind::kSockBind,
          std::string("recorded bind failed during replay: ") + err.what(),
          this);
    }
    vm_.mark_event(EventKind::kSockBind, port_, this);
  }

  st.take_network_event_num();
  vm_.mark_event(EventKind::kSockListen, 0, this);
}

ServerSocket::~ServerSocket() {
  if (listener_ == nullptr) return;
  net::SocketAddress addr = listener_->address();
  listener_->close();
  vm_.network().unlisten(addr);
}

void ServerSocket::close() {
  if (closed_) return;
  closed_ = true;
  if (!vm_.instrumented()) {
    net::SocketAddress addr = listener_->address();
    listener_->close();
    vm_.network().unlisten(addr);
    return;
  }
  sched::ThreadState& st = vm_.current_state();
  st.take_network_event_num();
  vm_.critical_event(
      EventKind::kSockClose,
      [&](GlobalCount) {
        if (vm_.mode() == Mode::kRecord) {
          net::SocketAddress addr = listener_->address();
          listener_->close();
          vm_.network().unlisten(addr);
        }
        // Replay: the listener stays registered until destruction so eager
        // re-executed connects cannot be refused by this close racing
        // ahead.
        return std::uint64_t{0};
      },
      0, this);
}

std::unique_ptr<Socket> ServerSocket::accept() {
  // SO_TIMEOUT wrapper around the raw accept (record/passthrough paths).
  auto timed_accept = [&]() -> std::shared_ptr<net::TcpConnection> {
    if (so_timeout_.count() <= 0) return listener_->accept();
    auto conn = listener_->accept_for(
        std::chrono::duration_cast<net::Duration>(so_timeout_));
    if (conn == nullptr) {
      throw net::NetError(NetErrorCode::kTimedOut,
                          "accept timed out after " +
                              std::to_string(so_timeout_.count()) + "ms");
    }
    return conn;
  };
  if (!vm_.instrumented()) {
    try {
      auto conn = timed_accept();
      return std::unique_ptr<Socket>(new Socket(vm_, std::move(conn), false));
    } catch (const net::NetError& e) {
      throw_socket_exception(e.code(), "accept");
    }
  }
  NetEvent ev(vm_, EventKind::kSockAccept, this);

  if (vm_.mode() == Mode::kRecord) {
    std::shared_ptr<net::TcpConnection> conn;
    bool peer_djvm = false;
    ConnectionId client_id{};
    try {
      // accept is a synchronized call: net-level accept + meta read are
      // serialized per listener.
      std::lock_guard<std::mutex> fd(fd_mutex_);
      conn = timed_accept();  // blocking, outside the GC section
      peer_djvm = vm_.is_djvm_host(conn->remote_address().host);
      if (peer_djvm) {
        std::uint8_t meta[kMetaSize];
        conn->read_fully(meta, kMetaSize);
        client_id = decode_meta({meta, kMetaSize});
        ev.log(client_id);  // the ServerSocketEntry <serverId,clientId>
      } else {
        ev.log(net::pack_address(conn->remote_address()));  // open world
      }
    } catch (const net::NetError& err) {
      ev.fail(err.code(), "accept");
    }
    vm_.mark_event(EventKind::kSockAccept,
                   peer_djvm ? conn_id_aux(client_id) : 0, this);
    return std::unique_ptr<Socket>(
        new Socket(vm_, std::move(conn), peer_djvm));
  }

  // Replay.
  ev.replay("accept");
  const ConnectionId* recorded_id = ev.conn_id();
  if (recorded_id == nullptr) {
    // Open-world peer: virtual socket fed from recorded content.
    net::SocketAddress remote = net::unpack_address(ev.value());
    vm_.mark_event(EventKind::kSockAccept, 0, this);
    return std::unique_ptr<Socket>(new Socket(vm_, remote, true));
  }
  const ConnectionId want = *recorded_id;
  auto conn = pool_.await(want, [&]() {
    auto c = listener_->accept();
    if (!vm_.is_djvm_host(c->remote_address().host)) {
      vm_.replay_divergence(
          EventKind::kSockAccept,
          "connection from a non-DJVM host arrived during closed-scheme "
          "replay",
          this);
    }
    std::uint8_t meta[kMetaSize];
    c->read_fully(meta, kMetaSize);
    return std::make_pair(decode_meta({meta, kMetaSize}), std::move(c));
  });
  vm_.mark_event(EventKind::kSockAccept, conn_id_aux(want), this);
  return std::unique_ptr<Socket>(new Socket(vm_, std::move(conn), true));
}

}  // namespace djvu::vm
