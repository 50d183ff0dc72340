// Shared helpers for the test suite.
#pragma once

#include <chrono>
#include <string>
#include <thread>

#include "vm/exceptions.h"
#include "vm/socket_api.h"

namespace djvu::testutil {

/// Connects with retry-on-refused, the idiom a real client uses when the
/// server may not be listening yet.  Failed attempts are genuine recorded
/// events, replayed from the log.
inline std::unique_ptr<vm::Socket> connect_retry(vm::Vm& v,
                                                 net::SocketAddress addr,
                                                 int max_attempts = 2000) {
  for (int i = 0;; ++i) {
    try {
      return std::make_unique<vm::Socket>(v, addr);
    } catch (const vm::ConnectException&) {
      if (i >= max_attempts) throw;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

/// Waits until `ready()` holds, polling the simulated network the way
/// connect_retry polls a listener; throws if it never does.  Replay skips
/// the wait: its reliable layer retransmits until a late receiver is bound
/// or has joined, and that path stays exercised.  The polls are not
/// instrumented events, so nothing is recorded.
template <typename Ready>
inline void await_network(vm::Vm& v, Ready ready, const char* what) {
  if (v.mode() == vm::Mode::kReplay) return;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!ready()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      throw Error(std::string("timed out waiting for ") + what);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

/// Waits until a UDP port has been bound at `addr`.  A datagram sent to an
/// unbound port vanishes, so a sender whose receiver must see its first
/// datagrams waits for the receiver's bind instead of racing VM start-up.
/// A receiver that has already read enough from other senders and closed
/// counts as bound, so a late sender does not wait for it.
inline void await_udp_bound(vm::Vm& v, net::SocketAddress addr) {
  await_network(
      v, [&] { return v.network().udp_was_bound(addr); },
      "a UDP port to be bound");
}

/// Waits until multicast group `group` has at least `members` members.
inline void await_group_members(vm::Vm& v, net::SocketAddress group,
                                std::size_t members) {
  await_network(
      v, [&] { return v.network().group_members(group).size() >= members; },
      "multicast group members");
}

/// Reads exactly n bytes from a socket's input stream (looping over the
/// partial reads the network produces); throws on premature EOF.
inline Bytes read_exactly(vm::Socket& s, std::size_t n) {
  Bytes out;
  while (out.size() < n) {
    Bytes part = s.input_stream().read(n - out.size());
    if (part.empty()) {
      throw Error("unexpected EOF after " + std::to_string(out.size()) +
                  " bytes");
    }
    append(out, part);
  }
  return out;
}

}  // namespace djvu::testutil
