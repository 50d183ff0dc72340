// Addressing for the simulated network.
//
// A "host" models one machine on the LAN (typically one per Vm, though
// several Vms may share a host just like several JVMs share a machine in the
// paper's experiments).  A SocketAddress is a <host, port> pair, exactly the
// shape Java's InetSocketAddress exposes to applications.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

namespace djvu::net {

/// Identifies a simulated machine on the network.
using HostId = std::uint32_t;

/// TCP/UDP port number.
using Port = std::uint16_t;

/// First port handed out by the ephemeral allocator (IANA convention).
inline constexpr Port kEphemeralBase = 49152;

/// <host, port> endpoint address.
struct SocketAddress {
  HostId host = 0;
  Port port = 0;

  friend auto operator<=>(const SocketAddress&, const SocketAddress&) = default;
};

/// Packs an address into one u64, host above the 16-bit port: the value
/// network logs and trace aux fields record, so it must never change.
inline constexpr std::uint64_t pack_address(SocketAddress a) {
  return (std::uint64_t{a.host} << 16) | a.port;
}

inline constexpr SocketAddress unpack_address(std::uint64_t v) {
  return {static_cast<HostId>(v >> 16), static_cast<Port>(v & 0xffff)};
}

/// "h<host>:<port>" rendering for diagnostics.
inline std::string to_string(const SocketAddress& a) {
  std::string out = "h";
  out += std::to_string(a.host);
  out += ':';
  out += std::to_string(a.port);
  return out;
}

}  // namespace djvu::net

template <>
struct std::hash<djvu::net::SocketAddress> {
  std::size_t operator()(const djvu::net::SocketAddress& a) const noexcept {
    return std::hash<std::uint64_t>{}(djvu::net::pack_address(a));
  }
};
