// The simulated LAN: host/port registries, TCP connection establishment,
// UDP routing and multicast group membership.
//
// One Network instance models the physical network shared by all the
// machines (hosts) in one experiment.  Several Vms attach to it, each on its
// own host (or sharing a host, like the paper's two-DJVMs-on-one-ThinkPad
// setup — host placement is orthogonal to the replay machinery).
#pragma once

#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "net/address.h"
#include "net/fault_model.h"
#include "net/tcp.h"
#include "net/udp.h"

namespace djvu::net {

/// Multicast group addresses occupy hosts >= kMulticastHostBase (the
/// simulated analogue of the 224.0.0.0/4 class-D range).
inline constexpr HostId kMulticastHostBase = 0xE0000000u;

/// True when `a` addresses a multicast group rather than a host.
inline bool is_multicast(const SocketAddress& a) {
  return a.host >= kMulticastHostBase;
}

/// The shared simulated network.  All methods are thread-safe.
class Network {
 public:
  explicit Network(NetworkConfig config = {});
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- TCP -----------------------------------------------------------------

  /// Registers a listener on `addr` (port 0 picks an ephemeral port).
  /// Throws kAddressInUse if the port is taken.
  std::shared_ptr<TcpListener> listen(SocketAddress addr, int backlog = 64);

  /// Establishes a connection from a host to a listening address.  Applies
  /// a variable connect delay *before* joining the backlog, so concurrent
  /// connects race (Fig. 1).  Throws kConnectionRefused when nothing
  /// listens at `to`, kNetworkShutdown after shutdown().
  std::shared_ptr<TcpConnection> connect(HostId from_host, SocketAddress to);

  /// Removes a listener registration (called on ServerSocket close).  New
  /// connects to the address fail with kConnectionRefused.
  void unlisten(SocketAddress addr);

  // --- UDP / multicast -------------------------------------------------------

  /// Binds a UDP port (port 0 picks an ephemeral port).  Throws
  /// kAddressInUse if taken.
  std::shared_ptr<UdpPort> udp_bind(SocketAddress addr);

  /// Unbinds (called by UdpPort::close()).
  void udp_unbind(SocketAddress addr);

  /// True once a UDP port has been bound at `addr`, even if it has been
  /// closed since.
  bool udp_was_bound(SocketAddress addr);

  /// Routes one datagram, applying loss/dup/delay per destination.
  /// `dest` may be a unicast address or a multicast group address.
  void route_datagram(SocketAddress from, SocketAddress dest,
                      BytesView payload);

  /// Adds `member` to multicast group `group` (idempotent).
  void join_group(SocketAddress group, SocketAddress member);

  /// Removes `member` from `group`.
  void leave_group(SocketAddress group, SocketAddress member);

  /// Current members of `group` (replay-time reliable multicast fans out to
  /// these as unicast).
  std::vector<SocketAddress> group_members(SocketAddress group);

  // --- plumbing ---------------------------------------------------------------

  /// Next free ephemeral port on `host`.
  Port allocate_ephemeral(HostId host);

  /// The shared fault source (used by pipes and tests).
  const std::shared_ptr<FaultSource>& faults() { return faults_; }

  /// Active configuration.
  const NetworkConfig& config() const { return faults_->config(); }

  /// Closes every listener and UDP port; subsequent connects fail with
  /// kNetworkShutdown.  Idempotent; also run by the destructor.
  void shutdown();

 private:
  /// Ephemeral allocation with mutex_ already held.
  Port allocate_ephemeral_locked(HostId host);

  std::shared_ptr<FaultSource> faults_;
  std::mutex mutex_;
  bool shutdown_ = false;
  std::unordered_map<SocketAddress, std::shared_ptr<TcpListener>> listeners_;
  std::unordered_map<SocketAddress, std::shared_ptr<UdpPort>> udp_ports_;
  std::unordered_set<SocketAddress> udp_ever_bound_;
  std::unordered_map<SocketAddress, std::unordered_set<SocketAddress>>
      groups_;
  std::unordered_map<HostId, Port> next_ephemeral_;
};

}  // namespace djvu::net
