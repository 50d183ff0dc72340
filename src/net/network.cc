#include "net/network.h"

#include <thread>
#include <vector>

namespace djvu::net {

Network::Network(NetworkConfig config)
    : faults_(std::make_shared<FaultSource>(config)) {}

Network::~Network() { shutdown(); }

std::shared_ptr<TcpListener> Network::listen(SocketAddress addr,
                                             int backlog) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (shutdown_) {
    throw NetError(NetErrorCode::kNetworkShutdown, "listen after shutdown");
  }
  if (addr.port == 0) addr.port = allocate_ephemeral_locked(addr.host);
  if (listeners_.contains(addr) || udp_ports_.contains(addr)) {
    throw NetError(NetErrorCode::kAddressInUse,
                   "listen on " + to_string(addr));
  }
  auto listener = std::make_shared<TcpListener>(addr, backlog);
  listeners_.emplace(addr, listener);
  return listener;
}

std::shared_ptr<TcpConnection> Network::connect(HostId from_host,
                                                SocketAddress to) {
  // Variable network delay before the connection request reaches the
  // listener: this is the paper's Fig. 1 source of nondeterminism — which
  // server thread's accept pairs with which client is a race.
  Duration delay = faults_->draw_connect_delay();
  if (delay.count() > 0) std::this_thread::sleep_for(delay);

  std::shared_ptr<TcpListener> listener;
  SocketAddress client_addr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) {
      throw NetError(NetErrorCode::kNetworkShutdown, "connect after shutdown");
    }
    auto it = listeners_.find(to);
    if (it == listeners_.end() || it->second->closed()) {
      throw NetError(NetErrorCode::kConnectionRefused,
                     "connect to " + to_string(to));
    }
    listener = it->second;
    client_addr = SocketAddress{from_host, allocate_ephemeral_locked(from_host)};
  }

  auto client_to_server = std::make_shared<HalfPipe>(faults_);
  auto server_to_client = std::make_shared<HalfPipe>(faults_);
  auto client_end = std::make_shared<TcpConnection>(
      server_to_client, client_to_server, client_addr, to);
  auto server_end = std::make_shared<TcpConnection>(
      client_to_server, server_to_client, to, client_addr);
  if (!listener->enqueue(std::move(server_end))) {
    throw NetError(NetErrorCode::kConnectionRefused,
                   "backlog full at " + to_string(to));
  }
  return client_end;
}

void Network::unlisten(SocketAddress addr) {
  std::lock_guard<std::mutex> lock(mutex_);
  listeners_.erase(addr);
}

std::shared_ptr<UdpPort> Network::udp_bind(SocketAddress addr) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (shutdown_) {
    throw NetError(NetErrorCode::kNetworkShutdown, "bind after shutdown");
  }
  if (addr.port == 0) addr.port = allocate_ephemeral_locked(addr.host);
  if (udp_ports_.contains(addr) || listeners_.contains(addr)) {
    throw NetError(NetErrorCode::kAddressInUse, "bind " + to_string(addr));
  }
  auto port = std::make_shared<UdpPort>(this, addr);
  udp_ports_.emplace(addr, port);
  udp_ever_bound_.insert(addr);
  return port;
}

void Network::udp_unbind(SocketAddress addr) {
  std::lock_guard<std::mutex> lock(mutex_);
  udp_ports_.erase(addr);
}

void Network::route_datagram(SocketAddress from, SocketAddress dest,
                             BytesView payload) {
  if (payload.size() > config().max_datagram) {
    throw NetError(NetErrorCode::kMessageTooLarge,
                   std::to_string(payload.size()) + " > max " +
                       std::to_string(config().max_datagram));
  }

  // Resolve destinations under the lock, deliver outside it.
  std::vector<std::shared_ptr<UdpPort>> targets;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) return;  // packets on a dead network vanish
    if (is_multicast(dest)) {
      auto git = groups_.find(dest);
      if (git != groups_.end()) {
        for (const SocketAddress& member : git->second) {
          auto pit = udp_ports_.find(member);
          if (pit != udp_ports_.end()) targets.push_back(pit->second);
        }
      }
    } else {
      auto pit = udp_ports_.find(dest);
      if (pit != udp_ports_.end()) targets.push_back(pit->second);
      // No listener: like real UDP the datagram silently disappears (the
      // ICMP port-unreachable path is not modelled).
    }
  }

  auto now = std::chrono::steady_clock::now();
  for (const auto& target : targets) {
    // Per-destination independent fault draws, as on a real shared medium.
    if (faults_->draw_udp_loss()) continue;
    int copies = faults_->draw_udp_dup() ? 2 : 1;
    for (int i = 0; i < copies; ++i) {
      Datagram dg;
      dg.source = from;
      dg.payload.assign(payload.begin(), payload.end());
      target->deliver(std::move(dg), now + faults_->draw_udp_delay());
    }
  }
}

void Network::join_group(SocketAddress group, SocketAddress member) {
  std::lock_guard<std::mutex> lock(mutex_);
  groups_[group].insert(member);
}

void Network::leave_group(SocketAddress group, SocketAddress member) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = groups_.find(group);
  if (it == groups_.end()) return;
  it->second.erase(member);
  if (it->second.empty()) groups_.erase(it);
}

bool Network::udp_was_bound(SocketAddress addr) {
  std::lock_guard<std::mutex> lock(mutex_);
  return udp_ever_bound_.contains(addr);
}

std::vector<SocketAddress> Network::group_members(SocketAddress group) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SocketAddress> out;
  auto it = groups_.find(group);
  if (it != groups_.end()) out.assign(it->second.begin(), it->second.end());
  return out;
}

Port Network::allocate_ephemeral(HostId host) {
  std::lock_guard<std::mutex> lock(mutex_);
  return allocate_ephemeral_locked(host);
}

Port Network::allocate_ephemeral_locked(HostId host) {
  Port p = next_ephemeral_.contains(host) ? next_ephemeral_[host]
                                          : kEphemeralBase;
  // Skip ports already occupied by explicit binds.
  while (listeners_.contains({host, p}) || udp_ports_.contains({host, p})) {
    ++p;
  }
  next_ephemeral_[host] = static_cast<Port>(p + 1);
  return p;
}

void Network::shutdown() {
  std::unordered_map<SocketAddress, std::shared_ptr<TcpListener>> listeners;
  std::unordered_map<SocketAddress, std::shared_ptr<UdpPort>> ports;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) return;
    shutdown_ = true;
    listeners.swap(listeners_);
    ports.swap(udp_ports_);
    groups_.clear();
  }
  for (auto& [addr, listener] : listeners) listener->close();
  // UdpPort::close() calls back into udp_unbind(), which is now a no-op on
  // the empty map; safe because we dropped the lock.
  for (auto& [addr, port] : ports) port->close();
}

}  // namespace djvu::net
