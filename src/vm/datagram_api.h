// Java-like datagram socket API with record/replay interposition (§4.2).
//
// Mirrors java.net: DatagramSocket / DatagramPacket / MulticastSocket.
// send, receive and close are critical events; socket creation records the
// bound port so replay rebinds deterministically.
//
// Record phase (§4.2.2): every datagram sent toward a DJVM host is tagged
// with its DGnetworkEventId <dJVMId, dJVMgc> as trailing meta data (split
// into front/rear fragments when the tag would exceed the network's maximum
// datagram size); the receiver strips the tag and logs
// <ReceiverGCounter, datagramId> per delivery — including duplicates.
//
// Replay phase (§4.2.3): sends go through the pseudo-reliable UDP layer;
// receives are served by the DatagramReplayer in recorded order, dropping
// datagrams that were not delivered during record and replaying recorded
// duplicates from the buffer.
//
// Open-world scheme: datagrams to non-DJVM hosts are sent raw during record
// and not sent at all during replay; datagrams from non-DJVM hosts are
// content-logged and served from the log during replay.
#pragma once

#include <chrono>
#include <memory>
#include <mutex>

#include "common/bytes.h"
#include "net/network.h"
#include "replay/datagram_frame.h"
#include "replay/datagram_replay.h"
#include "replay/reliable_udp.h"
#include "vm/exceptions.h"
#include "vm/vm.h"

namespace djvu::vm {

/// Analogue of java.net.DatagramPacket.
struct DatagramPacket {
  /// Payload bytes.
  Bytes data;

  /// Destination (send) or source (receive) address.  For a multicast send
  /// this is the group address.
  net::SocketAddress address;
};

/// Analogue of java.net.DatagramSocket.
class DatagramSocket : public Conflict {
 public:
  /// Creates and binds (kUdpCreate; the bound port is recorded).  `port` 0
  /// picks an ephemeral port during record; replay rebinds the recorded
  /// one.
  DatagramSocket(Vm& vm, net::Port port = 0);

  /// Quiet release, no events (call close() for the application-visible
  /// close event).
  virtual ~DatagramSocket();
  DatagramSocket(const DatagramSocket&) = delete;
  DatagramSocket& operator=(const DatagramSocket&) = delete;

  /// Sends one datagram (kUdpSend, blocking-free).  Throws SocketException
  /// (kMessageTooLarge) when the payload cannot fit even after splitting.
  void send(const DatagramPacket& packet);

  /// Receives one datagram (kUdpReceive, blocking).
  DatagramPacket receive();

  /// Application-visible close (kUdpClose).  During replay the physical
  /// close is deferred to destruction so in-flight retransmissions to other
  /// sockets are unaffected.
  void close();

  /// SO_TIMEOUT for receive (Java DatagramSocket.setSoTimeout): a receive
  /// with no datagram within the timeout throws SocketTimeoutException —
  /// recorded and re-thrown like any network exception.  Zero disables.
  void set_so_timeout(std::chrono::milliseconds timeout) {
    so_timeout_ = timeout;
  }

  /// Bound address (recorded port during replay).
  net::SocketAddress local_address() const { return local_; }

 protected:
  /// Maximum application payload this socket can carry after reserving the
  /// tag and reliable-layer trailers, with splitting.
  std::size_t max_app_payload() const;

  /// Per-fragment application-byte capacity.
  std::size_t fragment_capacity() const;

  /// Sends the already-built frame, via the reliable layer in replay.
  void send_frame(net::SocketAddress dest, BytesView frame);

  /// Record-phase blocking fetch of one complete (reassembled) tagged
  /// datagram from a DJVM peer, or a raw datagram from an open-world peer.
  struct FetchResult {
    bool tagged = false;
    DgNetworkEventId id{};
    Bytes payload;
    net::SocketAddress source{};
  };
  FetchResult fetch_record();

  /// Replay-phase blocking fetch of one complete tagged datagram.
  std::pair<DgNetworkEventId, Bytes> fetch_replay();

  Vm& vm_;
  std::shared_ptr<net::UdpPort> port_;
  std::unique_ptr<replay::ReliableUdp> rel_;  // replay mode only
  std::unique_ptr<replay::DatagramReplayer> replayer_;  // replay mode only
  replay::DatagramAssembler assembler_;  // guarded by recv_mutex_
  std::mutex recv_mutex_;                // FD-critical section, receive side
  net::SocketAddress local_{};
  std::chrono::milliseconds so_timeout_{0};  // 0 = no timeout
  bool closed_ = false;
};

/// Analogue of java.net.MulticastSocket.
class MulticastSocket : public DatagramSocket {
 public:
  MulticastSocket(Vm& vm, net::Port port = 0) : DatagramSocket(vm, port) {}

  /// Joins a multicast group (kMcastJoin).  During replay the join executes
  /// eagerly so reliable retransmission can reach this socket as soon as the
  /// membership exists.
  void join_group(net::SocketAddress group);

  /// Leaves a group (kMcastLeave).  During replay the physical leave is
  /// deferred to close/destruction (extra deliveries are ignored by the
  /// replayer; missing ones would deadlock it).
  void leave_group(net::SocketAddress group);
};

}  // namespace djvu::vm
