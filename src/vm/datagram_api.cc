#include "vm/datagram_api.h"

#include <cstdint>
#include <cstring>

#include "common/crc32.h"
#include "vm/net_event.h"

namespace djvu::vm {
namespace {

using sched::EventKind;

}  // namespace

DatagramSocket::DatagramSocket(Vm& vm, net::Port port) : vm_(vm) {
  const auto op = [port] { return "udp bind port " + std::to_string(port); };
  if (!vm_.instrumented()) {
    try {
      port_ = vm_.network().udp_bind({vm_.host(), port});
    } catch (const net::NetError& e) {
      throw_socket_exception(e.code(), op());
    }
    local_ = port_->address();
    return;
  }
  NetEvent ev(vm_, EventKind::kUdpCreate, this);

  if (vm_.mode() == Mode::kRecord) {
    try {
      port_ = vm_.network().udp_bind({vm_.host(), port});
    } catch (const net::NetError& err) {
      ev.fail(err.code(), op);
    }
    local_ = port_->address();
    ev.log(local_.port);  // recorded port, rebound during replay
    vm_.mark_event(EventKind::kUdpCreate, local_.port, this);
    return;
  }

  // Replay: rebind the recorded port and bring up the reliable layer.
  ev.replay(op);
  auto recorded_port = static_cast<net::Port>(ev.value());
  try {
    port_ = vm_.network().udp_bind({vm_.host(), recorded_port});
  } catch (const net::NetError& err) {
    vm_.replay_divergence(
        EventKind::kUdpCreate,
        std::string("recorded udp bind failed during replay: ") + err.what(),
        this);
  }
  local_ = port_->address();
  rel_ = std::make_unique<replay::ReliableUdp>(port_, &vm_.network());
  // Bound the replay buffer's residency (§4.2.3): the replayer prunes an
  // entry after its last recorded delivery and drops arrivals the log never
  // names.  The counts are VM-wide — an over-approximation only when two
  // sockets of this VM received the same multicast datagram, which retains
  // (never starves) and stays bounded by the log.
  replayer_ = std::make_unique<replay::DatagramReplayer>(
      vm_.replay_log()->network.datagram_deliveries());
  vm_.mark_event(EventKind::kUdpCreate, local_.port, this);
}

DatagramSocket::~DatagramSocket() {
  if (rel_) {
    // Replay: stay alive until peers have acked everything we sent —
    // replay-time losses are repaired by retransmission, and a receiver may
    // still be waiting for one of our recorded datagrams.
    rel_->drain(std::chrono::seconds(5));
    rel_->close();
  } else if (port_) {
    port_->close();
  }
}

std::size_t DatagramSocket::fragment_capacity() const {
  const std::size_t max = vm_.network().config().max_datagram;
  const std::size_t reserve =
      replay::kTagTrailerSize + replay::kRelTrailerSize;
  return max > reserve ? max - reserve : 0;
}

std::size_t DatagramSocket::max_app_payload() const {
  return 2 * fragment_capacity();  // split into at most two fragments
}

void DatagramSocket::send_frame(net::SocketAddress dest, BytesView frame) {
  if (rel_) {
    rel_->send(dest, frame);
  } else {
    port_->send_to(dest, frame);
  }
}

void DatagramSocket::send(const DatagramPacket& packet) {
  if (!vm_.instrumented()) {
    try {
      port_->send_to(packet.address, packet.data);
    } catch (const net::NetError& e) {
      throw_socket_exception(e.code(), "udp send");
    }
    return;
  }
  NetEvent ev(vm_, EventKind::kUdpSend, this);

  // Per-destination scheme choice (§5): tagged toward DJVM hosts and
  // multicast groups (whose members are DJVMs in a closed world), raw
  // toward non-DJVM hosts.
  const bool tagged = net::is_multicast(packet.address) ||
                      vm_.is_djvm_host(packet.address.host);

  auto run = [&]() {
    vm_.critical_event(
        EventKind::kUdpSend,
        [&](GlobalCount gc) {
          if (tagged) {
            if (packet.data.size() > max_app_payload()) {
              throw net::NetError(NetErrorCode::kMessageTooLarge,
                                  "payload of " +
                                      std::to_string(packet.data.size()) +
                                      " bytes cannot fit in two fragments");
            }
            // "the sender DJVM ... inserts the DGnetworkEventId of the send
            // event at the end of the data segment" — the id is
            // <dJVMId, dJVMgc>, reproduced in replay because gc is enforced.
            DgNetworkEventId id{vm_.vm_id(), gc};
            if (packet.data.size() + replay::kTagTrailerSize +
                    replay::kRelTrailerSize <=
                vm_.network().config().max_datagram) {
              send_frame(packet.address,
                         replay::encode_tagged(id, packet.data));
            } else {
              auto [front, rear] = replay::encode_split(id, packet.data,
                                                        fragment_capacity());
              send_frame(packet.address, front);
              send_frame(packet.address, rear);
            }
          } else if (vm_.mode() == Mode::kRecord) {
            // Open-world destination: raw during record, nothing during replay
            // ("need not be sent again").
            port_->send_to(packet.address, packet.data);
          }
          return crc32(packet.data);
        },
        0, this);
  };

  if (vm_.mode() == Mode::kRecord) {
    try {
      run();
    } catch (const net::NetError& err) {
      // The event already ticked inside its section; log the exception.
      ev.fail_in_section(err.code(), "udp send");
    }
    return;
  }
  // Replay: recorded failures re-throw without executing.
  ev.replay("udp send", NetEvent::Logs::kFailuresOnly);
  try {
    run();
  } catch (const net::NetError& err) {
    vm_.replay_divergence(
        EventKind::kUdpSend,
        std::string("recorded-successful udp send failed during replay: ") +
            err.what(),
        this);
  }
}

DatagramSocket::FetchResult DatagramSocket::fetch_record() {
  // SO_TIMEOUT covers the whole fetch (including split reassembly).
  const bool timed = so_timeout_.count() > 0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<net::Duration>(so_timeout_);
  for (;;) {
    net::Datagram raw;
    if (timed) {
      auto remaining = std::chrono::duration_cast<net::Duration>(
          deadline - std::chrono::steady_clock::now());
      auto got = remaining.count() > 0 ? port_->receive_for(remaining)
                                       : std::nullopt;
      if (!got) {
        throw net::NetError(NetErrorCode::kTimedOut,
                            "receive timed out after " +
                                std::to_string(so_timeout_.count()) + "ms");
      }
      raw = std::move(*got);
    } else {
      raw = port_->receive();  // blocking, outside GC section
    }
    if (!vm_.is_djvm_host(raw.source.host)) {
      FetchResult out;
      out.tagged = false;
      out.payload = std::move(raw.payload);
      out.source = raw.source;
      return out;
    }
    replay::DecodedTag tag = replay::decode_tagged(raw.payload);
    auto complete = assembler_.feed(std::move(tag));
    if (!complete) continue;  // waiting for the other split half
    FetchResult out;
    out.tagged = true;
    out.id = complete->id;
    out.payload = std::move(complete->payload);
    out.source = raw.source;
    return out;
  }
}

std::pair<DgNetworkEventId, Bytes> DatagramSocket::fetch_replay() {
  for (;;) {
    net::Datagram dg = rel_->receive();  // exactly-once, unwrapped DATA
    replay::DecodedTag tag = replay::decode_tagged(dg.payload);
    auto complete = assembler_.feed(std::move(tag));
    if (!complete) continue;
    return {complete->id, std::move(complete->payload)};
  }
}

DatagramPacket DatagramSocket::receive() {
  if (!vm_.instrumented()) {
    try {
      if (so_timeout_.count() > 0) {
        auto got = port_->receive_for(
            std::chrono::duration_cast<net::Duration>(so_timeout_));
        if (!got) {
          throw SocketTimeoutException("udp receive");
        }
        return {std::move(got->payload), got->source};
      }
      net::Datagram raw = port_->receive();
      return {std::move(raw.payload), raw.source};
    } catch (const net::NetError& e) {
      throw_socket_exception(e.code(), "udp receive");
    }
  }
  NetEvent ev(vm_, EventKind::kUdpReceive, this);

  if (vm_.mode() == Mode::kRecord) {
    FetchResult got;
    try {
      std::lock_guard<std::mutex> fd(recv_mutex_);
      got = fetch_record();
    } catch (const net::NetError& err) {
      ev.fail(err.code(), "udp receive");
    }
    const std::uint64_t source = net::pack_address(got.source);
    if (got.tagged) {
      // The RecordedDatagramLog entry <ReceiverGCounter, datagramId>; the
      // gc component is the mark below.
      ev.log(source, got.id);
    } else {
      ev.log(source, got.payload);  // open-world content
    }
    vm_.mark_event(EventKind::kUdpReceive, crc32(got.payload), this);
    return {std::move(got.payload), got.source};
  }

  // Replay.
  ev.replay("udp receive");
  const net::SocketAddress source = net::unpack_address(ev.value());
  if (const Bytes* d = ev.data()) {
    // Open-world source: recorded content, no network.
    vm_.mark_event(EventKind::kUdpReceive, crc32(*d), this);
    return {*d, source};
  }
  const DgNetworkEventId want = ev.dg_id();
  // Turn-first; under interval leasing this may be lease-local (no await).
  // Blocking on the reliable layer inside a lease is safe for the same
  // reason as Socket::do_read: the awaited datagram comes from a peer VM,
  // never from a thread parked on this VM's counter.
  vm_.replay_turn_begin(EventKind::kUdpReceive, this);
  Bytes payload;
  {
    std::lock_guard<std::mutex> fd(recv_mutex_);
    try {
      payload = replayer_->await(want, [&] { return fetch_replay(); });
    } catch (const net::NetError& err) {
      vm_.replay_divergence(
          EventKind::kUdpReceive,
          std::string("replay udp receive failed: ") + err.what(), this);
    }
  }
  vm_.replay_turn_end(EventKind::kUdpReceive, crc32(payload));
  return {std::move(payload), source};
}

void DatagramSocket::close() {
  if (closed_) return;
  closed_ = true;
  if (!vm_.instrumented()) {
    port_->close();
    return;
  }
  sched::ThreadState& st = vm_.current_state();
  st.take_network_event_num();
  vm_.critical_event(
      EventKind::kUdpClose,
      [&](GlobalCount) {
        if (vm_.mode() == Mode::kRecord) {
          port_->close();
        }
        // Replay: physical close deferred to destruction (header comment).
        return std::uint64_t{0};
      },
      0, this);
}

void MulticastSocket::join_group(net::SocketAddress group) {
  if (!vm_.instrumented()) {
    vm_.network().join_group(group, local_address());
    return;
  }
  sched::ThreadState& st = vm_.current_state();
  st.take_network_event_num();
  if (vm_.mode() == Mode::kReplay) {
    // Eager join (before the mark): reliable retransmission starts reaching
    // this socket as soon as membership exists.
    vm_.network().join_group(group, local_address());
    vm_.mark_event(EventKind::kMcastJoin, net::pack_address(group), this);
    return;
  }
  vm_.critical_event(
      EventKind::kMcastJoin,
      [&](GlobalCount) {
        vm_.network().join_group(group, local_address());
        return net::pack_address(group);
      },
      0, this);
}

void MulticastSocket::leave_group(net::SocketAddress group) {
  if (!vm_.instrumented()) {
    vm_.network().leave_group(group, local_address());
    return;
  }
  sched::ThreadState& st = vm_.current_state();
  st.take_network_event_num();
  vm_.critical_event(
      EventKind::kMcastLeave,
      [&](GlobalCount) {
        if (vm_.mode() == Mode::kRecord) {
          vm_.network().leave_group(group, local_address());
        }
        // Replay: deferred (extra deliveries are ignored; a premature leave
        // could starve the replayer).
        return net::pack_address(group);
      },
      0, this);
}

}  // namespace djvu::vm
