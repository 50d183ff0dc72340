// Open-world and mixed-world record/replay (§5).
//
// Open world: exactly one component runs on a DJVM; its network inputs are
// fully content-logged and replay never touches the network (the peers do
// not even run during replay).
//
// Mixed world: DJVM peers get the closed-world scheme, non-DJVM peers the
// open-world scheme, per connection.

#include <gtest/gtest.h>

#include "core/session.h"
#include "tests/test_util.h"
#include "vm/datagram_api.h"
#include "vm/shared_var.h"
#include "vm/thread.h"

namespace djvu {
namespace {

using core::Session;
using core::SessionConfig;

SessionConfig net_cfg(std::uint64_t seed) {
  SessionConfig cfg;
  cfg.net.seed = seed;
  cfg.net.connect_delay = {std::chrono::microseconds(0),
                           std::chrono::microseconds(300)};
  cfg.net.stream_delay = {std::chrono::microseconds(0),
                          std::chrono::microseconds(100)};
  cfg.net.segmentation.mss = 6;
  return cfg;
}

// Open world, DJVM client: the server is a plain VM that transforms data;
// the client's reads are content-logged and replayed without the server.
TEST(OpenWorld, DjvmClientAgainstPlainServer) {
  Session s(net_cfg(40));
  s.add_vm("server", 1, /*djvm=*/false, [](vm::Vm& v) {
    vm::ServerSocket listener(v, 5500);
    for (int i = 0; i < 2; ++i) {
      auto sock = listener.accept();
      Bytes msg = testutil::read_exactly(*sock, 4);
      for (auto& b : msg) b = static_cast<std::uint8_t>(b + 1);
      sock->output_stream().write(msg);
      sock->close();
    }
    listener.close();
  });
  s.add_vm("client", 2, /*djvm=*/true, [](vm::Vm& v) {
    for (int i = 0; i < 2; ++i) {
      auto sock = testutil::connect_retry(v, {1, 5500});
      sock->output_stream().write(to_bytes("abc" + std::string(1, '0' + i)));
      Bytes reply = testutil::read_exactly(*sock, 4);
      EXPECT_EQ(to_string(reply), "bcd" + std::string(1, '1' + i));
      sock->close();
    }
  });

  auto rec = s.record(1);
  // During replay the plain server does not run at all; everything the
  // client reads comes from the content log.
  auto rep = s.replay(rec, 2);
  core::verify(rec, rep);

  // The open-world log must contain the reply contents.
  ASSERT_TRUE(rec.vm("client").log.has_value());
  EXPECT_GT(rec.vm("client").log->network.content_bytes(), 0u);
}

// Open world, DJVM server: plain clients connect; the server's accepts and
// reads are content-logged and replayed virtually.
TEST(OpenWorld, DjvmServerAgainstPlainClients) {
  Session s(net_cfg(41));
  s.add_vm("server", 1, /*djvm=*/true, [](vm::Vm& v) {
    vm::ServerSocket listener(v, 5600);
    vm::SharedVar<std::uint64_t> sum(v, 0);
    for (int i = 0; i < 3; ++i) {
      auto sock = listener.accept();
      EXPECT_TRUE(v.mode() != vm::Mode::kReplay || sock->is_virtual());
      Bytes msg = testutil::read_exactly(*sock, 2);
      sum.set(sum.get() + msg[0] + msg[1]);
      sock->output_stream().write(msg);  // dropped during replay
      sock->close();
    }
    listener.close();
  });
  for (int c = 0; c < 3; ++c) {
    s.add_vm("client" + std::to_string(c), 2 + c, /*djvm=*/false,
             [c](vm::Vm& v) {
               auto sock = testutil::connect_retry(v, {1, 5600});
               Bytes msg{static_cast<std::uint8_t>(c),
                         static_cast<std::uint8_t>(c * 7)};
               sock->output_stream().write(msg);
               testutil::read_exactly(*sock, 2);
               sock->close();
             });
  }

  auto rec = s.record(7);
  auto rep = s.replay(rec, 8);
  core::verify(rec, rep);
}

// Mixed world: one DJVM server, one DJVM client (closed scheme) and one
// plain client (open scheme) on the same listener.
TEST(MixedWorld, ClosedAndOpenPeersOnOneListener) {
  Session s(net_cfg(42));
  s.add_vm("server", 1, /*djvm=*/true, [](vm::Vm& v) {
    vm::ServerSocket listener(v, 5700);
    vm::SharedVar<std::uint64_t> fold(v, 0);
    for (int i = 0; i < 4; ++i) {
      auto sock = listener.accept();
      Bytes msg = testutil::read_exactly(*sock, 3);
      fold.set(fold.get() * 131 + msg[0] + msg[1] + msg[2]);
      sock->output_stream().write(to_bytes("ok!"));
      sock->close();
    }
    listener.close();
  });
  s.add_vm("djvm-client", 2, /*djvm=*/true, [](vm::Vm& v) {
    for (int i = 0; i < 2; ++i) {
      auto sock = testutil::connect_retry(v, {1, 5700});
      sock->output_stream().write(to_bytes("DJV"));
      testutil::read_exactly(*sock, 3);
      sock->close();
    }
  });
  s.add_vm("plain-client", 3, /*djvm=*/false, [](vm::Vm& v) {
    for (int i = 0; i < 2; ++i) {
      auto sock = testutil::connect_retry(v, {1, 5700});
      sock->output_stream().write(to_bytes("raw"));
      testutil::read_exactly(*sock, 3);
      sock->close();
    }
  });

  auto rec = s.record(19);
  auto rep = s.replay(rec, 20);
  core::verify(rec, rep);
}

// Mixed world over UDP: the DJVM receiver hears from both a DJVM sender
// (tagged, closed scheme) and a plain sender (raw, content-logged).
TEST(MixedWorld, UdpFromDjvmAndPlainSenders) {
  SessionConfig cfg = net_cfg(43);
  cfg.net.udp.dup_prob = 0.2;
  Session s(cfg);
  s.add_vm("recv", 1, /*djvm=*/true, [](vm::Vm& v) {
    vm::DatagramSocket sock(v, 5800);
    std::uint64_t fold = 0;
    for (int i = 0; i < 8; ++i) {
      vm::DatagramPacket p = sock.receive();
      fold = fold * 31 + p.data.at(0);
    }
    sock.close();
  });
  s.add_vm("djvm-send", 2, /*djvm=*/true, [](vm::Vm& v) {
    vm::DatagramSocket sock(v, 5801);
    testutil::await_udp_bound(v, {1, 5800});
    for (int i = 0; i < 6; ++i) {
      vm::DatagramPacket p;
      p.address = {1, 5800};
      p.data = {static_cast<std::uint8_t>(100 + i)};
      sock.send(p);
    }
    sock.close();
  });
  s.add_vm("plain-send", 3, /*djvm=*/false, [](vm::Vm& v) {
    vm::DatagramSocket sock(v, 5802);
    testutil::await_udp_bound(v, {1, 5800});
    for (int i = 0; i < 6; ++i) {
      vm::DatagramPacket p;
      p.address = {1, 5800};
      p.data = {static_cast<std::uint8_t>(200 + i)};
      sock.send(p);
    }
    sock.close();
  });

  auto rec = s.record(23);
  auto rep = s.replay(rec, 24);
  core::verify(rec, rep);
}

}  // namespace
}  // namespace djvu
