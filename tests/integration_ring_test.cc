// Larger-topology integration: token ring and fan-in pipeline across five
// VMs, mixing TCP, UDP and shared-memory races — the "many DJVMs" case the
// paper's closed world generalizes to.

#include <gtest/gtest.h>

#include "core/session.h"
#include "tests/test_util.h"
#include "vm/datagram_api.h"
#include "vm/shared_var.h"
#include "vm/socket_api.h"
#include "vm/thread.h"

namespace djvu {
namespace {

using core::Session;
using core::SessionConfig;

// Five VMs in a ring; a token (a counter) circulates twice over TCP; each
// hop multiplies nondeterministically via a local racy pair of threads.
TEST(Ring, TokenRingReplays) {
  constexpr int kNodes = 5;
  constexpr int kRounds = 2;

  SessionConfig cfg;
  cfg.net.connect_delay = {std::chrono::microseconds(0),
                           std::chrono::microseconds(200)};
  cfg.net.segmentation.mss = 3;
  Session s(cfg);

  for (int n = 0; n < kNodes; ++n) {
    const auto host = static_cast<net::HostId>(1 + n);
    const auto next_host = static_cast<net::HostId>(1 + (n + 1) % kNodes);
    const auto port = static_cast<net::Port>(6000 + n);
    const auto next_port = static_cast<net::Port>(6000 + (n + 1) % kNodes);
    s.add_vm("node" + std::to_string(n), host, true,
             [n, host, next_host, port, next_port](vm::Vm& v) {
               vm::ServerSocket listener(v, port);
               vm::SharedVar<std::uint64_t> scratch(v, 1);
               for (int round = 0; round < kRounds; ++round) {
                 std::uint64_t token;
                 if (n == 0 && round == 0) {
                   token = 1;  // node 0 injects the token
                 } else {
                   auto in = listener.accept();
                   Bytes data = testutil::read_exactly(*in, 8);
                   ByteReader r(data);
                   token = r.u64();
                   in->close();
                 }
                 // Local racy perturbation: two threads fold into scratch.
                 {
                   vm::VmThread a(v, [&scratch] {
                     for (int i = 0; i < 10; ++i) {
                       scratch.set(scratch.get() * 3 + 1);
                     }
                   });
                   vm::VmThread b(v, [&scratch] {
                     for (int i = 0; i < 10; ++i) {
                       scratch.set(scratch.get() * 5 + 2);
                     }
                   });
                   a.join();
                   b.join();
                 }
                 token = token * 1000003 + scratch.get();
                 if (n == kNodes - 1 && round == kRounds - 1) {
                   break;  // final holder keeps the token
                 }
                 auto out = testutil::connect_retry(v, {next_host, next_port});
                 ByteWriter w;
                 w.u64(token);
                 out->output_stream().write(w.view());
                 out->close();
               }
               listener.close();
             });
  }

  auto rec = s.record(9);
  auto rep = s.replay(rec, 9999);
  core::verify(rec, rep);
  // Every node's trace replays — the whole-ring causality held.
  for (int n = 0; n < kNodes; ++n) {
    EXPECT_EQ(rec.vm("node" + std::to_string(n)).trace_digest,
              rep.vm("node" + std::to_string(n)).trace_digest);
  }
}

// Fan-in pipeline: three producers stream over UDP to an aggregator that
// relays a digest over TCP to a sink; faults on the UDP leg.
TEST(Ring, FanInPipelineReplays) {
  SessionConfig cfg;
  cfg.net.udp.loss_prob = 0.2;
  cfg.net.udp.dup_prob = 0.1;
  cfg.net.udp.delay = {std::chrono::microseconds(0),
                       std::chrono::microseconds(250)};
  Session s(cfg);

  s.add_vm("sink", 5, true, [](vm::Vm& v) {
    vm::ServerSocket listener(v, 7000);
    auto sock = listener.accept();
    Bytes digest = testutil::read_exactly(*sock, 8);
    vm::SharedVar<std::uint64_t> seen(v, 0);
    ByteReader r(digest);
    seen.set(r.u64());
    sock->close();
    listener.close();
  });

  s.add_vm("aggregator", 4, true, [](vm::Vm& v) {
    vm::DatagramSocket udp(v, 7100);
    std::uint64_t digest = 0;
    for (int i = 0; i < 12; ++i) {  // first 12 deliveries, whatever they are
      vm::DatagramPacket p = udp.receive();
      digest = digest * 131 + p.data.at(0);
    }
    udp.close();
    auto sock = testutil::connect_retry(v, {5, 7000});
    ByteWriter w;
    w.u64(digest);
    sock->output_stream().write(w.view());
    sock->close();
  });

  for (int p = 0; p < 3; ++p) {
    s.add_vm("producer" + std::to_string(p), static_cast<net::HostId>(1 + p),
             true, [p](vm::Vm& v) {
               vm::DatagramSocket udp(
                   v, static_cast<net::Port>(7200 + p));
               testutil::await_udp_bound(v, {4, 7100});
               for (int i = 0; i < 10; ++i) {
                 vm::DatagramPacket packet;
                 packet.address = {4, 7100};
                 packet.data = {static_cast<std::uint8_t>(p * 40 + i)};
                 udp.send(packet);
               }
               udp.close();
             });
  }

  auto rec = s.record(33);
  auto rep = s.replay(rec, 44);
  core::verify(rec, rep);
}

// Many client VMs hammering one server VM: scheduling pressure across 6
// VMs on one core.
TEST(Ring, ManyClientsOneServerReplays) {
  constexpr int kClients = 5;
  SessionConfig cfg;
  cfg.net.connect_delay = {std::chrono::microseconds(0),
                           std::chrono::microseconds(300)};
  cfg.tuning.chaos_prob = 0.05;
  Session s(cfg);

  s.add_vm("server", 1, true, [&](vm::Vm& v) {
    vm::ServerSocket listener(v, 8000);
    vm::SharedVar<std::uint64_t> total(v, 0);
    std::vector<vm::VmThread> workers;
    for (int t = 0; t < 3; ++t) {
      workers.emplace_back(v, [&v, &listener, &total] {
        for (int c = 0; c < kClients * 2 / 2; ++c) {
          auto sock = listener.accept();
          Bytes b = testutil::read_exactly(*sock, 1);
          total.set(total.get() + b[0]);
          sock->output_stream().write(b);
          sock->close();
        }
      });
    }
    for (auto& w : workers) w.join();
    listener.close();
  });
  for (int c = 0; c < kClients; ++c) {
    s.add_vm("client" + std::to_string(c), static_cast<net::HostId>(2 + c),
             true, [c](vm::Vm& v) {
               for (int i = 0; i < 3; ++i) {
                 auto sock = testutil::connect_retry(v, {1, 8000});
                 sock->output_stream().write(
                     Bytes{static_cast<std::uint8_t>(c + 1)});
                 testutil::read_exactly(*sock, 1);
                 sock->close();
               }
             });
  }

  auto rec = s.record(77);
  auto rep = s.replay(rec, 78);
  core::verify(rec, rep);
}

}  // namespace
}  // namespace djvu
