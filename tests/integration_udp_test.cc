// End-to-end closed-world record/replay over datagram sockets, under
// injected loss, duplication and reordering (§4.2).

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

SessionConfig faulty_udp(std::uint64_t seed, double loss, double dup) {
  SessionConfig cfg;
  cfg.net.seed = seed;
  cfg.net.udp.loss_prob = loss;
  cfg.net.udp.dup_prob = dup;
  cfg.net.udp.delay = {std::chrono::microseconds(0),
                       std::chrono::microseconds(300)};
  return cfg;
}

// Sender pushes N datagrams; receiver consumes until it sees a sentinel
// count of deliveries (loss/dup make the delivered multiset
// nondeterministic).  To terminate deterministically regardless of loss,
// the receiver reads a fixed number of datagrams and the sender keeps
// sending until acked at the application level over a side channel — here
// simplified: zero-loss forward channel with duplication+reorder, lossy
// reverse channel unused.
TEST(ClosedWorldUdp, DupAndReorderReplays) {
  constexpr int kDatagrams = 20;
  Session s(faulty_udp(3, /*loss=*/0.0, /*dup=*/0.3));

  s.add_vm("recv", 1, true, [&](vm::Vm& v) {
    vm::DatagramSocket sock(v, 4000);
    vm::SharedVar<std::uint64_t> fold(v, 0);
    // With dup > 0 the receiver may see more than kDatagrams deliveries;
    // consume exactly kDatagrams of them — which ones arrive (and their
    // order) is the nondeterminism under test.
    for (int i = 0; i < kDatagrams; ++i) {
      vm::DatagramPacket p = sock.receive();
      fold.set(fold.get() * 31 + p.data.at(0));
    }
    sock.close();
  });
  s.add_vm("send", 2, true, [&](vm::Vm& v) {
    vm::DatagramSocket sock(v, 4001);
    testutil::await_udp_bound(v, {1, 4000});
    for (int i = 0; i < kDatagrams; ++i) {
      vm::DatagramPacket p;
      p.address = {1, 4000};
      p.data = {static_cast<std::uint8_t>(i)};
      sock.send(p);
    }
    sock.close();
  });

  auto rec = s.record(101);
  auto rep = s.replay(rec, 20202);
  core::verify(rec, rep);
}

TEST(ClosedWorldUdp, LossReplays) {
  // Lossy forward channel: the receiver reads only 5 of 40 sent datagrams;
  // which 5 is nondeterministic and must replay exactly.
  Session s(faulty_udp(9, /*loss=*/0.4, /*dup=*/0.1));

  s.add_vm("recv", 1, true, [&](vm::Vm& v) {
    vm::DatagramSocket sock(v, 4100);
    Bytes seen;
    for (int i = 0; i < 5; ++i) {
      vm::DatagramPacket p = sock.receive();
      seen.push_back(p.data.at(0));
    }
    sock.close();
  });
  s.add_vm("send", 2, true, [&](vm::Vm& v) {
    vm::DatagramSocket sock(v, 4101);
    testutil::await_udp_bound(v, {1, 4100});
    for (int i = 0; i < 40; ++i) {
      vm::DatagramPacket p;
      p.address = {1, 4100};
      p.data = {static_cast<std::uint8_t>(i)};
      sock.send(p);
    }
    sock.close();
  });

  auto rec = s.record(77);
  auto rep = s.replay(rec, 80808);
  core::verify(rec, rep);
}

// Oversized datagrams exercise the split/combine path: shrink the network
// maximum so application payloads must be fragmented (§4.2.2).
TEST(ClosedWorldUdp, SplitDatagramsReplays) {
  SessionConfig cfg = faulty_udp(5, 0.0, 0.2);
  cfg.net.max_datagram = 64;  // tag(13) + rel(9) trailers force splitting

  Session s(cfg);
  s.add_vm("recv", 1, true, [&](vm::Vm& v) {
    vm::DatagramSocket sock(v, 4200);
    for (int i = 0; i < 4; ++i) {
      vm::DatagramPacket p = sock.receive();
      EXPECT_EQ(p.data.size(), 70u);  // larger than one fragment
      for (std::size_t j = 0; j < p.data.size(); ++j) {
        EXPECT_EQ(p.data[j], static_cast<std::uint8_t>(p.data[0] + j));
      }
    }
    sock.close();
  });
  s.add_vm("send", 2, true, [&](vm::Vm& v) {
    vm::DatagramSocket sock(v, 4201);
    testutil::await_udp_bound(v, {1, 4200});
    for (int i = 0; i < 4; ++i) {
      vm::DatagramPacket p;
      p.address = {1, 4200};
      p.data.resize(70);
      for (std::size_t j = 0; j < p.data.size(); ++j) {
        p.data[j] = static_cast<std::uint8_t>(i * 50 + j);
      }
      sock.send(p);
    }
    sock.close();
  });

  auto rec = s.record(31);
  auto rep = s.replay(rec, 13131);
  core::verify(rec, rep);
}

// Multicast: one sender, two member VMs, fan-out with faults (§4.2's
// point-to-multiple-points extension).
TEST(ClosedWorldUdp, MulticastReplays) {
  constexpr net::HostId kGroupHost = net::kMulticastHostBase + 7;
  Session s(faulty_udp(13, /*loss=*/0.15, /*dup=*/0.15));

  for (int m = 0; m < 2; ++m) {
    s.add_vm("member" + std::to_string(m), 1 + m, true, [&](vm::Vm& v) {
      vm::MulticastSocket sock(v, 4300);
      sock.join_group({kGroupHost, 4300});
      Bytes seen;
      for (int i = 0; i < 4; ++i) {
        vm::DatagramPacket p = sock.receive();
        seen.push_back(p.data.at(0));
      }
      sock.leave_group({kGroupHost, 4300});
      sock.close();
    });
  }
  s.add_vm("sender", 9, true, [&](vm::Vm& v) {
    vm::DatagramSocket sock(v, 4301);
    // Wait for both members to join: a member that joins late could miss
    // too many of the 40 datagrams to ever read 4.  Loss and duplication
    // still decide which datagrams each member sees; the log pins them.
    testutil::await_group_members(v, {kGroupHost, 4300}, 2);
    // Send generously so every member sees at least 4 despite loss.
    for (int i = 0; i < 40; ++i) {
      vm::DatagramPacket p;
      p.address = {kGroupHost, 4300};
      p.data = {static_cast<std::uint8_t>(i)};
      sock.send(p);
    }
    sock.close();
  });

  auto rec = s.record(303);
  auto rep = s.replay(rec, 44);
  core::verify(rec, rep);
}

}  // namespace
}  // namespace djvu
