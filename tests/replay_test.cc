// Unit tests for src/replay: connection pool, datagram frames/assembler,
// datagram replayer, reliable UDP.

#include <gtest/gtest.h>

#include <thread>

#include "net/network.h"
#include "replay/connection_pool.h"
#include "replay/datagram_frame.h"
#include "replay/datagram_replay.h"
#include "replay/reliable_udp.h"

namespace djvu::replay {
namespace {

std::shared_ptr<net::TcpConnection> dummy_conn(net::Network& net, int tag) {
  static int port = 9000;
  auto listener = net.listen({1, static_cast<net::Port>(port + tag)});
  auto client = net.connect(2, listener->address());
  auto server = listener->accept();
  (void)client;  // keep alive just long enough; pool only stores the server end
  return server;
}

TEST(ConnectionPool, DirectPutThenAwait) {
  net::Network net;
  ConnectionPool pool;
  ConnectionId id{1, 2, 3};
  pool.put(id, dummy_conn(net, 0));
  auto conn = pool.await(id, []() -> std::pair<ConnectionId, ConnectionPool::Conn> {
    throw Error("fetch should not be called");
  });
  EXPECT_NE(conn, nullptr);
  EXPECT_EQ(pool.size(), 0u);
}

TEST(ConnectionPool, BuffersOutOfOrderArrivals) {
  net::Network net;
  ConnectionPool pool;
  // The fetcher yields connections for ids 3, 2, 1; a thread waiting for 1
  // must buffer 3 and 2.
  int next = 3;
  auto fetch = [&]() {
    ConnectionId id{1, 1, static_cast<EventNum>(next)};
    auto conn = dummy_conn(net, next);
    --next;
    return std::make_pair(id, conn);
  };
  auto conn = pool.await(ConnectionId{1, 1, 1}, fetch);
  EXPECT_NE(conn, nullptr);
  EXPECT_EQ(pool.size(), 2u);  // ids 3 and 2 buffered
  // And they are claimable without further fetching.
  EXPECT_NE(pool.await(ConnectionId{1, 1, 2},
                       []() -> std::pair<ConnectionId, ConnectionPool::Conn> {
                         throw Error("no fetch needed");
                       }),
            nullptr);
}

TEST(ConnectionPool, ConcurrentWaitersEachGetTheirs) {
  net::Network net;
  ConnectionPool pool;
  std::mutex m;
  int next = 0;
  auto fetch = [&]() {
    std::lock_guard<std::mutex> lock(m);
    ConnectionId id{1, 1, static_cast<EventNum>(next)};
    auto conn = dummy_conn(net, 10 + next);
    ++next;
    return std::make_pair(id, conn);
  };
  std::vector<std::thread> threads;
  std::atomic<int> got{0};
  for (int i = 2; i >= 0; --i) {
    threads.emplace_back([&, i] {
      auto conn = pool.await(ConnectionId{1, 1, static_cast<EventNum>(i)},
                             fetch);
      if (conn != nullptr) ++got;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(got.load(), 3);
  EXPECT_EQ(pool.size(), 0u);
}

TEST(ConnectionPool, FifoForDuplicateIds) {
  net::Network net;
  ConnectionPool pool;
  ConnectionId id{1, 1, 0};  // paper-style non-unique id
  auto c1 = dummy_conn(net, 20);
  auto c2 = dummy_conn(net, 21);
  pool.put(id, c1);
  pool.put(id, c2);
  auto nofetch = []() -> std::pair<ConnectionId, ConnectionPool::Conn> {
    throw Error("no fetch needed");
  };
  EXPECT_EQ(pool.await(id, nofetch), c1);
  EXPECT_EQ(pool.await(id, nofetch), c2);
}

TEST(ConnectionPool, FetchExceptionPropagates) {
  ConnectionPool pool;
  EXPECT_THROW(
      pool.await(ConnectionId{1, 1, 0},
                 []() -> std::pair<ConnectionId, ConnectionPool::Conn> {
                   throw Error("listener closed");
                 }),
      Error);
}

// Regression test for the fetcher-exception handoff: when the thread
// holding the fetcher role throws (e.g. a transient accept failure), a
// parked waiter must take the role over instead of waiting forever, and
// every recorded accept must still complete.
TEST(ConnectionPool, FetchExceptionHandsOffToOtherWaiter) {
  net::Network net;
  ConnectionPool pool;
  std::mutex m;
  int calls = 0;
  auto fetch = [&]() -> std::pair<ConnectionId, ConnectionPool::Conn> {
    std::unique_lock<std::mutex> lock(m);
    const int n = calls++;
    if (n == 0) {
      // Give the other thread time to park on the pool before failing, so
      // the failure exercises the handoff (not just the early-exit) path.
      lock.unlock();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      throw Error("transient accept failure");
    }
    ConnectionId id{1, 1, static_cast<EventNum>(n - 1)};
    return {id, dummy_conn(net, 30 + n)};
  };
  std::atomic<int> got{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      ConnectionId want{1, 1, static_cast<EventNum>(i)};
      for (;;) {
        try {
          if (pool.await(want, fetch) != nullptr) ++got;
          return;
        } catch (const Error&) {
          ++failures;  // this caller's own fetch raised: retry the accept
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(got.load(), 2);
  EXPECT_EQ(failures.load(), 1);  // only the failing fetcher saw the error
  EXPECT_EQ(pool.size(), 0u);
}

TEST(DatagramFrame, TaggedRoundTrip) {
  DgNetworkEventId id{5, 123456};
  Bytes payload = to_bytes("application data");
  Bytes frame = encode_tagged(id, payload);
  EXPECT_EQ(frame.size(), payload.size() + kTagTrailerSize);
  DecodedTag d = decode_tagged(frame);
  EXPECT_EQ(d.type, FrameType::kTagged);
  EXPECT_EQ(d.id, id);
  EXPECT_EQ(d.payload, payload);
}

TEST(DatagramFrame, EmptyPayloadTagged) {
  DgNetworkEventId id{1, 0};
  Bytes frame = encode_tagged(id, {});
  DecodedTag d = decode_tagged(frame);
  EXPECT_TRUE(d.payload.empty());
  EXPECT_EQ(d.id, id);
}

TEST(DatagramFrame, SplitRoundTrip) {
  DgNetworkEventId id{3, 42};
  Bytes payload;
  for (int i = 0; i < 100; ++i) payload.push_back(static_cast<std::uint8_t>(i));
  auto [front, rear] = encode_split(id, payload, 60);

  DatagramAssembler assembler;
  // Rear first: must buffer.
  EXPECT_FALSE(assembler.feed(decode_tagged(rear)).has_value());
  EXPECT_EQ(assembler.pending(), 1u);
  auto complete = assembler.feed(decode_tagged(front));
  ASSERT_TRUE(complete.has_value());
  EXPECT_EQ(complete->id, id);
  EXPECT_EQ(complete->payload, payload);
  EXPECT_EQ(assembler.pending(), 0u);
}

TEST(DatagramFrame, DuplicateHalfTolerated) {
  DgNetworkEventId id{3, 43};
  Bytes payload(50, 0xaa);
  auto [front, rear] = encode_split(id, payload, 25);
  DatagramAssembler assembler;
  EXPECT_FALSE(assembler.feed(decode_tagged(front)).has_value());
  EXPECT_FALSE(assembler.feed(decode_tagged(front)).has_value());  // dup
  auto complete = assembler.feed(decode_tagged(rear));
  ASSERT_TRUE(complete.has_value());
  EXPECT_EQ(complete->payload, payload);
}

TEST(DatagramFrame, MalformedRejected) {
  EXPECT_THROW(decode_tagged(Bytes(4, 0)), LogFormatError);
  Bytes junk(32, 0xff);
  EXPECT_THROW(decode_tagged(junk), LogFormatError);
  EXPECT_THROW(decode_rel(Bytes(2, 0)), LogFormatError);
}

TEST(DatagramFrame, RelRoundTrip) {
  Bytes inner = encode_tagged({1, 2}, to_bytes("x"));
  Bytes data = encode_rel_data(77, inner);
  DecodedRel d = decode_rel(data);
  EXPECT_EQ(d.type, FrameType::kRelData);
  EXPECT_EQ(d.seq, 77u);
  EXPECT_EQ(d.inner, inner);

  Bytes ack = encode_rel_ack(77);
  DecodedRel a = decode_rel(ack);
  EXPECT_EQ(a.type, FrameType::kRelAck);
  EXPECT_EQ(a.seq, 77u);
}

TEST(DatagramReplayer, ServesBufferedAndRetainsForDuplicates) {
  DatagramReplayer r({{DgNetworkEventId{1, 5}, 2}});
  r.put({1, 5}, to_bytes("five"));
  auto nofetch = []() -> std::pair<DgNetworkEventId, Bytes> {
    throw Error("no fetch needed");
  };
  EXPECT_EQ(to_string(r.await({1, 5}, nofetch)), "five");
  // Recorded duplicate: served again from the retained buffer.
  EXPECT_EQ(to_string(r.await({1, 5}, nofetch)), "five");
}

TEST(DatagramReplayer, FetchesUntilMatch) {
  DatagramReplayer r({{DgNetworkEventId{1, 0}, 1},
                      {DgNetworkEventId{1, 1}, 1},
                      {DgNetworkEventId{1, 2}, 1},
                      {DgNetworkEventId{1, 3}, 1}});
  int next = 0;
  auto fetch = [&]() {
    DgNetworkEventId id{1, static_cast<GlobalCount>(next)};
    Bytes payload{static_cast<std::uint8_t>(next)};
    ++next;
    return std::make_pair(id, payload);
  };
  Bytes got = r.await({1, 3}, fetch);
  EXPECT_EQ(got[0], 3);
  EXPECT_EQ(r.buffered(), 3u);  // 0,1,2 buffered; 3 pruned once served
}

// Mirror of ConnectionPool.FetchExceptionHandsOffToOtherWaiter: when the
// thread holding the replayer's fetcher role throws (e.g. a closed
// socket), a parked waiter must take the role over instead of waiting
// forever, and every recorded receive must still complete.
TEST(DatagramReplayer, FetchExceptionHandsOffToOtherWaiter) {
  DatagramReplayer r({{DgNetworkEventId{1, 0}, 1},
                      {DgNetworkEventId{1, 1}, 1}});
  std::mutex m;
  int calls = 0;
  auto fetch = [&]() -> std::pair<DgNetworkEventId, Bytes> {
    std::unique_lock<std::mutex> lock(m);
    const int n = calls++;
    if (n == 0) {
      // Give the other thread time to park on the replayer before failing,
      // so the failure exercises the handoff (not just early-exit) path.
      lock.unlock();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      throw Error("transient receive failure");
    }
    DgNetworkEventId id{1, static_cast<GlobalCount>(n - 1)};
    return {id, Bytes{static_cast<std::uint8_t>(n - 1)}};
  };
  std::atomic<int> got{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      DgNetworkEventId want{1, static_cast<GlobalCount>(i)};
      for (;;) {
        try {
          Bytes b = r.await(want, fetch);
          ASSERT_EQ(b.size(), 1u);
          EXPECT_EQ(b[0], static_cast<std::uint8_t>(i));
          ++got;
          return;
        } catch (const Error&) {
          ++failures;  // this caller's own fetch raised: retry the receive
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(got.load(), 2);
  EXPECT_EQ(failures.load(), 1);  // only the failing fetcher saw the error
}

// Bounded residency: an entry is pruned the moment its last recorded
// delivery is served, and arrivals the log never names are dropped instead
// of buffered — the buffer holds only ids with outstanding recorded
// deliveries.
TEST(DatagramReplayer, PrunesExhaustedEntries) {
  DatagramReplayer r({{DgNetworkEventId{1, 5}, 2},
                      {DgNetworkEventId{1, 7}, 1}});
  auto nofetch = []() -> std::pair<DgNetworkEventId, Bytes> {
    throw Error("no fetch needed");
  };
  r.put({1, 5}, to_bytes("five"));
  r.put({1, 7}, to_bytes("seven"));
  r.put({1, 9}, to_bytes("never-delivered"));  // not in the log: dropped
  EXPECT_EQ(r.buffered(), 2u);
  EXPECT_EQ(r.dropped(), 1u);

  EXPECT_EQ(to_string(r.await({1, 5}, nofetch)), "five");  // 1st of 2
  EXPECT_EQ(r.buffered(), 2u);  // retained for the recorded duplicate
  EXPECT_EQ(to_string(r.await({1, 5}, nofetch)), "five");  // last recorded
  EXPECT_EQ(r.buffered(), 1u);  // pruned on exhaustion
  EXPECT_EQ(to_string(r.await({1, 7}, nofetch)), "seven");
  EXPECT_EQ(r.buffered(), 0u);  // residency assertion: nothing lingers
  EXPECT_EQ(r.dropped(), 3u);
}

TEST(ReliableUdp, DeliversDespiteHeavyLoss) {
  net::NetworkConfig cfg;
  cfg.seed = 4;
  cfg.udp.loss_prob = 0.5;
  auto net = std::make_shared<net::Network>(cfg);
  ReliableUdp sender(net->udp_bind({1, 100}), net.get(),
                     std::chrono::milliseconds(1));
  ReliableUdp receiver(net->udp_bind({2, 200}), net.get(),
                       std::chrono::milliseconds(1));
  for (int i = 0; i < 30; ++i) {
    sender.send({2, 200}, Bytes{static_cast<std::uint8_t>(i)});
  }
  std::set<int> got;
  for (int i = 0; i < 30; ++i) {
    got.insert(receiver.receive().payload.at(0));
  }
  EXPECT_EQ(got.size(), 30u);  // exactly-once, all delivered
}

TEST(ReliableUdp, DedupsUnderDuplication) {
  net::NetworkConfig cfg;
  cfg.seed = 6;
  cfg.udp.dup_prob = 0.9;
  auto net = std::make_shared<net::Network>(cfg);
  ReliableUdp sender(net->udp_bind({1, 100}), net.get(),
                     std::chrono::milliseconds(1));
  ReliableUdp receiver(net->udp_bind({2, 200}), net.get(),
                       std::chrono::milliseconds(1));
  for (int i = 0; i < 20; ++i) {
    sender.send({2, 200}, Bytes{static_cast<std::uint8_t>(i)});
  }
  std::multiset<int> got;
  for (int i = 0; i < 20; ++i) {
    got.insert(receiver.receive().payload.at(0));
  }
  // Exactly one delivery per send, no extras pending shortly after.
  EXPECT_EQ(got.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(got.count(i), 1u);
}

TEST(ReliableUdp, AcksSettleUnacked) {
  auto net = std::make_shared<net::Network>();
  ReliableUdp sender(net->udp_bind({1, 100}), net.get(),
                     std::chrono::milliseconds(1));
  ReliableUdp receiver(net->udp_bind({2, 200}), net.get(),
                       std::chrono::milliseconds(1));
  sender.send({2, 200}, to_bytes("x"));
  receiver.receive();
  for (int i = 0; i < 200 && sender.unacked() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(sender.unacked(), 0u);
}

TEST(ReliableUdp, MulticastReachesLateJoiner) {
  auto net = std::make_shared<net::Network>();
  net::SocketAddress group{net::kMulticastHostBase + 5, 300};
  ReliableUdp sender(net->udp_bind({1, 100}), net.get(),
                     std::chrono::milliseconds(1));
  ReliableUdp member(net->udp_bind({2, 200}), net.get(),
                     std::chrono::milliseconds(1));
  // Send BEFORE the member joins: retransmission must pick it up later.
  sender.send(group, to_bytes("late"));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  net->join_group(group, {2, 200});
  EXPECT_EQ(to_string(member.receive().payload), "late");
}

TEST(ReliableUdp, CloseUnblocksReceive) {
  auto net = std::make_shared<net::Network>();
  ReliableUdp r(net->udp_bind({1, 100}), net.get());
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    r.close();
  });
  EXPECT_THROW(r.receive(), net::NetError);
  closer.join();
}

}  // namespace
}  // namespace djvu::replay
