// Property suites (TEST_P sweeps): randomized distributed workloads under
// many seeds and fault mixes — every recording must replay perfectly, and
// the structural invariants I1–I5 must hold on the logs.

#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.h"
#include "core/session.h"
#include "record/serializer.h"
#include "tests/test_util.h"
#include "vm/datagram_api.h"
#include "vm/monitor.h"
#include "vm/shared_var.h"
#include "vm/socket_api.h"
#include "vm/thread.h"

namespace djvu {
namespace {

using core::Session;
using core::SessionConfig;

// ---------------------------------------------------------------------------
// I1: schedule-log structure, checked on arbitrary recordings.
// ---------------------------------------------------------------------------

void check_schedule_invariants(const record::VmLog& log) {
  // Intervals per thread are increasing and non-overlapping; across
  // threads they partition [0, critical_events).
  std::vector<std::pair<GlobalCount, GlobalCount>> all;
  for (const auto& list : log.schedule.per_thread) {
    GlobalCount prev_end = 0;
    bool first = true;
    for (const auto& lsi : list) {
      ASSERT_LE(lsi.first, lsi.last);
      if (!first) {
        ASSERT_GT(lsi.first, prev_end);
      }
      prev_end = lsi.last;
      first = false;
      all.emplace_back(lsi.first, lsi.last);
    }
  }
  std::sort(all.begin(), all.end());
  GlobalCount expected = 0;
  for (const auto& [lo, hi] : all) {
    ASSERT_EQ(lo, expected) << "gap or overlap in the global order";
    expected = hi + 1;
  }
  ASSERT_EQ(expected, log.stats.critical_events);
}

// ---------------------------------------------------------------------------
// Randomized TCP workload parameterized by (seed, threads, faults).
// ---------------------------------------------------------------------------

class TcpSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(TcpSweep, RecordReplayVerify) {
  auto [seed, threads] = GetParam();
  SessionConfig cfg;
  cfg.net.seed = seed;
  cfg.net.connect_delay = {std::chrono::microseconds(0),
                           std::chrono::microseconds(300)};
  cfg.net.stream_delay = {std::chrono::microseconds(0),
                          std::chrono::microseconds(100)};
  cfg.net.segmentation.mss = 5;
  cfg.net.segmentation.short_read_prob = 0.6;
  Session s(cfg);

  const int conns = 3;
  s.add_vm("server", 1, true, [threads = threads, conns](vm::Vm& v) {
    vm::ServerSocket listener(v, 5000);
    vm::SharedVar<std::uint64_t> fold(v, 0);
    std::vector<vm::VmThread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back(v, [&v, &listener, &fold, conns] {
        for (int c = 0; c < conns; ++c) {
          auto sock = listener.accept();
          Bytes msg = testutil::read_exactly(*sock, 6);
          fold.set(fold.get() * 31 + msg[0] + msg[5]);
          sock->output_stream().write(msg);
          sock->close();
        }
      });
    }
    for (auto& w : workers) w.join();
    listener.close();
  });
  s.add_vm("client", 2, true, [threads = threads, conns](vm::Vm& v) {
    std::vector<vm::VmThread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back(v, [&v, t, conns] {
        for (int c = 0; c < conns; ++c) {
          auto sock = testutil::connect_retry(v, {1, 5000});
          Bytes msg(6, static_cast<std::uint8_t>(t * 16 + c));
          sock->output_stream().write(msg);
          testutil::read_exactly(*sock, 6);
          sock->close();
        }
      });
    }
    for (auto& w : workers) w.join();
  });

  auto rec = s.record(seed * 7 + 1);
  for (const auto& info : rec.vms) {
    ASSERT_TRUE(info.log.has_value());
    check_schedule_invariants(*info.log);
    // I7 while we're here: serialization round-trips canonically.
    Bytes data = record::serialize(*info.log);
    EXPECT_EQ(record::serialize(record::deserialize(data)), data);
  }
  // Replay twice under very different seeds: both must verify.
  auto rep1 = s.replay(rec, seed * 1000 + 17);
  core::verify(rec, rep1);
  auto rep2 = s.replay(rec, seed * 31337 + 5);
  core::verify(rec, rep2);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndThreads, TcpSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6),
                       ::testing::Values(1, 2, 4)));

// ---------------------------------------------------------------------------
// Randomized UDP workload parameterized by fault mix.
// ---------------------------------------------------------------------------

struct UdpFaults {
  double loss;
  double dup;
  int delay_us;
};

class UdpSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(UdpSweep, RecordReplayVerify) {
  auto [fault_idx, seed_idx] = GetParam();
  static constexpr UdpFaults kFaults[] = {
      {0.0, 0.0, 0},    {0.3, 0.0, 200}, {0.0, 0.5, 200},
      {0.2, 0.2, 400},  {0.5, 0.3, 100},
  };
  const UdpFaults f = kFaults[fault_idx];
  SessionConfig cfg;
  cfg.net.seed = static_cast<std::uint64_t>(seed_idx) * 19 + 3;
  cfg.net.udp.loss_prob = f.loss;
  cfg.net.udp.dup_prob = f.dup;
  cfg.net.udp.delay = {std::chrono::microseconds(0),
                       std::chrono::microseconds(f.delay_us)};
  Session s(cfg);

  const int sent = 30;
  const int consumed = 5;  // small enough to survive 50% loss of 30
  s.add_vm("recv", 1, true, [consumed](vm::Vm& v) {
    vm::DatagramSocket sock(v, 4000);
    vm::SharedVar<std::uint64_t> fold(v, 0);
    for (int i = 0; i < consumed; ++i) {
      vm::DatagramPacket p = sock.receive();
      fold.set(fold.get() * 131 + p.data.at(0));
    }
    sock.close();
  });
  s.add_vm("send", 2, true, [sent](vm::Vm& v) {
    vm::DatagramSocket sock(v, 4001);
    testutil::await_udp_bound(v, {1, 4000});
    for (int i = 0; i < sent; ++i) {
      vm::DatagramPacket p;
      p.address = {1, 4000};
      p.data = {static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(i * 3)};
      sock.send(p);
    }
    sock.close();
  });

  auto rec = s.record(static_cast<std::uint64_t>(seed_idx) * 101 + 7);
  auto rep = s.replay(rec, static_cast<std::uint64_t>(seed_idx) * 7919 + 11);
  core::verify(rec, rep);
}

INSTANTIATE_TEST_SUITE_P(FaultMixes, UdpSweep,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Values(0, 1, 2)));

// ---------------------------------------------------------------------------
// Monitor-heavy workload across seeds: wait/notify chains replay.
// ---------------------------------------------------------------------------

class MonitorSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MonitorSweep, ProducerConsumerReplays) {
  Session s;
  s.add_vm("app", 1, true, [](vm::Vm& v) {
    vm::Monitor m(v);
    vm::SharedVar<int> queue_depth(v, 0);
    vm::SharedVar<std::uint64_t> consumed_order(v, 0);
    constexpr int kItems = 30;

    std::vector<vm::VmThread> threads;
    for (int p = 0; p < 2; ++p) {
      threads.emplace_back(v, [&, p] {
        for (int i = 0; i < kItems / 2; ++i) {
          vm::Monitor::Synchronized sync(m);
          while (queue_depth.get() >= 3) m.wait();
          queue_depth.set(queue_depth.get() + 1);
          consumed_order.set(consumed_order.get() * 5 +
                             static_cast<std::uint64_t>(p) + 1);
          m.notify_all();
        }
      });
    }
    threads.emplace_back(v, [&] {
      for (int i = 0; i < kItems; ++i) {
        vm::Monitor::Synchronized sync(m);
        while (queue_depth.get() == 0) m.wait();
        queue_depth.set(queue_depth.get() - 1);
        m.notify_all();
      }
    });
    for (auto& t : threads) t.join();
  });
  auto rec = s.record(GetParam());
  auto rep = s.replay(rec, GetParam() + 555);
  core::verify(rec, rep);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonitorSweep,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace djvu
