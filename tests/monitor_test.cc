// Deeper monitor coverage: contention stress, notify-one wake semantics,
// nested synchronized + wait, interleaving with sockets.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>

#include "core/session.h"
#include "tests/test_util.h"
#include "vm/monitor.h"
#include "vm/shared_var.h"
#include "vm/socket_api.h"
#include "vm/thread.h"

namespace djvu {
namespace {

using core::Session;
using core::SessionConfig;

TEST(MonitorDeep, HighContentionStressReplays) {
  SessionConfig cfg;
  cfg.tuning.chaos_prob = 0.05;
  Session s(cfg);
  s.add_vm("app", 1, true, [](vm::Vm& v) {
    vm::Monitor m(v);
    vm::SharedVar<std::uint64_t> inside(v, 0);
    vm::SharedVar<std::uint64_t> sequence(v, 0);
    std::vector<vm::VmThread> threads;
    for (int t = 0; t < 6; ++t) {
      threads.emplace_back(v, [&, t] {
        for (int i = 0; i < 25; ++i) {
          vm::Monitor::Synchronized sync(m);
          // Mutual exclusion invariant: `inside` is 0 on entry, 1 inside.
          if (inside.get() != 0) throw Error("mutual exclusion violated");
          inside.set(1);
          sequence.set(sequence.get() * 7 + static_cast<std::uint64_t>(t));
          inside.set(0);
        }
      });
    }
    for (auto& t : threads) t.join();
  });
  auto rec = s.record(1);
  auto rep = s.replay(rec, 2);
  core::verify(rec, rep);
}

// notify() wakes exactly one waiter; which one is scheduler-determined and
// must replay identically.
TEST(MonitorDeep, NotifyOneWakeOrderReplays) {
  Session s;
  s.add_vm("app", 1, true, [](vm::Vm& v) {
    vm::Monitor m(v);
    vm::SharedVar<int> tickets(v, 0);
    vm::SharedVar<std::uint64_t> wake_order(v, 0);
    std::vector<vm::VmThread> waiters;
    for (int t = 0; t < 3; ++t) {
      waiters.emplace_back(v, [&, t] {
        vm::Monitor::Synchronized sync(m);
        while (tickets.get() == 0) m.wait();
        tickets.set(tickets.get() - 1);
        wake_order.set(wake_order.get() * 10 +
                       static_cast<std::uint64_t>(t) + 1);
      });
    }
    vm::VmThread poster(v, [&] {
      for (int i = 0; i < 3; ++i) {
        vm::Monitor::Synchronized sync(m);
        tickets.set(tickets.get() + 1);
        m.notify();  // exactly one waiter proceeds
      }
    });
    for (auto& w : waiters) w.join();
    poster.join();
  });
  auto rec = s.record(3);
  auto rep = s.replay(rec, 4);
  core::verify(rec, rep);
}

TEST(MonitorDeep, WaitInsideNestedSynchronizedReleasesFully) {
  Session s;
  s.add_vm("app", 1, true, [](vm::Vm& v) {
    vm::Monitor m(v);
    vm::SharedVar<int> stage(v, 0);
    vm::VmThread waiter(v, [&] {
      m.enter();
      m.enter();  // depth 2
      stage.set(1);
      // wait() must release the monitor fully, or the signaller deadlocks.
      while (stage.get() != 2) m.wait();
      m.exit();
      m.exit();
    });
    vm::VmThread signaller(v, [&] {
      for (;;) {
        vm::Monitor::Synchronized sync(m);
        if (stage.get() == 1) {
          stage.set(2);
          m.notify_all();
          break;
        }
      }
    });
    waiter.join();
    signaller.join();
  });
  auto rec = s.record(5);
  auto rep = s.replay(rec, 6);
  core::verify(rec, rep);
}

// Monitors guarding socket handoffs: a connection queue between an acceptor
// thread and worker threads (the classic thread-pool server shape).
TEST(MonitorDeep, ThreadPoolServerReplays) {
  SessionConfig cfg;
  cfg.net.connect_delay = {std::chrono::microseconds(0),
                           std::chrono::microseconds(300)};
  Session s(cfg);
  s.add_vm("server", 1, true, [](vm::Vm& v) {
    vm::ServerSocket listener(v, 5000);
    vm::Monitor queue_lock(v);
    std::vector<std::unique_ptr<vm::Socket>> queue;  // guarded by queue_lock
    vm::SharedVar<int> queued(v, 0);
    vm::SharedVar<int> served(v, 0);
    constexpr int kConns = 6;

    vm::VmThread acceptor(v, [&] {
      for (int i = 0; i < kConns; ++i) {
        auto sock = listener.accept();
        vm::Monitor::Synchronized sync(queue_lock);
        queue.push_back(std::move(sock));
        queued.set(queued.get() + 1);
        queue_lock.notify();
      }
    });
    std::vector<vm::VmThread> workers;
    for (int w = 0; w < 2; ++w) {
      workers.emplace_back(v, [&] {
        for (;;) {
          std::unique_ptr<vm::Socket> sock;
          {
            vm::Monitor::Synchronized sync(queue_lock);
            // Wait while nothing is queued and more connections are coming.
            while (queue.empty() && queued.get() < kConns) {
              queue_lock.wait();
            }
            if (queue.empty()) break;  // all conns handed out
            sock = std::move(queue.back());
            queue.pop_back();
            served.set(served.get() + 1);
          }
          Bytes b = testutil::read_exactly(*sock, 1);
          sock->output_stream().write(b);
          sock->close();
        }
      });
    }
    acceptor.join();
    // Wake workers so they observe completion.
    {
      vm::Monitor::Synchronized sync(queue_lock);
      queue_lock.notify_all();
    }
    for (auto& w : workers) w.join();
    listener.close();
  });
  s.add_vm("client", 2, true, [](vm::Vm& v) {
    for (int i = 0; i < 6; ++i) {
      auto sock = testutil::connect_retry(v, {1, 5000});
      sock->output_stream().write(Bytes{static_cast<std::uint8_t>(i)});
      testutil::read_exactly(*sock, 1);
      sock->close();
    }
  });
  auto rec = s.record(7);
  auto rep = s.replay(rec, 8);
  core::verify(rec, rep);
}

// The record quantum's blocking rule: a thread that blocks in Monitor::wait
// gives its section stripe up first, so a contender waiting on that stripe
// goes ahead at once and its wait counts as yielded — not as expired (the
// quantum is 10 s) and not as idle (which is how the contender would find
// a holder that blocked without yielding).  The holder keeps entering
// sections until the contender is known to wait; an attempt that still
// ends idle (an OS preemption between the holder's last section and its
// yield) is retried.  Record only: the holder's loop count depends on the
// contender's timing, which no replay can reproduce.
TEST(MonitorDeep, WaitYieldsTheRecordStripe) {
  SessionConfig cfg;
  cfg.tuning.record_stripes = 1;  // the var and the monitor share a stripe
  cfg.tuning.record_quantum = std::chrono::seconds(10);
  bool yielded = false;
  for (int attempt = 0; attempt < 10 && !yielded; ++attempt) {
    sched::SchedStats before;
    sched::SchedStats after;
    Session s(cfg);
    s.add_vm("app", 1, true, [&](vm::Vm& v) {
      vm::Monitor m(v);
      vm::SharedVar<std::uint64_t> x(v, 0);
      vm::SharedVar<int> notified(v, 0);
      std::atomic<bool> contender_done{false};
      vm::VmThread holder(v, [&] {
        vm::Monitor::Synchronized sync(m);
        x.set(1);
        const std::uint64_t waits = v.sched_stats().quantum_waits;
        vm::VmThread contender(v, [&] {
          before = v.sched_stats();
          x.get();  // waits on the holder's stripe
          after = v.sched_stats();
          contender_done.store(true);
          vm::Monitor::Synchronized inner(m);
          notified.set(1);
          m.notify();
        });
        while (v.sched_stats().quantum_waits == waits &&
               !contender_done.load()) {
          x.set(x.get() + 1);
        }
        while (notified.get() == 0) m.wait();
        contender.join();
      });
      holder.join();
    });
    auto rec = s.record(static_cast<std::uint64_t>(attempt) + 5);
    EXPECT_EQ(rec.vm("app").sched.quantum_expired, 0u);
    yielded = after.quantum_waits - before.quantum_waits == 1 &&
              after.quantum_yielded - before.quantum_yielded == 1;
  }
  EXPECT_TRUE(yielded);
}

class MonitorContention : public ::testing::TestWithParam<int> {};

TEST_P(MonitorContention, ScalesAndReplays) {
  const int threads = GetParam();
  Session s;
  s.add_vm("app", 1, true, [threads](vm::Vm& v) {
    vm::Monitor m(v);
    vm::SharedVar<std::uint64_t> counter(v, 0);
    std::vector<vm::VmThread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back(v, [&] {
        for (int i = 0; i < 20; ++i) {
          vm::Monitor::Synchronized sync(m);
          counter.set(counter.get() + 1);
        }
      });
    }
    for (auto& t : pool) t.join();
    if (counter.unsafe_peek() !=
        static_cast<std::uint64_t>(threads) * 20) {
      throw Error("monitor lost an update");
    }
  });
  auto rec = s.record(static_cast<std::uint64_t>(threads) * 11);
  auto rep = s.replay(rec, static_cast<std::uint64_t>(threads) * 13);
  core::verify(rec, rep);
}

INSTANTIATE_TEST_SUITE_P(Threads, MonitorContention,
                         ::testing::Values(2, 4, 8, 12));

}  // namespace
}  // namespace djvu
