// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "vm/exceptions.h"
#include "vm/socket_api.h"

namespace djvu::testutil {

/// Connects with retry-on-refused, the idiom a real client uses when the
/// server may not be listening yet.  Failed attempts are genuine recorded
/// events, replayed from the log.
inline std::unique_ptr<vm::Socket> connect_retry(vm::Vm& v,
                                                 net::SocketAddress addr,
                                                 int max_attempts = 2000) {
  for (int i = 0;; ++i) {
    try {
      return std::make_unique<vm::Socket>(v, addr);
    } catch (const vm::ConnectException&) {
      if (i >= max_attempts) throw;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

/// Waits until `ready()` holds, polling the simulated network the way
/// connect_retry polls a listener; throws if it never does.  Replay skips
/// the wait: its reliable layer retransmits until a late receiver is bound
/// or has joined, and that path stays exercised.  The polls are not
/// instrumented events, so nothing is recorded.
template <typename Ready>
inline void await_network(vm::Vm& v, Ready ready, const char* what) {
  if (v.mode() == vm::Mode::kReplay) return;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!ready()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      throw Error(std::string("timed out waiting for ") + what);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

/// Waits until a UDP port has been bound at `addr`.  A datagram sent to an
/// unbound port vanishes, so a sender whose receiver must see its first
/// datagrams waits for the receiver's bind instead of racing VM start-up.
/// A receiver that has already read enough from other senders and closed
/// counts as bound, so a late sender does not wait for it.
inline void await_udp_bound(vm::Vm& v, net::SocketAddress addr) {
  await_network(
      v, [&] { return v.network().udp_was_bound(addr); },
      "a UDP port to be bound");
}

/// Waits until multicast group `group` has at least `members` members.
inline void await_group_members(vm::Vm& v, net::SocketAddress group,
                                std::size_t members) {
  await_network(
      v, [&] { return v.network().group_members(group).size() >= members; },
      "multicast group members");
}

/// Reads exactly n bytes from a socket's input stream (looping over the
/// partial reads the network produces); throws on premature EOF.
inline Bytes read_exactly(vm::Socket& s, std::size_t n) {
  Bytes out;
  while (out.size() < n) {
    Bytes part = s.input_stream().read(n - out.size());
    if (part.empty()) {
      throw Error("unexpected EOF after " + std::to_string(out.size()) +
                  " bytes");
    }
    append(out, part);
  }
  return out;
}

/// Busy-waits `d` (sleep_for would overshoot a turn wait's spin budget).
inline void busy_wait(std::chrono::microseconds d) {
  const auto end = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < end) {
  }
}

/// Pins the calling thread to one CPU.
inline void pin_to(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

/// Runs `wait` on a new thread and `act` on this one 10 us after the waiter
/// announced itself: inside the spin budget, so the wait is normally
/// spinning when `act` lands.  A preempted waiter may still park first (or
/// not have started), so callers retry until an attempt hit the spin.
///
/// With two usable CPUs the two sides are pinned to different ones for the
/// race.  Left to the scheduler, a new thread can start on its creator's
/// CPU and stay there: the two timeslice, `act` lands only after the spin
/// budget, and every attempt parks (seen for whole runs under ASan, and
/// for the causal poison test without a sanitizer).
template <typename Wait, typename Act>
void race_spinner(Wait wait, Act act) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(pthread_getaffinity_np(pthread_self(), sizeof(saved), &saved), 0);
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE && cpus.size() < 2; ++cpu) {
    if (CPU_ISSET(cpu, &saved)) cpus.push_back(cpu);
  }
  const bool pin = cpus.size() == 2;
  if (pin) pin_to(cpus[0]);
  std::atomic<bool> started{false};
  std::thread waiter([&] {
    if (pin) pin_to(cpus[1]);
    started.store(true);
    wait();
  });
  while (!started.load()) {
  }
  busy_wait(std::chrono::microseconds(10));
  act();
  waiter.join();
  pthread_setaffinity_np(pthread_self(), sizeof(saved), &saved);
}

}  // namespace djvu::testutil
