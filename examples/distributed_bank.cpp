// Distributed bank: the classic "bug appears in one execution and not
// another" scenario from the paper's introduction, made reproducible.
//
// A bank server keeps an account balance as a shared variable and serves
// deposit/withdraw requests from two client VMs over stream sockets.  The
// server's request handler has a read-modify-write race: two concurrent
// requests can read the same balance and one update is lost.  Whether the
// bug bites depends on connection arrival order and thread scheduling —
// classic heisenbug.
//
// The example records executions until the bug manifests (final balance !=
// expected), then replays the buggy execution several times, showing the
// exact same wrong balance every time — the debugging workflow DejaVu
// enables.

#include <cstdio>
#include <thread>

#include "core/session.h"
#include "tests/test_util.h"
#include "vm/shared_var.h"
#include "vm/socket_api.h"
#include "vm/thread.h"

namespace {

constexpr int kClients = 2;
constexpr int kRequestsPerClient = 10;
constexpr std::uint64_t kDeposit = 10;
constexpr djvu::net::Port kPort = 8080;

using namespace djvu;

std::uint64_t g_final_balance = 0;

core::Session make_bank() {
  core::SessionConfig cfg;
  cfg.net.connect_delay = {std::chrono::microseconds(0),
                           std::chrono::microseconds(500)};
  core::Session s(cfg);

  s.add_vm("bank", 1, true, [](vm::Vm& v) {
    vm::ServerSocket listener(v, kPort);
    vm::SharedVar<std::uint64_t> balance(v, 0);
    std::vector<vm::VmThread> tellers;
    for (int t = 0; t < kClients; ++t) {
      tellers.emplace_back(v, [&v, &listener, &balance] {
        for (int r = 0; r < kRequestsPerClient; ++r) {
          auto sock = listener.accept();
          Bytes req = testutil::read_exactly(*sock, 8);
          ByteReader reader(req);
          std::uint64_t amount = reader.u64();
          // BUG: unsynchronized read-modify-write on the balance, with a
          // fee computation between the read and the write — the classic
          // check-then-act window.
          std::uint64_t old = balance.get();
          std::this_thread::sleep_for(std::chrono::microseconds(300));
          balance.set(old + amount);
          ByteWriter w;
          w.u64(old + amount);
          sock->output_stream().write(w.view());
          sock->close();
        }
      });
    }
    for (auto& t : tellers) t.join();
    listener.close();
    g_final_balance = balance.unsafe_peek();
  });

  for (int c = 0; c < kClients; ++c) {
    s.add_vm("client" + std::to_string(c), 2 + c, true, [](vm::Vm& v) {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        auto sock = testutil::connect_retry(v, {1, kPort});
        ByteWriter w;
        w.u64(kDeposit);
        sock->output_stream().write(w.view());
        testutil::read_exactly(*sock, 8);
        sock->close();
      }
    });
  }
  return s;
}

}  // namespace

int main() {
  constexpr std::uint64_t kExpected = kClients * kRequestsPerClient * kDeposit;
  std::printf("depositing %d x %d x %llu — expected final balance %llu\n\n",
              kClients, kRequestsPerClient,
              static_cast<unsigned long long>(kDeposit),
              static_cast<unsigned long long>(kExpected));

  // Hunt for an execution where the race bites (the record_until API).
  auto s = make_bank();
  auto caught = s.record_until(
      [&](const core::RunResult&) { return g_final_balance != kExpected; },
      /*max_attempts=*/200);
  if (!caught) {
    std::printf("no lost update in 200 executions — try again\n");
    return 1;
  }
  core::RunResult buggy = std::move(*caught);
  std::uint64_t buggy_balance = g_final_balance;
  std::printf("caught a lost update: final balance %llu (missing %llu)\n",
              static_cast<unsigned long long>(buggy_balance),
              static_cast<unsigned long long>(kExpected - buggy_balance));

  // Replay the buggy execution: the bug reproduces every single time.
  for (int i = 0; i < 3; ++i) {
    auto bank = make_bank();
    auto rep = bank.replay(buggy, /*seed=*/777 + static_cast<std::uint64_t>(i));
    core::verify(buggy, rep);
    std::printf("replay %d: final balance %llu — bug reproduced, traces "
                "identical\n",
                i + 1, static_cast<unsigned long long>(g_final_balance));
    if (g_final_balance != buggy_balance) return 1;
  }
  return 0;
}
