// The three benchmark applications and the probe that times their calls
// into the vm layer.
//
//   hot_shared   — 4 threads doing get+set on ONE SharedVar, nothing in
//                  between: every record event contends for the same
//                  section, replay parks often, the spool fills fastest.
//   private_keys — 4 threads, each on its own SharedVar with ~96 rounds of
//                  local compute per access, plus a shared tally every 64th
//                  iteration: independent keys, compute-bound record, and a
//                  replay dominated by the turn protocol (~1.2 events per
//                  interval).
//   rpc_closed   — the paper's closed-world client/server app (same protocol
//                  as bench/workload.h): two DJVMs with 2 threads each,
//                  6,000 short connections per side — the only workload that
//                  drives the net module, the socket gateways, the network
//                  log, two concurrent spools and the replay connection pool.
//
// Every app takes its inputs (initial values, compute seeds) from the
// benchmark seed.  The Probe pointer is null in untraced runs; traced runs
// time batches of calls with steady_clock from the application code itself.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "core/session.h"
#include "vm/exceptions.h"
#include "vm/shared_var.h"
#include "vm/socket_api.h"
#include "vm/thread.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Per-layer timings taken inside one run of an app.  Reset before a run,
/// read after it; each counter pair is (total ns, calls).
struct Probe {
  std::atomic<std::uint64_t> event_ns{0}, events{0};
  std::atomic<std::uint64_t> accept_ns{0}, accepts{0};
  std::atomic<std::uint64_t> connect_ns{0}, connects{0};
  std::atomic<std::uint64_t> rpc_ns{0}, rpcs{0};

  void reset() {
    for (auto* c : {&event_ns, &events, &accept_ns, &accepts, &connect_ns,
                    &connects, &rpc_ns, &rpcs}) {
      c->store(0);
    }
  }
};

/// Times one kind of call on one thread and folds the totals into the
/// probe once, when the thread's loop ends.  A no-op without a probe.
class CallTimer {
 public:
  CallTimer(Probe* probe, std::atomic<std::uint64_t> Probe::*ns,
            std::atomic<std::uint64_t> Probe::*calls)
      : probe_(probe), ns_field_(ns), calls_field_(calls) {}
  ~CallTimer() {
    if (probe_ == nullptr) return;
    (probe_->*ns_field_) += ns_;
    (probe_->*calls_field_) += calls_;
  }
  CallTimer(const CallTimer&) = delete;
  CallTimer& operator=(const CallTimer&) = delete;

  void begin() {
    if (probe_ != nullptr) t0_ = Clock::now();
  }
  void end(std::uint64_t calls) {
    if (probe_ == nullptr) return;
    ns_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0_)
            .count());
    calls_ += calls;
  }

 private:
  Probe* probe_;
  std::atomic<std::uint64_t> Probe::*ns_field_;
  std::atomic<std::uint64_t> Probe::*calls_field_;
  Clock::time_point t0_{};
  std::uint64_t ns_ = 0;
  std::uint64_t calls_ = 0;
};

inline CallTimer event_timer(Probe* p) {
  return {p, &Probe::event_ns, &Probe::events};
}

/// Non-critical local computation: `rounds` of integer mixing.
inline std::uint64_t local_compute(std::uint64_t acc, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    acc = (acc ^ (acc >> 13)) * 0x9e3779b97f4a7c15ULL + 0x7f4a7c15u;
  }
  return acc;
}

/// Application sizes at scale 1; --scale multiplies the per-thread loop
/// counts (the self-test runs a tiny scale).
struct Size {
  int hot_rounds = 25000;        ///< get+set pairs per hot_shared thread
  int private_iters = 30000;     ///< accesses per private_keys thread
  int rpc_connections = 3000;    ///< connections per rpc_closed thread

  Size scaled(double scale) const {
    auto s = [scale](int n) {
      return std::max(1, static_cast<int>(n * scale));
    };
    return {s(hot_rounds), s(private_iters), s(rpc_connections)};
  }
};

inline constexpr int kAppThreads = 4;
inline constexpr int kHotBatch = 256;
inline constexpr int kPrivateCompute = 96;
inline constexpr int kTallyEvery = 64;
inline constexpr int kRpcThreads = 2;
inline constexpr int kRpcComputeIters = 8;
inline constexpr int kRpcLocalWork = 16;
inline constexpr std::size_t kRpcMessage = 192;
inline constexpr djvu::net::Port kRpcPort = 9100;

inline void hot_shared_main(djvu::vm::Vm& v, int rounds, std::uint64_t seed,
                            Probe* probe) {
  djvu::vm::SharedVar<std::uint64_t> hot(v, seed);
  std::vector<djvu::vm::VmThread> workers;
  for (int t = 0; t < kAppThreads; ++t) {
    workers.emplace_back(v, [&hot, rounds, seed, probe, t] {
      CallTimer timer = event_timer(probe);
      const std::uint64_t step = local_compute(seed + t, 4) | 1;
      for (int done = 0; done < rounds; done += kHotBatch) {
        const int n = std::min(kHotBatch, rounds - done);
        timer.begin();
        for (int i = 0; i < n; ++i) hot.set(hot.get() + step);
        timer.end(2 * static_cast<std::uint64_t>(n));
      }
    });
  }
  for (auto& w : workers) w.join();
}

inline void private_keys_main(djvu::vm::Vm& v, int iters, std::uint64_t seed,
                              Probe* probe) {
  djvu::vm::SharedVar<std::uint64_t> tally(v, 0);
  std::vector<std::unique_ptr<djvu::vm::SharedVar<std::uint64_t>>> keys;
  for (int t = 0; t < kAppThreads; ++t) {
    keys.push_back(
        std::make_unique<djvu::vm::SharedVar<std::uint64_t>>(v, seed + t));
  }
  std::vector<djvu::vm::VmThread> workers;
  for (int t = 0; t < kAppThreads; ++t) {
    workers.emplace_back(v, [&tally, key = keys[t].get(), iters, seed, probe,
                             t] {
      CallTimer timer = event_timer(probe);
      std::uint64_t acc = seed ^ (0x51ed27 * (t + 1));
      for (int done = 0; done < iters; done += kTallyEvery) {
        const int n = std::min(kTallyEvery, iters - done);
        timer.begin();
        for (int i = 0; i < n; ++i) {
          acc = local_compute(acc, kPrivateCompute) + key->get();
          acc = local_compute(acc, kPrivateCompute);
          key->set(acc);
        }
        tally.set(tally.get() + 1);
        timer.end(2 * static_cast<std::uint64_t>(n) + 2);
      }
    });
  }
  for (auto& w : workers) w.join();
}

/// Connects with retry-on-refused: the server may not be listening yet.
/// Failed attempts are recorded events, replayed from the log.
inline std::unique_ptr<djvu::vm::Socket> connect_retry(
    djvu::vm::Vm& v, djvu::net::SocketAddress addr) {
  for (int attempt = 0;; ++attempt) {
    try {
      return std::make_unique<djvu::vm::Socket>(v, addr);
    } catch (const djvu::vm::ConnectException&) {
      if (attempt >= 2000) throw;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

/// Reads exactly n bytes (looping over partial reads); throws on EOF.
inline djvu::Bytes read_exactly(djvu::vm::Socket& s, std::size_t n) {
  djvu::Bytes out;
  while (out.size() < n) {
    djvu::Bytes part = s.input_stream().read(n - out.size());
    if (part.empty()) throw djvu::Error("unexpected EOF from peer");
    djvu::append(out, part);
  }
  return out;
}

inline void rpc_server_main(djvu::vm::Vm& v, int connections,
                            std::uint64_t seed, Probe* probe) {
  djvu::vm::ServerSocket listener(v, kRpcPort);
  djvu::vm::SharedVar<std::uint64_t> folded(v, seed);
  std::vector<djvu::vm::VmThread> workers;
  for (int t = 0; t < kRpcThreads; ++t) {
    workers.emplace_back(v, [&listener, &folded, connections, probe] {
      CallTimer events = event_timer(probe);
      CallTimer accepts(probe, &Probe::accept_ns, &Probe::accepts);
      for (int c = 0; c < connections; ++c) {
        accepts.begin();
        auto sock = listener.accept();
        accepts.end(1);
        djvu::Bytes req = read_exactly(*sock, kRpcMessage);
        djvu::ByteReader r(req);
        events.begin();
        folded.set(folded.get() + r.u64());
        std::uint64_t acc = 0;
        for (int i = 0; i < kRpcComputeIters; ++i) {
          acc = local_compute(acc, kRpcLocalWork) * 31 + folded.get();
        }
        events.end(2 + kRpcComputeIters);
        djvu::ByteWriter w;
        w.u64(acc);
        djvu::Bytes reply = w.take();
        reply.resize(kRpcMessage, 0x5a);
        sock->output_stream().write(reply);
        sock->close();
      }
    });
  }
  for (auto& w : workers) w.join();
  listener.close();
}

inline void rpc_client_main(djvu::vm::Vm& v, int connections,
                            djvu::net::HostId server, Probe* probe) {
  djvu::vm::SharedVar<std::uint64_t> opened(v, 0);
  std::vector<djvu::vm::VmThread> workers;
  for (int t = 0; t < kRpcThreads; ++t) {
    workers.emplace_back(v, [&v, &opened, connections, server, probe, t] {
      CallTimer events = event_timer(probe);
      CallTimer connects(probe, &Probe::connect_ns, &Probe::connects);
      CallTimer rpcs(probe, &Probe::rpc_ns, &Probe::rpcs);
      for (int c = 0; c < connections; ++c) {
        rpcs.begin();
        events.begin();
        opened.set(opened.get() + 1);
        std::uint64_t acc = static_cast<std::uint64_t>(t) + 1;
        for (int i = 0; i < kRpcComputeIters; ++i) {
          acc = local_compute(acc, kRpcLocalWork) * 131 + opened.get();
        }
        events.end(2 + kRpcComputeIters);
        connects.begin();
        auto sock = connect_retry(v, {server, kRpcPort});
        connects.end(1);
        djvu::ByteWriter w;
        w.u64(acc);
        djvu::Bytes request = w.take();
        request.resize(kRpcMessage, 0x7e);
        sock->output_stream().write(request);
        read_exactly(*sock, kRpcMessage);
        sock->close();
        rpcs.end(1);
      }
    });
  }
  for (auto& w : workers) w.join();
}

/// Builds the session for `workload`: the default TuningConfig with only
/// spool_dir set, which is what a user recording to disk gets.
inline djvu::core::Session make_session(const std::string& workload,
                                        const Size& size, std::uint64_t seed,
                                        const std::string& spool_dir,
                                        Probe* probe) {
  djvu::core::SessionConfig cfg;
  cfg.tuning.spool_dir = spool_dir;
  cfg.net.seed = seed;
  djvu::core::Session s(cfg);
  if (workload == "hot_shared") {
    s.add_vm("app", 1, true, [n = size.hot_rounds, seed, probe](
                                 djvu::vm::Vm& v) {
      hot_shared_main(v, n, seed, probe);
    });
  } else if (workload == "private_keys") {
    s.add_vm("app", 1, true, [n = size.private_iters, seed, probe](
                                 djvu::vm::Vm& v) {
      private_keys_main(v, n, seed, probe);
    });
  } else if (workload == "rpc_closed") {
    s.add_vm("server", 1, true, [n = size.rpc_connections, seed, probe](
                                    djvu::vm::Vm& v) {
      rpc_server_main(v, n, seed, probe);
    });
    s.add_vm("client", 2, true, [n = size.rpc_connections, probe](
                                    djvu::vm::Vm& v) {
      rpc_client_main(v, n, 1, probe);
    });
  } else {
    throw djvu::UsageError("unknown workload '" + workload + "'");
  }
  return s;
}

}  // namespace perfbench
