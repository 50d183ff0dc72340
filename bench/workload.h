// The paper's synthetic multi-threaded client/server benchmark (§6),
// shared by the Table 1 / Table 2 / ablation bench binaries.
//
// "This benchmark, that uses only stream socket API for network calls, has
// been written to deliberately contain non-determinism in updating both
// shared variables and passing the result of computation over these shared
// variables between the client and the server.  For instance, the number of
// connections performed for the client is a shared variable that is updated
// without exclusive access by the client threads and this variable is used
// in the individual thread computations.  Further, the client threads
// perform multiple connects per 'session'."
//
// Knobs reproduce the tables' scaling:
//   * threads            — per component (the tables' #threads column);
//   * sessions/connects  — per client thread, multiple connects per session;
//   * fixed_iters        — a shared-variable compute loop divided among the
//                          threads (dominates #critical events);
//   * per_thread_iters   — additional per-thread compute (the linear part).
#pragma once

#include <string>
#include <vector>

#include "common/bytes.h"
#include "core/session.h"
#include "tests/test_util.h"
#include "vm/shared_var.h"
#include "vm/socket_api.h"
#include "vm/thread.h"

namespace djvu::bench {

struct WorkloadParams {
  int threads = 2;
  int sessions = 2;
  int connects_per_session = 2;
  int fixed_iters = 1000;
  int per_thread_iters = 100;
  /// Non-critical local computation between critical events (models the
  /// bytecode the paper's benchmark executes between shared accesses; the
  /// record overhead is a fraction of this, not of an empty loop).
  int local_work = 16;
  /// Bytes per request and per reply.  Irrelevant to the closed-world log
  /// ("increasing the size of messages ... would not change the size of
  /// closed-world log") but directly grows the open-world content log.
  int message_size = 192;
  net::Port port = 9100;

  int connections_per_thread() const {
    return sessions * connects_per_session;
  }
  int compute_iters_per_thread() const {
    return fixed_iters / threads + per_thread_iters;
  }
};

/// Local (non-critical) computation: `rounds` of integer mixing.
inline std::uint64_t local_compute(std::uint64_t seed, int rounds) {
  std::uint64_t acc = seed;
  for (int i = 0; i < rounds; ++i) {
    acc = (acc ^ (acc >> 13)) * 0x9e3779b97f4a7c15ULL + 0x7f4a7c15u;
  }
  return acc;
}

/// Server component: `threads` worker threads, each accepting its share of
/// connections; every connection reads a request, folds it into a racily
/// updated shared variable, computes, and replies.
inline void server_main(vm::Vm& v, const WorkloadParams& p) {
  vm::ServerSocket listener(v, p.port);
  vm::SharedVar<std::uint64_t> folded(v, 0);
  std::vector<vm::VmThread> workers;
  workers.reserve(static_cast<std::size_t>(p.threads));
  for (int t = 0; t < p.threads; ++t) {
    workers.emplace_back(v, [&v, &listener, &folded, &p] {
      for (int conn = 0; conn < p.connections_per_thread(); ++conn) {
        auto sock = listener.accept();
        Bytes req = testutil::read_exactly(
            *sock, static_cast<std::size_t>(p.message_size));
        ByteReader r(req);
        // Unsynchronized shared update with the client's result.
        folded.set(folded.get() + r.u64());
        // Compute loop over the shared variable (racy reads).
        std::uint64_t acc = 0;
        const int iters = p.compute_iters_per_thread();
        for (int i = 0; i < iters; ++i) {
          acc = local_compute(acc, p.local_work) * 31 + folded.get();
        }
        ByteWriter w;
        w.u64(acc);
        Bytes reply = w.take();
        reply.resize(static_cast<std::size_t>(p.message_size), 0x5a);
        sock->output_stream().write(reply);
        sock->close();
      }
    });
  }
  for (auto& w : workers) w.join();
  listener.close();
}

/// Client component: `threads` worker threads, each performing `sessions`
/// sessions of `connects_per_session` connects; the shared connection
/// counter is updated without exclusive access and feeds each thread's
/// computation.
inline void client_main(vm::Vm& v, const WorkloadParams& p,
                        net::HostId server_host) {
  vm::SharedVar<std::uint64_t> connections(v, 0);
  std::vector<vm::VmThread> workers;
  workers.reserve(static_cast<std::size_t>(p.threads));
  for (int t = 0; t < p.threads; ++t) {
    workers.emplace_back(v, [&v, &connections, &p, server_host, t] {
      for (int s = 0; s < p.sessions; ++s) {
        for (int c = 0; c < p.connects_per_session; ++c) {
          // Racy shared connection counter (the paper's example).
          connections.set(connections.get() + 1);
          // Per-thread computation over the shared variable.
          std::uint64_t acc = static_cast<std::uint64_t>(t) + 1;
          const int iters = p.compute_iters_per_thread();
          for (int i = 0; i < iters; ++i) {
            acc = local_compute(acc, p.local_work) * 131 + connections.get();
          }
          auto sock =
              testutil::connect_retry(v, {server_host, p.port});
          ByteWriter w;
          w.u64(acc);
          Bytes request = w.take();
          request.resize(static_cast<std::size_t>(p.message_size), 0x7e);
          sock->output_stream().write(request);
          testutil::read_exactly(*sock,
                                 static_cast<std::size_t>(p.message_size));
          sock->close();
        }
      }
    });
  }
  for (auto& w : workers) w.join();
}

/// Builds the two-component session.  `server_djvm` / `client_djvm` select
/// the world: both true = closed (Table 1); exactly one = open (Table 2).
inline core::Session make_session(const WorkloadParams& p, bool server_djvm,
                                  bool client_djvm, bool keep_trace = false,
                                  bool record_sharding = true,
                                  bool replay_leasing = true,
                                  std::chrono::microseconds record_quantum =
                                      TuningConfig{}.record_quantum) {
  core::SessionConfig cfg;
  cfg.keep_trace = keep_trace;
  if (!record_sharding) cfg.tuning.record_stripes = 1;  // single section
  cfg.tuning.replay_leasing = replay_leasing;
  cfg.tuning.record_quantum = record_quantum;
  // Delays just wide enough to race connections; kept tiny so sleep time
  // does not dilute the CPU overhead the tables measure.
  cfg.net.connect_delay = {std::chrono::microseconds(0),
                           std::chrono::microseconds(20)};
  cfg.net.stream_delay = {std::chrono::microseconds(0),
                          std::chrono::microseconds(5)};
  cfg.net.segmentation.mss = 256;
  core::Session s(cfg);
  s.add_vm("server", 1, server_djvm,
           [p](vm::Vm& v) { server_main(v, p); });
  s.add_vm("client", 2, client_djvm,
           [p](vm::Vm& v) { client_main(v, p, 1); });
  return s;
}

/// One table row.
struct Row {
  int threads = 0;
  std::uint64_t critical_events = 0;
  std::uint64_t nw_events = 0;
  std::size_t log_bytes = 0;
  double rec_ovhd_pct = 0;
};

/// Renders the paper's table layout.
inline void print_table(const std::string& title,
                        const std::vector<Row>& rows) {
  std::printf("%s\n", title.c_str());
  std::printf("%9s %16s %10s %15s %12s\n", "#threads", "#critical events",
              "#nw events", "log size(bytes)", "rec ovhd(%)");
  for (const Row& r : rows) {
    std::printf("%9d %16llu %10llu %15zu %12.2f\n", r.threads,
                static_cast<unsigned long long>(r.critical_events),
                static_cast<unsigned long long>(r.nw_events), r.log_bytes,
                r.rec_ovhd_pct);
  }
  std::printf("\n");
}

}  // namespace djvu::bench
