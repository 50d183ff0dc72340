// Reproduces Table 1 (closed-world results): per-component
// #critical events, #nw events, log size and record overhead for
// 2..32 threads per component, both components on DJVMs.
//
// Absolute numbers differ from the paper's 300 MHz/Windows-NT testbed; the
// shape to check (EXPERIMENTS.md): #nw events identical to the open-world
// run, log size small and content-independent, record overhead growing
// super-linearly with the thread count, client overhead above server
// overhead.

// `--no-sharding` records through the paper-faithful single GC-critical
// section (`record_stripes = 1`) instead of the 64-stripe lock table (the
// EXPERIMENTS.md ablation rows compare the two).  `--no-quantum` records
// with `record_quantum = 0`, the finest interleaving the hardware
// produces, instead of the default stripe quantum.

#include <cstdio>
#include <cstring>

#include "bench/workload.h"
#include "record/serializer.h"

namespace djvu::bench {
namespace {

WorkloadParams params_for(int threads) {
  WorkloadParams p;
  p.threads = threads;
  p.sessions = 2;
  p.connects_per_session = 2;
  // Sized so the 2-thread row lands near the paper's ~500k critical events
  // and the growth with threads is mild (the paper's fixed-dominant shape).
  p.fixed_iters = 118000;
  p.per_thread_iters = 2200;
  return p;
}

}  // namespace
}  // namespace djvu::bench

int main(int argc, char** argv) {
  using namespace djvu;
  using namespace djvu::bench;

  bool sharding = true;
  std::chrono::microseconds quantum = TuningConfig{}.record_quantum;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-sharding") == 0) sharding = false;
    if (std::strcmp(argv[i], "--no-quantum") == 0) {
      quantum = std::chrono::microseconds(0);
    }
  }

  std::printf("Table 1 reproduction: closed-world results "
              "(both components on DJVMs, %s record sections, record "
              "quantum %lld us)\n\n",
              sharding ? "sharded" : "single",
              static_cast<long long>(quantum.count()));

  std::vector<Row> server_rows, client_rows;
  for (int threads : {2, 4, 8, 16, 32}) {
    WorkloadParams p = params_for(threads);
    core::Session s = make_session(p, /*server_djvm=*/true,
                                   /*client_djvm=*/true,
                                   /*keep_trace=*/false, sharding,
                                   /*replay_leasing=*/true, quantum);
    const int reps = threads <= 8 ? 5 : 3;
    // Per-component baselines and record times (the paper reports server
    // and client overheads separately).
    double native_server = 1e100, native_client = 1e100;
    for (int i = 0; i < reps; ++i) {
      auto r = s.run_native();
      native_server = std::min(native_server, r.vm("server").wall_seconds);
      native_client = std::min(native_client, r.vm("client").wall_seconds);
    }
    double rec_server = 1e100, rec_client = 1e100;
    core::RunResult rec;
    for (int i = 0; i < reps; ++i) {
      auto r = s.record(1234 + i);
      if (r.vm("server").wall_seconds + r.vm("client").wall_seconds <
          rec_server + rec_client) {
        rec_server = r.vm("server").wall_seconds;
        rec_client = r.vm("client").wall_seconds;
        rec = std::move(r);
      }
    }

    for (const char* component : {"server", "client"}) {
      const auto& info = rec.vm(component);
      const bool is_server = std::string(component) == "server";
      Row row;
      row.threads = threads;
      row.critical_events = info.critical_events;
      row.nw_events = info.network_events;
      row.log_bytes = record::log_payload_size(*info.log);
      row.rec_ovhd_pct =
          is_server ? 100.0 * (rec_server - native_server) / native_server
                    : 100.0 * (rec_client - native_client) / native_client;
      (is_server ? server_rows : client_rows).push_back(row);
    }
    std::fprintf(stderr,
                 "[table1] threads=%d native(s/c)=%.3f/%.3f "
                 "record(s/c)=%.3f/%.3f\n",
                 threads, native_server, native_client, rec_server,
                 rec_client);
  }

  print_table("(a) Server", server_rows);
  print_table("(b) Client", client_rows);
  return 0;
}
