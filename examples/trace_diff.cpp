// Trace diff: offline comparison of two execution traces.
//
//   ./examples/trace_diff A.djvutrace B.djvutrace   # diff two saved traces
//   ./examples/trace_diff                           # demo mode
//
// Demo mode records two executions of a racy program (under chaos mode, so
// their schedules differ), saves both traces, diffs them — showing exactly
// where the interleavings first diverged — and then diffs a record/replay
// pair to show the identical-traces case.
//
// A file argument may be a saved trace or any recording spool (a
// multi-threaded one included).  Both files are loaded whole and checked
// (every chunk CRC and the whole-file CRC; a torn file throws
// LogFormatError), so memory grows with the traces, not with the context.

#include <cstdio>
#include <cstdlib>

#include "core/session.h"
#include "record/trace_io.h"
#include "vm/shared_var.h"
#include "vm/thread.h"

namespace {

using namespace djvu;

core::Session racy_app() {
  core::SessionConfig cfg;
  cfg.tuning.chaos_prob = 0.15;  // force schedule diversity on a quiet machine
  core::Session s(cfg);
  s.add_vm("app", 1, true, [](vm::Vm& v) {
    vm::SharedVar<std::uint64_t> x(v, 0);
    std::vector<vm::VmThread> threads;
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back(v, [&x] {
        for (int i = 0; i < 30; ++i) x.set(x.get() + 1);
      });
    }
    for (auto& t : threads) t.join();
  });
  return s;
}

void print_diff(const record::TraceDiff& diff) {
  std::printf("%s\n", diff.description.c_str());
  if (diff.identical) return;
  std::printf("context A:\n");
  for (const auto& line : diff.context_a) std::printf("  %s\n", line.c_str());
  std::printf("context B:\n");
  for (const auto& line : diff.context_b) std::printf("  %s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3) {
    auto diff = record::diff_trace_files(argv[1], argv[2]);
    print_diff(diff);
    return diff.identical ? 0 : 1;
  }

  const char* t = std::getenv("TMPDIR");
  std::string dir = t ? t : "/tmp";
  std::printf("demo: two chaotic recordings of a racy counter\n\n");

  auto s1 = racy_app();
  auto rec1 = s1.record(101);
  core::Session::save_traces(rec1, dir);
  const std::string path1 = dir + "/app.djvutrace";
  auto trace1 = record::load_trace_from_file(path1);

  auto s2 = racy_app();
  auto rec2 = s2.record(202);
  record::TraceFile trace2;
  trace2.vm_id = rec2.vm("app").vm_id;
  trace2.records = rec2.vm("app").trace();
  const std::string path2 = dir + "/app-202.djvutrace";
  record::save_trace_to_file(trace2, path2);

  // The file path: both traces loaded from disk, then diffed.
  std::printf("--- recording 101 vs recording 202 ---\n");
  print_diff(record::diff_trace_files(path1, path2));

  std::printf("\n--- recording 101 vs its replay ---\n");
  auto s3 = racy_app();
  auto rep = s3.replay(rec1, 999);
  record::TraceFile replay_trace;
  replay_trace.vm_id = rep.vm("app").vm_id;
  replay_trace.records = rep.vm("app").trace();
  print_diff(record::diff_traces(trace1, replay_trace));

  std::remove(path1.c_str());
  std::remove(path2.c_str());
  return 0;
}
