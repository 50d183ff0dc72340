// Incident runner: the flight-recorder workflow end to end.
//
//   ./examples/incident_runner [OUT_DIR]        # demo + self-verify
//   ./examples/incident_runner --diagnose DIR   # inspect a sealed bundle
//
// The demo records a phased workload in flight-recorder mode — sealed
// chunks land in a bounded on-disk retention ring, the oldest evicted as
// new ones seal, with a checkpoint anchor per phase barrier keeping the
// retained tail replayable — then:
//
//   1. verifies eviction actually happened and the sealed tail replays
//      cleanly from its newest anchor (Checkpointer::resume_at driven by
//      the kAnchor items read back out of the tail itself),
//   2. replays a *divergent* variant against the tail; the divergence makes
//      Session seal an incident bundle (spool tail + DivergenceReport JSON
//      + doctor report + Perfetto trace + manifest) under OUT_DIR/incidents,
//   3. diagnoses the bundle (the --diagnose path), and
//   4. replays the bundle's captured tail from the bundle itself — the
//      bundle is self-contained evidence, not a pointer into a live
//      directory a later run may clobber.
//
// Self-verifying: exits non-zero unless every step holds.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "checkpoint/checkpoint.h"
#include "core/incident.h"
#include "core/session.h"
#include "record/log_spool.h"
#include "record/run_manifest.h"
#include "vm/shared_var.h"
#include "vm/thread.h"

namespace {

using namespace djvu;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "CHECK failed at %s:%d: %s\n", __FILE__,    \
                   __LINE__, #cond);                                   \
      std::exit(1);                                                    \
    }                                                                  \
  } while (0)

constexpr int kPhases = 3;
constexpr int kWorkers = 2;
constexpr int kIncrements = 1200;
constexpr int kTailRounds = 400;

/// The phased workload: kPhases rounds of racy parallel increments, a
/// checkpoint barrier (= flight anchor) after each, then un-anchored tail
/// work.  `tail_extra` perturbs only the tail — a divergence that lands
/// *after* the newest anchor, inside the retained history.  When
/// `resume_log` is set (replay of a tail whose earlier chunks were
/// evicted), the run skips phases 0..kPhases-1 and resumes from the last
/// barrier.
core::Session make_session(const core::SessionConfig& cfg, int tail_extra,
                           const checkpoint::CheckpointLog* resume_log) {
  core::Session s(cfg);
  s.add_vm("app", 1, true, [tail_extra, resume_log](vm::Vm& v) {
    vm::SharedVar<std::uint64_t> counter(v, 0);
    checkpoint::Checkpointer cp(v);
    cp.track_var("counter", counter);
    int start_phase = 0;
    if (resume_log != nullptr && v.mode() == vm::Mode::kReplay) {
      cp.resume_at(kPhases - 1, *resume_log);
      cp.barrier(kPhases - 1);
      start_phase = kPhases;
    }
    for (int phase = start_phase; phase < kPhases; ++phase) {
      std::vector<vm::VmThread> workers;
      for (int w = 0; w < kWorkers; ++w) {
        workers.emplace_back(v, [&counter] {
          for (int i = 0; i < kIncrements; ++i) {
            counter.set(counter.get() + 1);  // racy
          }
        });
      }
      for (auto& w : workers) w.join();
      cp.barrier(static_cast<std::uint32_t>(phase));
    }
    // Tail work after the last anchor.
    std::vector<vm::VmThread> workers;
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back(v, [&counter, tail_extra] {
        for (int i = 0; i < kTailRounds + tail_extra; ++i) {
          counter.set(counter.get() + 1);
        }
      });
    }
    for (auto& w : workers) w.join();
  });
  return s;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// The --diagnose path: prints a bundle's manifest, integrity facts and
/// doctor report.  Returns 0 when the bundle is structurally sound.
int diagnose_bundle(const std::string& bundle_dir) {
  core::IncidentBundle bundle;
  try {
    bundle = core::read_incident_manifest(bundle_dir);
  } catch (const Error& e) {
    std::fprintf(stderr, "not an incident bundle: %s\n", e.what());
    return 1;
  }
  std::printf("incident bundle: %s\n", bundle_dir.c_str());
  std::printf("  kind: %s\n", bundle.kind.c_str());
  bool sound = !bundle.tails.empty();
  for (const core::IncidentTail& t : bundle.tails) {
    const std::string path = bundle_dir + "/spool/" + t.name;
    std::printf("  tail %s:", t.name.c_str());
    if (t.from_ring) std::printf(" assembled-from-ring");
    if (t.truncated_bytes > 0) {
      std::printf(" truncated_bytes=%llu",
                  static_cast<unsigned long long>(t.truncated_bytes));
    }
    if (t.marker_signal != 0) {
      std::printf(" fatal-signal=%d", t.marker_signal);
    }
    try {
      record::LogSource source(path);
      std::size_t items = 0;
      while (source.next()) ++items;
      std::printf(" items=%zu %s", items,
                  source.clean_end() ? "clean-end" : "torn-tail");
      const auto anchors = record::read_spool_anchors(path);
      std::printf(" anchors=%zu", anchors.size());
      if (!anchors.empty()) {
        std::printf(" (newest: phase %u at gc %llu)", anchors.back().phase,
                    static_cast<unsigned long long>(anchors.back().gc));
      }
    } catch (const Error& e) {
      std::printf(" UNREADABLE (%s)", e.what());
      sound = false;
    }
    std::printf("\n");
  }
  for (const char* artifact :
       {"divergence.json", "report.txt", "report.json", "trace.json"}) {
    const std::string path = bundle_dir + "/" + artifact;
    std::error_code ec;
    if (std::filesystem::exists(path, ec)) {
      std::printf("  artifact: %s (%llu bytes)\n", artifact,
                  static_cast<unsigned long long>(
                      std::filesystem::file_size(path, ec)));
    }
  }
  const std::string report = read_file(bundle_dir + "/report.txt");
  if (!report.empty()) {
    std::printf("\n--- doctor report ---\n%s\n", report.c_str());
  }
  return sound ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--diagnose") == 0) {
    return diagnose_bundle(argv[2]);
  }

  const char* tmp = std::getenv("TMPDIR");
  const std::string out_dir =
      argc > 1 ? argv[1]
               : (std::string(tmp ? tmp : "/tmp") + "/incident_runner");
  const std::string spool_dir = out_dir + "/spool";
  const std::string incident_dir = out_dir + "/incidents";
  std::filesystem::remove_all(out_dir);
  std::filesystem::create_directories(out_dir);

  core::SessionConfig cfg;
  cfg.tuning.stall_timeout = std::chrono::seconds(2);
  cfg.tuning.spool_dir = spool_dir;
  cfg.tuning.flight_recorder = true;
  cfg.tuning.retention_chunks = 4;
  cfg.tuning.spool_chunk_bytes = 1024;  // many small chunks -> eviction
  cfg.tuning.incident_dir = incident_dir;

  // 1. Record always-on with bounded retention.
  auto recorder = make_session(cfg, /*tail_extra=*/0, nullptr);
  auto rec = recorder.record(/*seed_override=*/7);
  const record::SpoolStats stats = rec.vm("app").spool;
  std::printf(
      "recorded: %llu chunks sealed, %llu evicted, %llu retained, "
      "%llu anchor chunk(s)\n",
      static_cast<unsigned long long>(stats.chunks_written),
      static_cast<unsigned long long>(stats.evicted_chunks),
      static_cast<unsigned long long>(stats.retained_chunks),
      static_cast<unsigned long long>(stats.anchor_chunks));
  CHECK(stats.evicted_chunks >= 1);   // retention actually bounded the disk
  CHECK(stats.anchor_chunks >= 1);    // barriers shipped anchors
  const std::string tail_path = spool_dir + "/app.djvuspool";
  CHECK(std::filesystem::exists(tail_path));
  CHECK(!std::filesystem::exists(record::flight_ring_dir(tail_path)));
  CHECK(record::run_manifest_exists(spool_dir));

  // 2. The sealed tail carries its own resume points.
  const auto anchors = record::read_spool_anchors(tail_path);
  CHECK(!anchors.empty());
  CHECK(anchors.back().phase == kPhases - 1);
  const checkpoint::CheckpointLog cp_log{1, anchors};
  std::printf("tail carries %zu anchor(s); resuming from phase %u\n",
              anchors.size(), anchors.back().phase);

  // 3. The tail replays cleanly from its newest anchor.
  auto clean = make_session(cfg, /*tail_extra=*/0, &cp_log);
  clean.replay_from(spool_dir, /*seed_override=*/99);
  std::printf("tail replayed cleanly across the evicted prefix\n");

  // 4. A divergent variant seals an incident bundle.
  auto divergent = make_session(cfg, /*tail_extra=*/2, &cp_log);
  bool diverged = false;
  try {
    divergent.replay_from(spool_dir, /*seed_override=*/99);
  } catch (const sched::ReportedDivergenceError& e) {
    diverged = true;
    std::printf("divergence (as intended): %s\n", e.what());
  }
  CHECK(diverged);
  const std::string bundle_dir = divergent.last_incident_dir();
  CHECK(!bundle_dir.empty());
  std::printf("sealed incident bundle: %s\n\n", bundle_dir.c_str());

  // 5. Diagnose the bundle — same code path as --diagnose.
  CHECK(diagnose_bundle(bundle_dir) == 0);
  const core::IncidentBundle bundle =
      core::read_incident_manifest(bundle_dir);
  CHECK(bundle.kind == "divergence");
  CHECK(!bundle.tails.empty());
  const std::string divergence_json = read_file(bundle_dir +
                                                "/divergence.json");
  CHECK(divergence_json.find("\"cause\"") != std::string::npos);
  const std::string report_json = read_file(bundle_dir + "/report.json");
  CHECK(report_json.find("\"cause\"") != std::string::npos);
  const std::string trace = read_file(bundle_dir + "/trace.json");
  CHECK(trace.find("\"traceEvents\"") != std::string::npos);

  // 6. The bundle replays on its own: the captured tail, not the live dir.
  auto from_bundle = make_session(cfg, /*tail_extra=*/0, &cp_log);
  from_bundle.replay_from(bundle_dir + "/spool", /*seed_override=*/123);
  std::printf("\nbundle's captured tail replayed cleanly\n");

  std::printf("\nincident runner OK\n");
  return 0;
}
