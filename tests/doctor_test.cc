// Replay doctor and Chrome-trace exporter: the forensics surface a failed
// replay hands the developer (structured divergence reports, recorded-log
// cross-referencing, Perfetto timeline export).

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "core/session.h"
#include "record/chrome_trace.h"
#include "record/log_spool.h"
#include "record/log_stats.h"
#include "record/run_manifest.h"
#include "replay/doctor.h"
#include "vm/shared_var.h"
#include "vm/thread.h"

namespace djvu {
namespace {

using core::Session;

std::string temp_dir(const char* tag) {
  const char* t = std::getenv("TMPDIR");
  std::string dir = std::string(t ? t : "/tmp") + "/djvu_doctor_" + tag + "_" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

Session counter_app(int rounds) {
  core::SessionConfig cfg;
  cfg.tuning.stall_timeout = std::chrono::milliseconds(600);
  Session s(cfg);
  s.add_vm("app", 1, true, [rounds](vm::Vm& v) {
    vm::SharedVar<std::uint64_t> x(v, 0);
    std::vector<vm::VmThread> threads;
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back(v, [&x, rounds] {
        for (int i = 0; i < rounds; ++i) x.set(x.get() + 1);
      });
    }
    for (auto& t : threads) t.join();
  });
  return s;
}

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

void expect_balanced_json(const std::string& json) {
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(count_occurrences(json, "{"), count_occurrences(json, "}"));
  EXPECT_EQ(count_occurrences(json, "["), count_occurrences(json, "]"));
  EXPECT_EQ(count_occurrences(json, "\"") % 2, 0u);
}

/// Records `rounds` iterations to a spool dir and replays a variant with
/// `extra` more iterations, returning the caught report.
sched::DivergenceReport divergent_report(const std::string& spool_dir,
                                         int rounds, int extra) {
  auto rec_s = counter_app(rounds);
  core::RunSpec spec;
  spec.mode = core::RunSpec::Mode::kRecord;
  spec.seed = 41;
  spec.spool_dir = spool_dir;
  rec_s.run(spec);

  auto div_s = counter_app(rounds + extra);
  try {
    div_s.replay_from(spool_dir, 42);
  } catch (const sched::ReportedDivergenceError& e) {
    return e.report();
  }
  ADD_FAILURE() << "divergent replay completed cleanly";
  return {};
}

TEST(Doctor, CrossReferencesSpooledRecording) {
  const std::string dir = temp_dir("spool");
  sched::DivergenceReport report = divergent_report(dir, 20, 2);
  EXPECT_EQ(report.cause, DivergenceCause::kBeyondSchedule);
  EXPECT_TRUE(report.schedule_exhausted);

  replay::DoctorReport doc = replay::diagnose_spool(report, dir);
  EXPECT_TRUE(doc.log_found);
  EXPECT_EQ(doc.log_path, dir + "/app.djvuspool");
  EXPECT_TRUE(doc.clean_end);
  EXPECT_EQ(doc.truncated_bytes, 0u);
  // The recorded side of the blamed thread: 20 rounds x 2 events.
  EXPECT_EQ(doc.thread_recorded_events, 40u);
  EXPECT_GT(doc.thread_recorded_intervals, 0u);
  EXPECT_GT(doc.stats.critical_events, 0u);
  // The context window contains the blamed thread's final interval.
  ASSERT_TRUE(report.has_interval);
  bool found = false;
  for (const auto& c : doc.context) {
    found = found || (c.thread == report.thread &&
                      c.interval == report.expected_interval);
  }
  EXPECT_TRUE(found);
  EXPECT_FALSE(doc.notes.empty());

  const std::string text = replay::to_text(doc);
  EXPECT_NE(text.find("beyond-schedule"), std::string::npos);
  EXPECT_NE(text.find(dir), std::string::npos);
  expect_balanced_json(replay::to_json(doc));
  std::filesystem::remove_all(dir);
}

TEST(Doctor, MissingLogIsReportedNotThrown) {
  sched::DivergenceReport report;
  report.vm_id = 9;
  report.vm_name = "ghost";
  report.cause = DivergenceCause::kStall;
  replay::DoctorReport doc =
      replay::diagnose_spool(report, "/nonexistent/spool/dir");
  EXPECT_FALSE(doc.log_found);
  ASSERT_FALSE(doc.notes.empty());
  expect_balanced_json(replay::to_json(doc));
}

// A spool file that exists but is damaged beyond a torn tail (here not a
// spool at all) is a finding about the recording: the doctor names the
// file and carries the load error as a note instead of throwing.
TEST(Doctor, DamagedSpoolIsAFindingNotAThrow) {
  const std::string dir = temp_dir("garbage");
  const std::string file = dir + "/app.djvuspool";
  {
    std::FILE* f = std::fopen(file.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a DJVUSPL1 spool file at all", f);
    std::fclose(f);
  }
  sched::DivergenceReport report;
  report.vm_id = 1;
  report.vm_name = "app";
  report.cause = DivergenceCause::kBeyondSchedule;
  replay::DoctorReport doc;
  ASSERT_NO_THROW(doc = replay::diagnose_spool(report, dir));
  EXPECT_TRUE(doc.log_found);
  EXPECT_EQ(doc.log_path, file);
  bool carries_error = false;
  for (const auto& n : doc.notes) {
    carries_error = carries_error || n.find("bad magic") != std::string::npos;
  }
  EXPECT_TRUE(carries_error) << replay::to_text(doc);
  expect_balanced_json(replay::to_json(doc));
  std::filesystem::remove_all(dir);
}

// Found but not loaded is its own state: the damaged spool's report says
// so, and renders none of the recorded-side fields it never filled (no
// zero per-thread totals, no all-zero log shape, no clean-end verdict).
TEST(Doctor, DamagedSpoolRendersNoRecordedSide) {
  const std::string dir = temp_dir("unloaded");
  const std::string file = dir + "/app.djvuspool";
  {
    std::FILE* f = std::fopen(file.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("garbage, not a spool", f);
    std::fclose(f);
  }
  sched::DivergenceReport report;
  report.vm_id = 1;
  report.vm_name = "app";
  report.cause = DivergenceCause::kBeyondSchedule;
  const replay::DoctorReport doc = replay::diagnose_spool(report, dir);
  EXPECT_TRUE(doc.log_found);
  EXPECT_FALSE(doc.loaded);

  const std::string text = replay::to_text(doc);
  EXPECT_NE(text.find("not loaded"), std::string::npos) << text;
  EXPECT_EQ(text.find(" recorded: "), std::string::npos) << text;
  EXPECT_EQ(text.find("log shape"), std::string::npos) << text;

  const std::string json = replay::to_json(doc);
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"loaded\": false"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"clean_end\": true"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"stats\""), std::string::npos) << json;

  // A spool that loads is marked loaded and keeps its verdict.
  const std::string good = temp_dir("loaded");
  const replay::DoctorReport ok =
      replay::diagnose_spool(divergent_report(good, 5, 1), good);
  EXPECT_TRUE(ok.loaded);
  EXPECT_NE(replay::to_json(ok).find("\"clean_end\": true"),
            std::string::npos);
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(good);
}

TEST(Doctor, LocatesSpoolByVmIdWhenNameUnknown) {
  const std::string dir = temp_dir("byid");
  sched::DivergenceReport report = divergent_report(dir, 10, 1);
  report.vm_name.clear();  // force the header-scan fallback
  replay::DoctorReport doc = replay::diagnose_spool(report, dir);
  EXPECT_TRUE(doc.log_found);
  EXPECT_EQ(doc.log_path, dir + "/app.djvuspool");
  std::filesystem::remove_all(dir);
}

TEST(Doctor, AmbiguousVmIdMatchIsAFindingNotAGuess) {
  const std::string dir = temp_dir("ambig");
  sched::DivergenceReport report = divergent_report(dir, 10, 1);
  // A leftover spool from an earlier run sharing the dir, same vm id.
  std::filesystem::copy(dir + "/app.djvuspool", dir + "/stale.djvuspool");
  report.vm_name.clear();  // force the header-scan fallback

  // With the run manifest present the stale file cannot shadow anything:
  // the manifest names exactly one VM with this id, so the match is
  // authoritative despite the duplicate on disk.
  replay::DoctorReport via_manifest = replay::diagnose_spool(report, dir);
  EXPECT_TRUE(via_manifest.log_found);
  EXPECT_EQ(via_manifest.log_path, dir + "/app.djvuspool");

  // A legacy (pre-manifest) directory falls back to the header scan,
  // where the duplicate is a genuine N-way ambiguity.
  std::filesystem::remove(record::run_manifest_path(dir));
  replay::DoctorReport doc = replay::diagnose_spool(report, dir);
  EXPECT_FALSE(doc.log_found);
  ASSERT_FALSE(doc.notes.empty());
  // The finding names every candidate so the developer can pick.
  bool named_both = false;
  for (const auto& n : doc.notes) {
    named_both = named_both ||
                 (n.find("app.djvuspool") != std::string::npos &&
                  n.find("stale.djvuspool") != std::string::npos);
  }
  EXPECT_TRUE(named_both);
  expect_balanced_json(replay::to_json(doc));

  // With the name present the match is authoritative again.
  report.vm_name = "app";
  replay::DoctorReport named = replay::diagnose_spool(report, dir);
  EXPECT_TRUE(named.log_found);
  EXPECT_EQ(named.log_path, dir + "/app.djvuspool");
  std::filesystem::remove_all(dir);
}

TEST(ChromeTrace, OneTrackPerThreadAndBalancedJson) {
  auto s = counter_app(15);
  auto rec = s.record(43);
  const auto& info = rec.vm("app");
  ASSERT_TRUE(info.log.has_value());

  record::ChromeTraceVm vm;
  vm.name = "app";
  vm.vm_id = info.vm_id;
  vm.log = &*info.log;
  vm.trace = &info.trace();
  const std::string json = record::chrome_trace_json({vm});

  // One thread_name metadata entry per recorded thread.
  const std::size_t threads = info.log->schedule.per_thread.size();
  EXPECT_EQ(count_occurrences(json, "\"thread_name\""), threads);
  EXPECT_EQ(count_occurrences(json, "\"process_name\""), 1u);
  // One "X" slice per interval plus one per traced event.
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"X\""),
            info.log->schedule.interval_count() + info.trace().size());
  EXPECT_EQ(count_occurrences(json, "{"), count_occurrences(json, "}"));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(ChromeTrace, DivergenceMarkerAndFileExport) {
  const std::string dir = temp_dir("trace");
  auto s = counter_app(12);
  core::RunSpec spec;
  spec.mode = core::RunSpec::Mode::kRecord;
  spec.seed = 45;
  spec.spool_dir = dir;
  auto rec = s.run(spec);

  sched::DivergenceReport d;
  d.vm_id = rec.vm("app").vm_id;
  d.cause = DivergenceCause::kBeyondSchedule;
  d.thread = 1;
  d.gc = 5;
  const std::string path = dir + "/trace.json";
  // Spooled run: the exporter streams the log back from the spool file.
  core::export_chrome_trace(rec, path, &d);

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string json;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;) {
    json.append(buf, n);
  }
  std::fclose(f);
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"i\""), 1u);
  EXPECT_NE(json.find("divergence: beyond-schedule"), std::string::npos);
  EXPECT_EQ(count_occurrences(json, "{"), count_occurrences(json, "}"));
  std::filesystem::remove_all(dir);
}

TEST(LogStats, JsonRendering) {
  auto s = counter_app(10);
  auto rec = s.record(47);
  ASSERT_TRUE(rec.vm("app").log.has_value());
  const std::string json =
      record::to_json(record::compute_stats(*rec.vm("app").log));
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"critical_events\""), std::string::npos);
}

}  // namespace
}  // namespace djvu
