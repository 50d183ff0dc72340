// Tests for trace persistence/diffing (record/trace_io) and log statistics
// (record/log_stats).

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>

#include "core/session.h"
#include "record/log_spool.h"
#include "record/log_stats.h"
#include "record/serializer.h"
#include "record/trace_io.h"
#include "vm/shared_var.h"
#include "vm/thread.h"

namespace djvu::record {
namespace {

TraceFile sample_trace() {
  TraceFile t;
  t.vm_id = 3;
  GlobalCount gc = 0;
  for (int i = 0; i < 200; ++i) {
    sched::TraceRecord r;
    r.gc = gc;
    gc += 1 + (i % 5 == 0);  // occasional gap (other-VM-ish)
    r.thread = static_cast<ThreadNum>(i % 4);
    r.kind = (i % 7 == 0) ? sched::EventKind::kSockRead
                          : sched::EventKind::kSharedWrite;
    r.aux = static_cast<std::uint64_t>(i) * 0x9e3779b9;
    t.records.push_back(r);
  }
  return t;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/djvu_trace_test_" + name + ".djvutrace";
}

TraceFile file_round_trip(const TraceFile& t, const std::string& name) {
  const std::string path = temp_path(name);
  save_trace_to_file(t, path);
  TraceFile back = load_trace_from_file(path);
  std::remove(path.c_str());
  return back;
}

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, BytesView data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

/// Loads the damaged copy `data` of a saved trace file: true when it loads
/// exactly `original`, false when it throws LogFormatError.  Any other
/// outcome (another trace, another exception) fails the test.
bool loads_intact(BytesView data, const TraceFile& original,
                  const std::string& path) {
  write_file(path, data);
  try {
    EXPECT_EQ(load_trace_from_file(path), original);
    return true;
  } catch (const LogFormatError&) {
    return false;
  }
}

TEST(TraceIo, FileRoundTrip) {
  TraceFile t = sample_trace();
  EXPECT_EQ(file_round_trip(t, "roundtrip"), t);
  TraceFile empty;
  empty.vm_id = 9;
  EXPECT_EQ(file_round_trip(empty, "empty"), empty);
}

// Invariant I7 at file level: every single-byte flip and every truncation
// of a saved trace file either throws LogFormatError or loads exactly the
// original.  Damage before the index footer (header, chunk frames,
// payloads, the finish chunk) is always rejected — the chunk CRCs and the
// footer's whole-file CRC cover every byte there; damage inside the footer
// only costs the index, so the intact data loads.
TEST(TraceIo, EveryFlipAndTruncationRejectedOrIntact) {
  const TraceFile original = sample_trace();
  const std::string good_path = temp_path("good");
  const std::string bad_path = temp_path("bad");
  save_trace_to_file(original, good_path);
  const Bytes good = read_file(good_path);
  const std::uint64_t data_end = [&] {
    LogSource source(good_path);
    return source.index()->data_end;
  }();
  ASSERT_LT(data_end, good.size());

  for (std::size_t pos = 0; pos < good.size(); ++pos) {
    for (std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0xff}}) {
      Bytes bad = good;
      bad[pos] ^= mask;
      EXPECT_EQ(loads_intact(bad, original, bad_path), pos >= data_end)
          << "flip 0x" << std::hex << int{mask} << std::dec << " at " << pos;
    }
  }
  for (std::size_t keep = 0; keep < good.size(); ++keep) {
    EXPECT_EQ(loads_intact(BytesView(good.data(), keep), original, bad_path),
              keep >= data_end)
        << "truncated to " << keep << " bytes";
  }
  std::remove(good_path.c_str());
  std::remove(bad_path.c_str());
}

// Hand-built traces can share one counter value (recorded ones never do):
// the gc-delta encoding must handle delta 0, not just gaps.
TEST(TraceIo, DuplicateGcRecordsRoundTrip) {
  TraceFile t;
  t.vm_id = 1;
  for (int i = 0; i < 6; ++i) {
    sched::TraceRecord r;
    r.gc = static_cast<GlobalCount>(i / 3);  // 0,0,0,1,1,1
    r.thread = static_cast<ThreadNum>(i);
    r.kind = sched::EventKind::kSharedRead;
    r.aux = static_cast<std::uint64_t>(i);
    t.records.push_back(r);
  }
  EXPECT_EQ(file_round_trip(t, "dupgc"), t);
}

// Equal-gc records must come out in the same order whether the trace stayed
// in memory or went through a spool: both paths use sort_by_gc, and both
// keep the batches in append order.
TEST(TraceIo, TiesOrderedAlikeInMemoryAndSpooled) {
  constexpr GlobalCount kRecords = 1000;
  std::vector<std::vector<sched::TraceRecord>> batches(2);
  for (ThreadNum t = 0; t < 2; ++t) {
    for (GlobalCount gc = 0; gc < kRecords; ++gc) {
      batches[t].push_back({gc, t + 1, sched::EventKind::kSharedWrite,
                            gc * 2 + t});
    }
  }
  sched::ExecutionTrace memory;
  const std::string path = temp_path("ties");
  LogSpooler::Options options;
  options.path = path;
  LogSpooler spooler(1, options);
  for (const auto& batch : batches) {
    memory.append_batch(batch);
    spooler.trace_batch(batch);
  }
  spooler.finish(RecordStats{}, 0);
  spooler.close();
  const std::vector<sched::TraceRecord> spooled =
      load_spool(path).trace.records;
  std::remove(path.c_str());

  const std::vector<sched::TraceRecord> sorted = memory.sorted();
  ASSERT_EQ(sorted.size(), spooled.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    ASSERT_EQ(sorted[i], spooled[i]) << "position " << i;
  }
  EXPECT_EQ(sched::trace_digest(sorted), sched::trace_digest(spooled));
}

// Gc deltas, thread numbers and aux payloads at varint/word boundaries must
// survive the round trip bit-exactly.
TEST(TraceIo, VarintBoundaryValuesRoundTrip) {
  const std::uint64_t deltas[] = {0,          1,          0x7f,
                                  0x80,       0x3fff,     0x4000,
                                  0x1fffff,   0x200000,   0xffffffffull,
                                  1ull << 32, 1ull << 56};
  TraceFile t;
  t.vm_id = 0xffffffffu;
  GlobalCount gc = 0;
  int i = 0;
  for (std::uint64_t d : deltas) {
    gc += d;
    sched::TraceRecord r;
    r.gc = gc;
    r.thread = (i % 2 == 0) ? 0x7f : 0x80;  // one- vs two-byte varint
    r.kind = sched::EventKind::kSharedWrite;
    r.aux = (i % 2 == 0) ? ~std::uint64_t{0} : (1ull << 63);
    t.records.push_back(r);
    ++i;
  }
  TraceFile back = file_round_trip(t, "varint");
  EXPECT_EQ(back, t);
  EXPECT_EQ(back.records.back().gc, gc);
}

// A trace file holds its records in the trace order (sched::sort_by_gc),
// so saving refuses an unsorted trace instead of writing one.
TEST(TraceIo, UnsortedTraceRefused) {
  TraceFile t = sample_trace();
  std::swap(t.records[3], t.records[40]);
  EXPECT_THROW(save_trace_to_file(t, temp_path("unsorted")), UsageError);
}

TEST(TraceIo, DiffIdentical) {
  TraceFile t = sample_trace();
  auto diff = diff_traces(t, t);
  EXPECT_TRUE(diff.identical);
}

TEST(TraceIo, DiffFindsFirstDifference) {
  TraceFile a = sample_trace();
  TraceFile b = a;
  b.records[57].aux ^= 1;
  auto diff = diff_traces(a, b);
  EXPECT_FALSE(diff.identical);
  EXPECT_EQ(diff.position, 57u);
  EXPECT_FALSE(diff.context_a.empty());
  EXPECT_FALSE(diff.context_b.empty());
}

TEST(TraceIo, DiffLengthMismatch) {
  TraceFile a = sample_trace();
  TraceFile b = a;
  b.records.pop_back();
  auto diff = diff_traces(a, b);
  EXPECT_FALSE(diff.identical);
  EXPECT_EQ(diff.position, b.records.size());
}

/// A long trace spanning several spool chunks: gc i*2 for record i.
TraceFile long_trace(std::size_t n) {
  TraceFile t;
  t.vm_id = 5;
  for (std::size_t i = 0; i < n; ++i) {
    t.records.push_back({static_cast<GlobalCount>(2 * i),
                         static_cast<ThreadNum>(i % 3),
                         sched::EventKind::kSharedWrite, i * 0x9e3779b9});
  }
  return t;
}

TEST(TraceFileDiff, IdenticalFiles) {
  const TraceFile t = long_trace(5000);
  const std::string a = temp_path("diff_same_a");
  const std::string b = temp_path("diff_same_b");
  save_trace_to_file(t, a);
  save_trace_to_file(t, b);
  const TraceDiff diff = diff_trace_files(a, b);
  EXPECT_TRUE(diff.identical) << diff.description;
  EXPECT_NE(diff.description.find("5000 events"), std::string::npos);
  EXPECT_TRUE(diff_trace_files(a, a).identical);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(TraceFileDiff, FindsFirstDifferenceWithContext) {
  const TraceFile t = long_trace(5000);
  TraceFile u = t;
  u.records[3100].aux ^= 1;
  u.records[4000].thread = 7;
  const std::string a = temp_path("diff_first_a");
  const std::string b = temp_path("diff_first_b");
  save_trace_to_file(t, a);
  save_trace_to_file(u, b);
  const TraceDiff diff = diff_trace_files(a, b, /*context_events=*/2);
  EXPECT_FALSE(diff.identical);
  EXPECT_EQ(diff.position, 3100u);
  EXPECT_EQ(diff.description.rfind("first divergence at event 3100", 0), 0u)
      << diff.description;
  // Two matched records before, the divergent one, two after.
  ASSERT_EQ(diff.context_a.size(), 5u);
  ASSERT_EQ(diff.context_b.size(), 5u);
  EXPECT_EQ(diff.context_a[2], ">[3100] " + to_text(t.records[3100]));
  EXPECT_EQ(diff.context_b[2], ">[3100] " + to_text(u.records[3100]));

  // One side ending early is a length mismatch, not identity.
  TraceFile shorter = t;
  shorter.records.resize(4321);
  save_trace_to_file(shorter, b);
  const TraceDiff cut = diff_trace_files(a, b);
  EXPECT_FALSE(cut.identical);
  EXPECT_EQ(cut.position, 4321u);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

/// Records a 3-thread racy counter under chaos into `dir` and returns the
/// path of its spool.
std::string record_racy_spool(const std::string& dir, std::uint64_t seed) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  core::SessionConfig cfg;
  cfg.tuning.chaos_prob = 0.15;  // schedule diversity on a quiet machine
  core::Session s(cfg);
  s.add_vm("app", 1, true, [](vm::Vm& v) {
    vm::SharedVar<std::uint64_t> x(v, 0);
    std::vector<vm::VmThread> threads;
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back(v, [&x] {
        for (int i = 0; i < 200; ++i) x.set(x.get() + 1);
      });
    }
    for (auto& t : threads) t.join();
  });
  core::RunSpec spec;
  spec.mode = core::RunSpec::Mode::kRecord;
  spec.seed = seed;
  spec.spool_dir = dir;
  s.run(spec);
  return dir + "/app.djvuspool";
}

// A multi-threaded recording's spool holds each thread's trace batches as
// they were flushed, not in gc order.  diff_trace_files loads both sides
// into the trace order, so it reports exactly what diff_traces reports on
// the loaded traces.
TEST(TraceFileDiff, MultiThreadedSpoolsDiffLikeLoadedTraces) {
  const std::string a = record_racy_spool(
      testing::TempDir() + "/djvu_trace_test_mt_a", 11);
  const std::string b = record_racy_spool(
      testing::TempDir() + "/djvu_trace_test_mt_b", 22);

  // The premise: the spool's trace stream interleaves per-thread batches.
  std::vector<sched::TraceRecord> stream;
  {
    LogSource source(a);
    while (std::optional<SpoolItem> item = source.next()) {
      if (item->kind == SpoolItemKind::kTrace) {
        decode_trace_item(item->body, stream);
      }
    }
  }
  ASSERT_FALSE(sched::is_sorted_by_gc(stream));

  const TraceDiff loaded =
      diff_traces(load_spool(a).trace, load_spool(b).trace, 2);
  EXPECT_FALSE(loaded.identical) << "the two seeds interleaved alike";
  const TraceDiff files = diff_trace_files(a, b, 2);
  EXPECT_EQ(files.identical, loaded.identical);
  EXPECT_EQ(files.position, loaded.position);
  EXPECT_EQ(files.description, loaded.description);
  EXPECT_EQ(files.context_a, loaded.context_a);
  EXPECT_EQ(files.context_b, loaded.context_b);
  EXPECT_TRUE(diff_trace_files(a, a).identical);
  std::filesystem::remove_all(std::filesystem::path(a).parent_path());
  std::filesystem::remove_all(std::filesystem::path(b).parent_path());
}

TEST(TraceIo, SessionSaveTraces) {
  core::Session s;
  s.add_vm("app", 1, true, [](vm::Vm& v) {
    vm::SharedVar<std::uint64_t> x(v, 0);
    for (int i = 0; i < 10; ++i) x.set(x.get() + 1);
  });
  auto rec = s.record(1);
  std::string dir = testing::TempDir();
  core::Session::save_traces(rec, dir);
  TraceFile loaded = load_trace_from_file(dir + "/app.djvutrace");
  EXPECT_EQ(loaded.vm_id, rec.vm("app").vm_id);
  EXPECT_EQ(loaded.records.size(), rec.vm("app").trace().size());
  // Replay trace diffs clean against the loaded record trace.
  auto rep = s.replay(rec, 2);
  TraceFile replay_trace{rep.vm("app").vm_id, rep.vm("app").trace()};
  EXPECT_TRUE(diff_traces(loaded, replay_trace).identical);
  std::remove((dir + "/app.djvutrace").c_str());
}

TEST(LogStats, CountsScheduleShape) {
  VmLog log;
  log.vm_id = 1;
  log.stats.critical_events = 120;
  log.schedule.per_thread = {
      {{0, 49}, {100, 119}},  // lengths 50, 20
      {{50, 99}},             // length 50
  };
  LogStats s = compute_stats(log);
  EXPECT_EQ(s.threads, 2u);
  EXPECT_EQ(s.intervals, 3u);
  EXPECT_EQ(s.min_interval_len, 20u);
  EXPECT_EQ(s.max_interval_len, 50u);
  EXPECT_DOUBLE_EQ(s.mean_interval_len, 40.0);
  EXPECT_DOUBLE_EQ(s.events_per_interval, 40.0);
  EXPECT_GT(s.schedule_bytes, 0u);
  EXPECT_GT(s.serialized_bytes, s.schedule_bytes);
}

TEST(LogStats, CountsNetworkShape) {
  VmLog log;
  log.vm_id = 1;
  NetworkLogEntry read;
  read.kind = sched::EventKind::kSockRead;
  read.event_num = 0;
  read.value = 5;
  read.data = to_bytes("12345");
  log.network.append(0, std::move(read));
  NetworkLogEntry err;
  err.kind = sched::EventKind::kSockConnect;
  err.event_num = 1;
  err.error = NetErrorCode::kConnectionRefused;
  log.network.append(0, std::move(err));

  LogStats s = compute_stats(log);
  EXPECT_EQ(s.network_entries, 2u);
  EXPECT_EQ(s.content_bytes, 5u);
  EXPECT_EQ(s.exception_entries, 1u);
  EXPECT_EQ(s.entries_by_kind.at("sock-read"), 1u);
  EXPECT_EQ(s.entries_by_kind.at("sock-connect"), 1u);

  std::string text = to_text(s);
  EXPECT_NE(text.find("sock-read"), std::string::npos);
  EXPECT_NE(text.find("1 exceptions"), std::string::npos);
}

// Scheduler self-measurements ride along with a run and can be attached to
// the log statistics.  Replay must show O(1) wakeups per critical event —
// the targeted-wakeup acceptance metric.
TEST(LogStats, AttachesSchedulerSnapshot) {
  core::Session s;
  s.add_vm("app", 1, true, [](vm::Vm& v) {
    vm::SharedVar<std::uint64_t> x(v, 0);
    vm::VmThread t(v, [&x] {
      for (int i = 0; i < 50; ++i) x.set(x.get() + 1);
    });
    for (int i = 0; i < 50; ++i) x.set(x.get() + 1);
    t.join();
  });
  auto rec = s.record(1);
  // Record mode counts GC-critical sections, never replay ticks.
  EXPECT_GE(rec.vm("app").sched.sections, 100u);
  EXPECT_EQ(rec.vm("app").sched.ticks, 0u);

  auto rep = s.replay(rec, 2);
  const sched::SchedStats& rs = rep.vm("app").sched;
  // With interval leasing (the default) events complete under leases with
  // one publication per interval; ticks only count non-leased events.
  EXPECT_GE(rs.ticks + rs.leased_events, 100u);
  EXPECT_GT(rs.leases_taken, 0u);
  EXPECT_LE(rs.lease_publish_count, rs.leased_events);
  // One await per tick plus one per lease — never one per leased event.
  EXPECT_EQ(rs.waits_fast + rs.waits_parked, rs.ticks + rs.leases_taken);
  EXPECT_LE(rs.wakeups_delivered + rs.wakeups_spurious,
            rs.ticks + rs.lease_publish_count);
  EXPECT_EQ(rs.stall_detections, 0u);

  LogStats stats = compute_stats(*rec.vm("app").log, rs);
  EXPECT_TRUE(stats.has_sched);
  EXPECT_NE(to_text(stats).find("scheduler:"), std::string::npos);
  EXPECT_NE(to_text(stats).find("wakeups:"), std::string::npos);
}

// On a real recording: the mean interval length times the interval count
// accounts for every critical event (partition property, I1 again but via
// the stats path).
TEST(LogStats, RealRecordingPartition) {
  core::Session s;
  s.add_vm("app", 1, true, [](vm::Vm& v) {
    vm::SharedVar<std::uint64_t> x(v, 0);
    std::vector<vm::VmThread> threads;
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back(v, [&x] {
        for (int i = 0; i < 100; ++i) x.set(x.get() + 1);
      });
    }
    for (auto& t : threads) t.join();
  });
  auto rec = s.record(5);
  LogStats stats = compute_stats(*rec.vm("app").log);
  EXPECT_NEAR(stats.mean_interval_len * static_cast<double>(stats.intervals),
              static_cast<double>(stats.critical_events), 0.5);
}

}  // namespace
}  // namespace djvu::record
