// Flight-recorder mode: bounded always-on recording (retention ring,
// checkpoint anchors, seal-time assembly) plus the spool-lifecycle
// bugfixes that ride along.
//
// Covers:
//   * anchor item codec roundtrip;
//   * eviction order and retention bounds on the on-disk ring, and that
//     the sealed tail's index footer agrees with a full-scan rebuild
//     (index consistency after eviction);
//   * the byte bound (retention_bytes alone): retained bytes stay within
//     it once an anchor exists, except for anchor-protected chunks, and
//     the tail keeps everything from its first anchor on, loads clean and
//     resumes;
//   * tail-still-replayable across eviction: a phased workload whose
//     earlier chunks were evicted resumes from the newest anchor carried
//     by the tail itself, in both order modes (causal mode has no
//     anchors — the degraded mode is no eviction, full replay);
//   * abnormal seal (no finish) during active recording assembles a
//     recover-to-prefix tail, and seal_incident captures it;
//   * assemble_flight_tail on a crash-leftover ring with a torn chunk
//     reports truncated_bytes instead of silently shortening the tail;
//   * re-record-into-the-same-directory: manifested spools are cleared,
//     unmanifested spools are refused, and the doctor resolves files
//     through the manifest instead of the ambiguous vm-id scan;
//   * writer-failure wakeup: a fault-injected writer death wakes producers
//     parked on queue backpressure so their next handoff rethrows, and
//     finish() racing the failure stays rethrowable.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "core/incident.h"
#include "core/session.h"
#include "record/log_spool.h"
#include "record/run_manifest.h"
#include "record/spool_index.h"
#include "replay/doctor.h"
#include "vm/shared_var.h"
#include "vm/thread.h"

namespace djvu {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "flight_recorder_test_" + tag;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<sched::TraceRecord> trace_batch_at(GlobalCount start, int n) {
  std::vector<sched::TraceRecord> records;
  for (int i = 0; i < n; ++i) {
    records.push_back({start + static_cast<GlobalCount>(i),
                       static_cast<ThreadNum>(i % 3),
                       sched::EventKind::kSharedRead,
                       start * 7 + static_cast<std::uint64_t>(i)});
  }
  return records;
}

// --- anchor codec -----------------------------------------------------------

TEST(FlightRecorder, AnchorItemRoundtrip) {
  record::SpoolAnchor anchor;
  anchor.phase = 3;
  anchor.gc = 123456;
  anchor.threads_created = 9;
  anchor.main_event_num = 42;
  anchor.state["counter"] = Bytes{1, 2, 3, 4};
  anchor.state["empty"] = Bytes{};
  EXPECT_EQ(record::decode_anchor_item(record::encode_anchor_item(anchor)),
            anchor);
  EXPECT_THROW(record::decode_anchor_item(Bytes{}), LogFormatError);
}

// --- retention ring: eviction order + index consistency ---------------------

TEST(FlightRecorder, EvictionKeepsNewestAndIndexStaysConsistent) {
  const std::string dir = fresh_dir("evict");
  const std::string path = dir + "/vm.djvuspool";

  record::LogSpooler::Options opts;
  opts.path = path;
  opts.chunk_bytes = 256;  // many small chunks
  opts.flight_recorder = true;
  opts.retention_chunks = 3;

  record::RecordStats stats;
  {
    record::LogSpooler spooler(7, opts);
    // Interleave data and anchors so the eviction horizon keeps advancing.
    GlobalCount gc = 0;
    for (int round = 0; round < 10; ++round) {
      spooler.trace_batch(trace_batch_at(gc, 40));
      gc += 40;
      record::SpoolAnchor anchor;
      anchor.phase = static_cast<std::uint32_t>(round);
      anchor.gc = gc;
      spooler.anchor(anchor);
    }
    stats.critical_events = gc;
    spooler.finish(stats, 3);
    spooler.close();

    record::SpoolStats s = spooler.stats();
    EXPECT_GE(s.anchor_chunks, 10u);
    EXPECT_GE(s.evicted_chunks, 1u);  // retention actually bit
    EXPECT_GT(s.chunks_written, s.retained_chunks);
    EXPECT_EQ(s.evicted_chunks + s.retained_chunks, s.chunks_written);
  }
  // The ring directory is gone after a clean seal.
  EXPECT_FALSE(fs::exists(record::flight_ring_dir(path)));
  EXPECT_TRUE(fs::exists(path));

  // Eviction dropped the *oldest* chunks: the surviving tail's trace
  // starts past gc 0 but still reaches the final event.
  record::SpoolContents contents = record::load_spool(path);
  ASSERT_FALSE(contents.trace.records.empty());
  EXPECT_GT(contents.trace.records.front().gc, 0u);
  EXPECT_EQ(contents.trace.records.back().gc, 399u);

  // The anchors that survived are a suffix of the ones shipped.
  const auto anchors = record::read_spool_anchors(path);
  ASSERT_FALSE(anchors.empty());
  EXPECT_EQ(anchors.back().phase, 9u);
  for (std::size_t i = 1; i < anchors.size(); ++i) {
    EXPECT_EQ(anchors[i].phase, anchors[i - 1].phase + 1);
  }

  // Index consistency after eviction: the sealed footer must agree with a
  // full-scan rebuild of the assembled file, entry for entry.
  const record::SpoolIndex rebuilt = record::build_spool_index(path);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  auto footer = record::read_spool_footer(
      f, static_cast<std::uint64_t>(fs::file_size(path)));
  std::fclose(f);
  ASSERT_TRUE(footer.has_value());
  EXPECT_EQ(footer->chunks, rebuilt.chunks);
}

TEST(FlightRecorder, NoAnchorMeansNoEviction) {
  // Without a single anchor the ring has no safe eviction horizon: the
  // degraded mode is an unbounded ring (correct, just not bounded), never
  // a tail that cannot replay.
  const std::string dir = fresh_dir("no_anchor");
  record::LogSpooler::Options opts;
  opts.path = dir + "/vm.djvuspool";
  opts.chunk_bytes = 256;
  opts.flight_recorder = true;
  opts.retention_chunks = 2;
  record::LogSpooler spooler(7, opts);
  for (int round = 0; round < 8; ++round) {
    spooler.trace_batch(trace_batch_at(round * 40, 40));
  }
  record::RecordStats stats;
  stats.critical_events = 320;
  spooler.finish(stats, 3);
  spooler.close();
  record::SpoolStats s = spooler.stats();
  EXPECT_EQ(s.evicted_chunks, 0u);
  EXPECT_EQ(s.retained_chunks, s.chunks_written);
  record::SpoolContents contents = record::load_spool(opts.path);
  ASSERT_FALSE(contents.trace.records.empty());
  EXPECT_EQ(contents.trace.records.front().gc, 0u);
}

/// The byte bound on a sealed flight tail: its ring chunks (all but the
/// final finish chunk) fit `bound`, unless every one of them sits at or
/// after the newest anchor, which eviction may never cross.
void expect_byte_bound(const std::string& path, std::uint64_t bound) {
  const record::SpoolIndex index = record::build_spool_index(path);
  ASSERT_GE(index.chunks.size(), 2u);
  const std::uint8_t anchor_bit = record::spool_kind_bit(
      static_cast<std::uint8_t>(record::SpoolItemKind::kAnchor));
  std::uint64_t bytes = 0;
  std::size_t newest_anchor = 0;
  for (std::size_t i = 0; i + 1 < index.chunks.size(); ++i) {
    bytes += record::kChunkFrameBytes + index.chunks[i].stored_len;
    if ((index.chunks[i].kinds & anchor_bit) != 0) newest_anchor = i;
  }
  if (bytes > bound) {
    EXPECT_EQ(newest_anchor, 0u) << bytes << " retained bytes > " << bound
                                 << " with evictable chunks left";
  }
}

TEST(FlightRecorder, ByteBoundEvictsOnceAnchored) {
  const std::string dir = fresh_dir("byte_bound");
  const std::string path = dir + "/vm.djvuspool";
  constexpr std::uint64_t kBound = 1500;
  constexpr int kRounds = 12;
  record::LogSpooler::Options opts;
  opts.path = path;
  opts.chunk_bytes = 256;  // one 40-record trace batch (~450 B) per chunk
  opts.flight_recorder = true;
  opts.retention_chunks = 0;  // the byte bound is the only bound
  opts.retention_bytes = kBound;

  GlobalCount gc = 0;
  {
    record::LogSpooler spooler(7, opts);
    // Anchor before any data, and keep each anchor-to-anchor stretch far
    // below the bound: then no chunk is ever protected beyond it, and
    // every stats() sample must respect it.
    spooler.anchor(record::SpoolAnchor{});
    for (int round = 1; round <= kRounds; ++round) {
      spooler.trace_batch(trace_batch_at(gc, 40));
      gc += 40;
      record::SpoolAnchor anchor;
      anchor.phase = static_cast<std::uint32_t>(round);
      anchor.gc = gc;
      spooler.anchor(anchor);
      EXPECT_LE(spooler.stats().retained_bytes, kBound) << round;
    }
    // Un-anchored work after the newest anchor.
    spooler.trace_batch(trace_batch_at(gc, 40));
    gc += 40;
    record::RecordStats stats;
    stats.critical_events = gc;
    spooler.finish(stats, 3);
    spooler.close();
    const record::SpoolStats s = spooler.stats();
    EXPECT_GE(s.evicted_chunks, 1u);  // the byte bound actually bit
    EXPECT_GT(s.evicted_bytes, 0u);
    EXPECT_EQ(s.evicted_chunks + s.retained_chunks, s.chunks_written);
  }
  expect_byte_bound(path, kBound);

  // The tail starts at a surviving anchor and holds every record from
  // there on — the newest anchor and the work after it included.
  const auto anchors = record::read_spool_anchors(path);
  ASSERT_FALSE(anchors.empty());
  EXPECT_EQ(anchors.back().phase, static_cast<std::uint32_t>(kRounds));
  EXPECT_GT(anchors.front().gc, 0u);
  const record::SpoolContents contents = record::load_spool(path);
  EXPECT_TRUE(contents.clean_end);
  ASSERT_FALSE(contents.trace.records.empty());
  EXPECT_EQ(contents.trace.records.front().gc, anchors.front().gc);
  EXPECT_EQ(contents.trace.records.size(), gc - anchors.front().gc);
  EXPECT_EQ(contents.trace.records.back().gc, gc - 1);
}

// --- tail replayable across eviction (session + checkpoint anchors) ---------

constexpr int kPhases = 3;
constexpr int kWorkers = 2;
constexpr int kIncrements = 800;
constexpr int kTailRounds = 300;

/// Phased racy-counter workload with a checkpoint barrier (= flight
/// anchor) per phase and un-anchored tail work after the last barrier.
/// `resume_log` (replay only) skips the evicted phases and resumes from
/// the last barrier; `tail_extra` perturbs only the tail.
core::Session make_phased(const core::SessionConfig& base, int tail_extra,
                          const checkpoint::CheckpointLog* resume_log) {
  core::SessionConfig cfg = base;
  // kGlobalConflict barriers hold every stripe lock at once; TSan's
  // deadlock detector aborts past 64 simultaneously-held mutexes, so keep
  // the stripe count under that when this suite runs sanitized.
  cfg.tuning.record_stripes = 16;
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
            counter.set(counter.get() + 1);
          }
        });
      }
      for (auto& w : workers) w.join();
      cp.barrier(static_cast<std::uint32_t>(phase));
    }
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

TEST(FlightTailReplay, ResumesFromNewestAnchorAcrossEviction) {
  const std::string dir = fresh_dir("tail");
  core::SessionConfig cfg;
  cfg.tuning.stall_timeout = std::chrono::seconds(5);
  cfg.tuning.spool_dir = dir;
  cfg.tuning.flight_recorder = true;
  cfg.tuning.retention_chunks = 4;
  cfg.tuning.spool_chunk_bytes = 1024;

  auto recorder = make_phased(cfg, 0, nullptr);
  auto rec = recorder.record(31);
  const record::SpoolStats stats = rec.vm("app").spool;
  ASSERT_GE(stats.evicted_chunks, 1u) << "retention never bit";
  ASSERT_GE(stats.anchor_chunks, static_cast<std::uint64_t>(kPhases));

  const std::string tail = dir + "/app.djvuspool";
  const auto anchors = record::read_spool_anchors(tail);
  ASSERT_FALSE(anchors.empty());
  EXPECT_EQ(anchors.back().phase, static_cast<std::uint32_t>(kPhases - 1));
  const checkpoint::CheckpointLog cp_log{1, anchors};

  // Clean resume across the evicted prefix.
  auto clean = make_phased(cfg, 0, &cp_log);
  EXPECT_NO_THROW(clean.replay_from(dir, 99));

  // A tail perturbation still diverges (the tail is really enforced).
  auto divergent = make_phased(cfg, 2, &cp_log);
  EXPECT_THROW(divergent.replay_from(dir, 99), ReplayDivergenceError);
}

TEST(FlightTailReplay, ByteBoundTailLoadsCleanAndResumes) {
  const std::string dir = fresh_dir("tail_bytes");
  constexpr std::uint64_t kBound = 4096;
  core::SessionConfig cfg;
  cfg.tuning.stall_timeout = std::chrono::seconds(5);
  cfg.tuning.spool_dir = dir;
  cfg.tuning.flight_recorder = true;
  cfg.tuning.retention_chunks = 0;
  cfg.tuning.retention_bytes = kBound;
  cfg.tuning.spool_chunk_bytes = 1024;

  auto recorder = make_phased(cfg, 0, nullptr);
  auto rec = recorder.record(37);
  const record::SpoolStats stats = rec.vm("app").spool;
  ASSERT_GE(stats.evicted_chunks, 1u) << "byte bound never bit";

  const std::string tail = dir + "/app.djvuspool";
  expect_byte_bound(tail, kBound);
  bool clean = false;
  record::load_spooled_log(tail, &clean);
  EXPECT_TRUE(clean);
  const auto anchors = record::read_spool_anchors(tail);
  ASSERT_FALSE(anchors.empty());
  EXPECT_EQ(anchors.back().phase, static_cast<std::uint32_t>(kPhases - 1));
  const checkpoint::CheckpointLog cp_log{1, anchors};
  auto resumed = make_phased(cfg, 0, &cp_log);
  EXPECT_NO_THROW(resumed.replay_from(dir, 99));
}

// A flight recorder keeps no in-memory trace, so its memory stays bounded:
// the RunResult carries none (digest 0, as with keep_trace off), while the
// sealed tail still holds the trace items the doctor and incident bundles
// read.
TEST(FlightRecorder, RunResultCarriesNoTraceButTailDoes) {
  const std::string dir = fresh_dir("no_trace");
  core::SessionConfig cfg;
  cfg.tuning.stall_timeout = std::chrono::seconds(5);
  cfg.tuning.spool_dir = dir;
  cfg.tuning.flight_recorder = true;
  cfg.tuning.retention_chunks = 4;
  cfg.tuning.spool_chunk_bytes = 1024;

  auto recorder = make_phased(cfg, 0, nullptr);
  auto rec = recorder.record(43);
  const core::VmRunInfo& info = rec.vm("app");
  ASSERT_GE(info.spool.evicted_chunks, 1u) << "retention never bit";
  EXPECT_TRUE(info.trace.empty());
  EXPECT_EQ(info.trace_digest, 0u);

  const record::SpoolContents tail = record::load_spool(info.spool_path);
  EXPECT_TRUE(tail.clean_end);
  ASSERT_FALSE(tail.trace.records.empty());
  // Eviction dropped trace items; the newest survive.
  EXPECT_LT(tail.trace.records.size(), info.critical_events);
  EXPECT_EQ(tail.trace.records.back().gc + 1, info.critical_events);
}

TEST(FlightRecorder, CausalModeHasNoAnchorsAndFullTail) {
  // kCausal refuses kGlobalConflict checkpoints, so a causal flight run
  // has no anchors; the correct degraded mode is no eviction and a tail
  // that replays from the very beginning.
  const std::string dir = fresh_dir("causal");
  core::SessionConfig cfg;
  cfg.tuning.stall_timeout = std::chrono::seconds(5);
  cfg.tuning.spool_dir = dir;
  cfg.tuning.order_mode = OrderMode::kCausal;
  cfg.tuning.flight_recorder = true;
  cfg.tuning.retention_chunks = 2;
  cfg.tuning.spool_chunk_bytes = 1024;
  core::Session s(cfg);
  s.add_vm("app", 1, true, [](vm::Vm& v) {
    vm::SharedVar<std::uint64_t> x(v, 0);
    std::vector<vm::VmThread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back(v, [&x] {
        for (int i = 0; i < 500; ++i) x.set(x.get() + 1);
      });
    }
    for (auto& th : threads) th.join();
  });
  auto rec = s.record(41);
  const record::SpoolStats stats = rec.vm("app").spool;
  EXPECT_EQ(stats.anchor_chunks, 0u);
  EXPECT_EQ(stats.evicted_chunks, 0u);
  EXPECT_EQ(stats.retained_chunks, stats.chunks_written);
  EXPECT_NO_THROW(s.replay_from(dir, 42));
}

// --- abnormal seal + incident capture ---------------------------------------

TEST(FlightRecorder, AbnormalCloseAssemblesRecoverToPrefixTail) {
  const std::string dir = fresh_dir("abnormal");
  const std::string path = dir + "/vm.djvuspool";
  record::LogSpooler::Options opts;
  opts.path = path;
  opts.chunk_bytes = 256;
  opts.flight_recorder = true;
  opts.retention_chunks = 3;
  {
    record::LogSpooler spooler(7, opts);
    for (int round = 0; round < 6; ++round) {
      spooler.trace_batch(trace_batch_at(round * 40, 40));
      record::SpoolAnchor anchor;
      anchor.phase = static_cast<std::uint32_t>(round);
      anchor.gc = (round + 1) * 40;
      spooler.anchor(anchor);
    }
    // No finish(): the run "dies" mid-recording; close() seals what the
    // ring retained.
    spooler.close();
  }
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(record::flight_ring_dir(path)));
  record::LogSource source(path);
  std::size_t items = 0;
  while (source.next()) ++items;
  EXPECT_GT(items, 0u);
  EXPECT_FALSE(source.clean_end());  // honest: no finish item

  // seal_incident captures the tail as a "crash" bundle.
  const std::string incidents = dir + "/incidents";
  core::IncidentBundle bundle = core::seal_incident(incidents, dir, "crash");
  EXPECT_EQ(bundle.kind, "crash");
  ASSERT_EQ(bundle.tails.size(), 1u);
  EXPECT_EQ(bundle.tails[0].name, "vm.djvuspool");
  EXPECT_TRUE(fs::exists(bundle.dir + "/spool/vm.djvuspool"));
  EXPECT_TRUE(fs::exists(bundle.dir + "/manifest.txt"));
  core::IncidentBundle reread = core::read_incident_manifest(bundle.dir);
  EXPECT_EQ(reread.kind, "crash");
  ASSERT_EQ(reread.tails.size(), 1u);
}

TEST(FlightRecorder, CrashLeftoverRingAssemblesWithTruncatedBytes) {
  // Build a crash-leftover ring by hand from a sealed spool's chunks, then
  // tear the last chunk file: assemble_flight_tail must keep the valid
  // prefix and report exactly the dropped bytes.
  const std::string dir = fresh_dir("torn_ring");
  const std::string donor = dir + "/donor.djvuspool";
  record::LogSpooler::Options opts;
  opts.path = donor;
  opts.chunk_bytes = 256;
  {
    record::LogSpooler spooler(7, opts);
    for (int round = 0; round < 4; ++round) {
      spooler.trace_batch(trace_batch_at(round * 40, 40));
    }
    record::RecordStats stats;
    stats.critical_events = 160;
    spooler.finish(stats, 3);
    spooler.close();
  }
  const record::SpoolIndex donor_index = record::build_spool_index(donor);
  ASSERT_GE(donor_index.chunks.size(), 3u);

  const std::string victim = dir + "/vm.djvuspool";
  const std::string ring = record::flight_ring_dir(victim);
  fs::create_directories(ring);
  std::ifstream in(donor, std::ios::binary);
  std::string donor_bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  // Header file = the 15-byte DJVUSPL1 header.
  std::ofstream(ring + "/header", std::ios::binary)
      << donor_bytes.substr(0, 15);
  // Chunk files = the donor's first three chunks, by index offsets.
  std::uint64_t torn_full = 0;
  for (int i = 0; i < 3; ++i) {
    const auto& info = donor_index.chunks[i];
    std::string chunk = donor_bytes.substr(
        info.offset, 9 + info.stored_len);  // frame (9B) + payload
    if (i == 2) {
      torn_full = chunk.size();
      chunk.resize(chunk.size() / 2);  // torn mid-fwrite
    }
    char name[32];
    std::snprintf(name, sizeof name, "%012d.chunk", i);
    std::ofstream(ring + "/" + std::string(name), std::ios::binary) << chunk;
  }
  ASSERT_GT(torn_full, 0u);

  record::FlightTailInfo info = record::assemble_flight_tail(victim);
  EXPECT_TRUE(info.assembled);
  EXPECT_EQ(info.chunks, 2u);
  EXPECT_EQ(info.truncated_bytes, torn_full / 2);
  EXPECT_FALSE(fs::exists(ring));  // consumed
  // The assembled tail reads back: two chunks of trace, recover-to-prefix.
  record::LogSource source(victim);
  std::size_t items = 0;
  while (source.next()) ++items;
  EXPECT_EQ(items, 2u);
  EXPECT_FALSE(source.clean_end());

  // A second assemble is a no-op (ring already consumed).
  record::FlightTailInfo again = record::assemble_flight_tail(victim);
  EXPECT_FALSE(again.assembled);
}

// --- stale-spool lifecycle (run manifest) -----------------------------------

TEST(SpoolLifecycle, ReRecordClearsManifestedSpools) {
  const std::string dir = fresh_dir("rerecord");
  core::SessionConfig cfg;
  cfg.tuning.spool_dir = dir;

  core::Session alpha(cfg);
  alpha.add_vm("alpha", 1, true, [](vm::Vm& v) {
    vm::SharedVar<std::uint64_t> x(v, 0);
    for (int i = 0; i < 50; ++i) x.set(x.get() + 1);
  });
  alpha.record(1);
  EXPECT_TRUE(fs::exists(dir + "/alpha.djvuspool"));
  ASSERT_TRUE(record::run_manifest_exists(dir));

  // A different VM set re-records into the same directory: the manifested
  // leftovers are cleared, so replay/doctor can never pick up "alpha".
  core::Session beta(cfg);
  beta.add_vm("beta", 1, true, [](vm::Vm& v) {
    vm::SharedVar<std::uint64_t> x(v, 0);
    for (int i = 0; i < 50; ++i) x.set(x.get() + 1);
  });
  auto rec = beta.record(2);
  EXPECT_FALSE(fs::exists(dir + "/alpha.djvuspool"));
  EXPECT_TRUE(fs::exists(dir + "/beta.djvuspool"));
  const record::RunManifest manifest = record::load_run_manifest(dir);
  ASSERT_EQ(manifest.vms.size(), 1u);
  EXPECT_EQ(manifest.vms[0].name, "beta");
  EXPECT_EQ(manifest.vms[0].vm_id, 1u);
  EXPECT_NO_THROW(beta.replay_from(dir, 3));
}

TEST(SpoolLifecycle, RefusesUnmanifestedSpools) {
  const std::string dir = fresh_dir("orphan");
  std::ofstream(dir + "/mystery.djvuspool", std::ios::binary) << "not ours";
  core::SessionConfig cfg;
  cfg.tuning.spool_dir = dir;
  core::Session s(cfg);
  s.add_vm("app", 1, true, [](vm::Vm&) {});
  EXPECT_THROW(s.record(1), UsageError);
  // The orphan was not deleted.
  EXPECT_TRUE(fs::exists(dir + "/mystery.djvuspool"));
}

TEST(SpoolLifecycle, DoctorPrefersManifestOverVmIdScan) {
  // Two spool files with the same vm_id in one directory used to be an
  // N-way ambiguity; the manifest names the authoritative one.
  const std::string dir1 = fresh_dir("doctor1");
  const std::string dir2 = fresh_dir("doctor2");
  auto make = [](const std::string& spool_dir, const char* name) {
    core::SessionConfig cfg;
    cfg.tuning.spool_dir = spool_dir;
    core::Session s(cfg);
    s.add_vm(name, 1, true, [](vm::Vm& v) {
      vm::SharedVar<std::uint64_t> x(v, 0);
      for (int i = 0; i < 50; ++i) x.set(x.get() + 1);
    });
    s.record(1);
  };
  make(dir1, "alpha");
  make(dir2, "beta");
  // Plant a stale same-vm-id spool next to beta's (bypassing record mode,
  // as a pre-manifest recording would have).
  fs::copy_file(dir1 + "/alpha.djvuspool", dir2 + "/alpha.djvuspool");

  sched::DivergenceReport report;
  report.vm_id = 1;
  report.cause = DivergenceCause::kBeyondSchedule;
  // No vm_name: pre-fix this was a 2-way vm-id ambiguity.
  replay::DoctorReport doc = replay::diagnose_spool(report, dir2);
  EXPECT_TRUE(doc.log_found);
  EXPECT_EQ(doc.log_path, dir2 + "/beta.djvuspool");
}

// --- writer-failure wakeup (fault injection) --------------------------------

TEST(WriterFailure, ParkedProducerWakesAndRethrows) {
  const std::string dir = fresh_dir("fail");
  record::LogSpooler::Options opts;
  opts.path = dir + "/vm.djvuspool";
  opts.chunk_bytes = 512;
  opts.buffer_bytes = 4096;  // small queue: producers park quickly
  opts.fail_chunk = 1;       // writer dies sealing its first chunk

  record::LogSpooler spooler(7, opts);
  // Pump until the failure propagates.  Bounded: once the writer is dead,
  // a parked producer must be woken and the next handoff must rethrow —
  // if the wakeup is lost this loop hangs and the test times out.
  bool threw = false;
  try {
    for (int round = 0; round < 100000; ++round) {
      spooler.trace_batch(trace_batch_at(round * 40, 40));
    }
  } catch (const Error&) {
    threw = true;
  }
  EXPECT_TRUE(threw) << "writer death never surfaced to the producer";

  // finish() racing failed_: rethrows, and stays rethrowable (the
  // finished_ flag must roll back when the enqueue throws).
  record::RecordStats stats;
  EXPECT_THROW(spooler.finish(stats, 1), Error);
  EXPECT_THROW(spooler.finish(stats, 1), Error);
  EXPECT_THROW(spooler.close(), Error);
}

}  // namespace
}  // namespace djvu
