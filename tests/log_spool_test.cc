// Streaming log spooler: bounded-memory record runs with crash-consistent
// chunked persistence.
//
// Covers the whole tentpole surface:
//   * item/chunk codec roundtrips (schedule, network, trace, finish; the
//     LZ-style compression codec);
//   * LogSpooler → LogSource roundtrips through a real file, including the
//     compressed variant;
//   * record→spool→replay digest equivalence across threads × sockets ×
//     seeds, through both Session::replay (in-process) and
//     Session::replay_from (straight from disk);
//   * torn-tail recovery: truncating the file mid-chunk replays the valid
//     prefix instead of rejecting the recording, while CRC-valid corruption
//     — including the retired item kind 5 — still throws LogFormatError;
//   * the bounded-memory acceptance criterion: the spooler's
//     queue_high_water_bytes never exceeds the configured buffer even when
//     the run streams many times that much log data.  An item larger
//     than the whole buffer is admitted alone, in FIFO order, rather than
//     deadlocking;
//   * per-thread network batches: a torn spool never holds an interval
//     without its events' network entries, entries reach the writer once
//     per flush (or per spool_chunk_bytes of staged content), and a chunk
//     spliced in twice is a format error.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/workload.h"
#include "common/crc32.h"
#include "common/file_io.h"
#include "core/session.h"
#include "record/log_spool.h"
#include "record/spool_codec.h"
#include "record/trace_io.h"
#include "replay/doctor.h"
#include "tests/test_util.h"
#include "vm/monitor.h"
#include "vm/shared_var.h"
#include "vm/socket_api.h"
#include "vm/system_api.h"
#include "vm/thread.h"
#include "vm/vm.h"

namespace djvu {
namespace {

std::string fresh_dir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "log_spool_test_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::uint64_t file_size(const std::string& path) {
  return static_cast<std::uint64_t>(std::filesystem::file_size(path));
}

void truncate_file(const std::string& path, std::uint64_t new_size) {
  std::filesystem::resize_file(path, new_size);
}

// --- codec unit tests -------------------------------------------------------

TEST(SpoolCodec, ScheduleItemRoundtrip) {
  sched::IntervalList list = {{0, 4}, {9, 9}, {17, 40}};
  auto [thread, decoded] =
      record::decode_schedule_item(record::encode_schedule_item(7, list));
  EXPECT_EQ(thread, 7u);
  EXPECT_EQ(decoded, list);
}

TEST(SpoolCodec, TraceItemRoundtrip) {
  std::vector<sched::TraceRecord> records = {
      {0, 0, sched::EventKind::kThreadStart, 1},
      {3, 2, sched::EventKind::kSharedRead, 0xdeadbeefULL},
      {4, 2, sched::EventKind::kSharedWrite, 1},
  };
  EXPECT_EQ(record::decode_trace_item(record::encode_trace_item(records)),
            records);
}

TEST(SpoolCodec, FinishItemRoundtrip) {
  record::SpoolFinish finish;
  finish.stats.critical_events = 123456;
  finish.stats.network_events = 789;
  finish.thread_count = 5;
  record::SpoolFinish out =
      record::decode_finish_item(record::encode_finish_item(finish));
  EXPECT_EQ(out.stats, finish.stats);
  EXPECT_EQ(out.thread_count, finish.thread_count);
}

TEST(SpoolCodec, CompressionRoundtripAndRatio) {
  // Repetitive payload: must roundtrip exactly and actually shrink.
  Bytes repetitive;
  for (int i = 0; i < 500; ++i) {
    const char* chunk = "abcdefgh01234567";
    repetitive.insert(repetitive.end(), chunk, chunk + 16);
  }
  Bytes packed = record::spool_compress(repetitive);
  EXPECT_LT(packed.size(), repetitive.size() / 2);
  EXPECT_EQ(record::spool_decompress(packed), repetitive);

  // Incompressible-ish payload: still exact, never corrupted.
  Bytes noisy;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 4096; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    noisy.push_back(static_cast<std::uint8_t>(x));
  }
  EXPECT_EQ(record::spool_decompress(record::spool_compress(noisy)), noisy);

  // Tiny payloads (shorter than one match) work too.
  for (std::size_t n = 0; n <= 4; ++n) {
    Bytes tiny(n, 0x42);
    EXPECT_EQ(record::spool_decompress(record::spool_compress(tiny)), tiny);
  }
}

// --- spooler → source file roundtrips ---------------------------------------

class SpoolFileRoundtrip : public ::testing::TestWithParam<bool> {};

TEST_P(SpoolFileRoundtrip, WritesAndReadsBack) {
  const bool compress = GetParam();
  const std::string dir = fresh_dir(compress ? "rt_lz" : "rt_raw");
  const std::string path = dir + "/vm.djvuspool";

  record::LogSpooler::Options opts;
  opts.path = path;
  opts.chunk_bytes = 256;  // force multiple chunks
  opts.compress = compress;

  sched::IntervalList t0a = {{0, 3}, {8, 8}};
  sched::IntervalList t0b = {{12, 20}};
  sched::IntervalList t1 = {{4, 7}, {9, 11}};
  std::vector<sched::TraceRecord> trace;
  for (GlobalCount g = 0; g < 300; ++g) {
    trace.push_back({g, static_cast<ThreadNum>(g % 2),
                     sched::EventKind::kSharedRead, g * 3});
  }
  record::NetworkLogEntry entry;
  entry.kind = sched::EventKind::kSockRead;
  entry.event_num = 4;
  entry.value = 11;
  entry.data = to_bytes("payload");

  record::RecordStats stats;
  stats.critical_events = 300;
  stats.network_events = 1;

  {
    record::LogSpooler spooler(42, opts);
    spooler.schedule_batch(0, t0a);
    spooler.schedule_batch(1, t1);
    spooler.network_entry(1, entry);
    spooler.trace_batch(trace);
    spooler.schedule_batch(0, t0b);  // later batch of an earlier thread
    spooler.finish(stats, 2);
    spooler.close();

    record::SpoolStats s = spooler.stats();
    EXPECT_EQ(s.items_enqueued, 6u);
    EXPECT_GT(s.chunks_written, 1u);  // trace alone overflows one 256B chunk
    EXPECT_GT(s.raw_bytes, 0u);
    if (compress) {
      EXPECT_LT(s.written_bytes, s.raw_bytes);
    }
  }

  record::SpoolContents contents = record::load_spool(path);
  EXPECT_TRUE(contents.clean_end);
  EXPECT_EQ(contents.truncated_bytes, 0u);
  EXPECT_EQ(contents.log.vm_id, 42u);
  EXPECT_EQ(contents.log.stats, stats);
  ASSERT_EQ(contents.log.schedule.per_thread.size(), 2u);
  // Batches of one thread concatenate in emission order.
  sched::IntervalList t0_all = t0a;
  t0_all.insert(t0_all.end(), t0b.begin(), t0b.end());
  EXPECT_EQ(contents.log.schedule.per_thread[0], t0_all);
  EXPECT_EQ(contents.log.schedule.per_thread[1], t1);
  ASSERT_EQ(contents.log.network.thread_entries(1).size(), 1u);
  EXPECT_EQ(contents.log.network.thread_entries(1)[0], entry);
  EXPECT_EQ(contents.trace.records, trace);  // already gc-sorted

  // The replay loader skips trace bodies but folds the same log.
  bool clean = false;
  record::VmLog log = record::load_spooled_log(path, &clean);
  EXPECT_TRUE(clean);
  EXPECT_EQ(log.schedule.per_thread, contents.log.schedule.per_thread);
  EXPECT_EQ(log.stats, stats);
}

INSTANTIATE_TEST_SUITE_P(RawAndCompressed, SpoolFileRoundtrip,
                         ::testing::Bool());

// --- record→spool→replay equivalence ---------------------------------------

constexpr int kThreads = 3;
constexpr int kVars = 4;
constexpr int kIters = 60;
constexpr int kMessages = 6;

void server_main(vm::Vm& v) {
  vm::ServerSocket listener(v, 4700);
  std::vector<std::unique_ptr<vm::SharedVar<std::uint64_t>>> vars;
  for (int i = 0; i < kVars; ++i) {
    vars.push_back(std::make_unique<vm::SharedVar<std::uint64_t>>(v, 0));
  }
  vm::Monitor mon(v);
  vm::SharedVar<std::uint64_t> tally(v, 0);

  std::vector<vm::VmThread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(v, [&, t] {
      for (int i = 0; i < kIters; ++i) {
        auto& var = *vars[(t + i) % kVars];
        var.set(var.get() + 1);  // racy on purpose
        if (i % 5 == 0) {
          vm::Monitor::Synchronized sync(mon);
          tally.set(tally.get() + 1);
        }
      }
    });
  }

  auto conn = listener.accept();
  for (int m = 0; m < kMessages; ++m) {
    Bytes msg = testutil::read_exactly(*conn, 4);
    conn->output_stream().write(msg);
  }
  conn->close();
  for (auto& th : threads) th.join();
}

void client_main(vm::Vm& v) {
  vm::SharedVar<std::uint64_t> local(v, 0);
  std::vector<vm::VmThread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back(v, [&] {
      for (int i = 0; i < kIters; ++i) local.set(local.get() + 1);
    });
  }
  auto sock = testutil::connect_retry(v, {1, 4700});
  for (int m = 0; m < kMessages; ++m) {
    std::string text = "m";
    text += std::to_string(m);
    text += 'x';
    Bytes msg = to_bytes(text);
    msg.resize(4, '!');
    sock->output_stream().write(msg);
    Bytes echo = testutil::read_exactly(*sock, 4);
    if (echo != msg) throw Error("echo mismatch");
  }
  sock->close();
  for (auto& th : threads) th.join();
}

core::Session make_stress(const core::SessionConfig& cfg) {
  core::Session s(cfg);
  s.add_vm("server", 1, true, server_main);
  s.add_vm("client", 2, true, client_main);
  return s;
}

// The acceptance grid: threads × sockets × seeds, spooled record replayed
// both from the in-process RunResult and straight from the on-disk files.
TEST(LogSpool, RecordSpoolReplayDigestEquivalence) {
  for (std::uint64_t seed : {901u, 902u, 903u}) {
    const std::string dir = fresh_dir("grid_" + std::to_string(seed));
    core::SessionConfig cfg;
    cfg.tuning.spool_dir = dir;
    cfg.tuning.spool_chunk_bytes = 512;  // many chunks even in a small run
    core::Session s = make_stress(cfg);

    auto rec = s.record(seed);
    EXPECT_EQ(rec.spool_dir, dir);
    for (const char* name : {"server", "client"}) {
      const auto& info = rec.vm(name);
      // Spooled: the log lives on disk, not in the result.
      EXPECT_FALSE(info.log.has_value()) << name;
      EXPECT_FALSE(info.spool_path.empty()) << name;
      EXPECT_NE(info.trace_digest, 0u) << name;
      EXPECT_GT(info.spool.chunks_written, 1u) << name;
      EXPECT_EQ(file_size(info.spool_path), info.spool.written_bytes) << name;
    }

    auto rep = s.replay(rec, seed + 50);
    core::verify(rec, rep);
    auto rep_disk = s.replay_from(rec.recording(), seed + 60);
    core::verify(rec, rep_disk);
    for (const char* name : {"server", "client"}) {
      EXPECT_EQ(rec.vm(name).trace_digest, rep.vm(name).trace_digest) << name;
      EXPECT_EQ(rec.vm(name).trace_digest, rep_disk.vm(name).trace_digest)
          << name;
      EXPECT_EQ(rec.vm(name).critical_events, rep.vm(name).critical_events)
          << name;
      // Every batch goes through the queue.
      EXPECT_GT(rec.vm(name).spool.items_enqueued, 1u) << name;
    }
  }
}

// Spooled and in-memory replays of the SAME recording agree bit-for-bit:
// replay the spooled logs, then round-trip those logs through the bundle
// serializer and replay again.
TEST(LogSpool, SpooledLogMatchesBundlePath) {
  const std::string dir = fresh_dir("bundle");
  core::SessionConfig cfg;
  cfg.tuning.spool_dir = dir;
  core::Session s = make_stress(cfg);

  auto rec = s.record(911);
  std::vector<record::VmLog> logs;
  for (const auto& info : rec.vms) {
    logs.push_back(record::load_spooled_log(info.spool_path));
  }
  auto rep = s.replay_logs(logs, 912);
  core::verify(rec, rep);

  // Compression changes the file, never the decoded log.
  const std::string zdir = fresh_dir("bundle_z");
  core::SessionConfig zcfg;
  zcfg.tuning.spool_dir = zdir;
  zcfg.tuning.spool_compress = true;
  core::Session zs = make_stress(zcfg);
  auto zrec = zs.record(911);
  auto zrep = zs.replay(zrec, 913);
  core::verify(zrec, zrep);
  for (const auto& info : zrec.vms) {
    EXPECT_LE(info.spool.written_bytes,
              info.spool.raw_bytes +
                  info.spool.chunks_written * 9 + 15 + info.spool.index_bytes)
        << info.name;
    EXPECT_GT(info.spool.index_bytes, 0u) << info.name;
  }
}

// A spooled record's trace is the one the run kept in memory; the spool is
// never read back for it.  It must equal what the sealed spool holds,
// record for record, raw or compressed, in total or causal order.
TEST(LogSpool, RecordedTraceEqualsSpooledTrace) {
  struct Arm {
    const char* tag;
    bool compress;
    OrderMode order;
  };
  for (const Arm& arm : {Arm{"raw", false, OrderMode::kTotal},
                         Arm{"lz", true, OrderMode::kTotal},
                         Arm{"causal", false, OrderMode::kCausal}}) {
    SCOPED_TRACE(arm.tag);
    core::SessionConfig cfg;
    cfg.tuning.spool_dir = fresh_dir(std::string("trace_") + arm.tag);
    cfg.tuning.spool_chunk_bytes = 512;
    cfg.tuning.spool_compress = arm.compress;
    cfg.tuning.order_mode = arm.order;
    core::Session s = make_stress(cfg);
    const auto rec = s.record(921);
    for (const auto& info : rec.vms) {
      const record::SpoolContents contents =
          record::load_spool(info.spool_path);
      EXPECT_TRUE(contents.clean_end) << info.name;
      const auto& spooled = contents.trace.records;
      ASSERT_FALSE(info.trace().empty()) << info.name;
      ASSERT_EQ(info.trace().size(), spooled.size()) << info.name;
      for (std::size_t i = 0; i < spooled.size(); ++i) {
        ASSERT_EQ(info.trace()[i], spooled[i]) << info.name << " at " << i;
      }
      EXPECT_EQ(info.trace_digest, sched::trace_digest(spooled)) << info.name;
    }
    core::verify(rec, s.replay(rec, 922));
  }
}

// --- torn-tail recovery -----------------------------------------------------

// A single-VM app so the recording is self-contained (no network entries
// whose loss would change replay semantics across VMs).
core::Session make_solo(const std::string& spool_dir) {
  core::SessionConfig cfg;
  cfg.tuning.spool_dir = spool_dir;
  cfg.tuning.spool_chunk_bytes = 256;  // many small chunks to truncate into
  core::Session s(cfg);
  s.add_vm("app", 1, true, [](vm::Vm& v) {
    vm::SharedVar<std::uint64_t> x(v, 0);
    std::vector<vm::VmThread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back(v, [&x] {
        for (int i = 0; i < 200; ++i) x.set(x.get() + 1);
      });
    }
    for (auto& th : threads) th.join();
  });
  return s;
}

TEST(LogSpool, TornFinishChunkReplaysCompletely) {
  const std::string dir = fresh_dir("torn_finish");
  core::Session s = make_solo(dir);
  auto rec = s.record(921);
  const std::string path = rec.vm("app").spool_path;

  // Shaving the index footer plus one byte tears the final chunk — which
  // holds only the finish marker, so the whole schedule and trace survive.
  // (Shaving less than the footer only tears the footer itself, which
  // costs nothing but the index: see spool_index_test.)
  truncate_file(path,
                file_size(path) - rec.vm("app").spool.index_bytes - 1);
  record::SpoolContents torn = record::load_spool(path);
  EXPECT_FALSE(torn.clean_end);
  EXPECT_GT(torn.truncated_bytes, 0u);
  EXPECT_EQ(torn.trace.records.size(), rec.vm("app").trace().size());
  EXPECT_EQ(sched::trace_digest(torn.trace.records),
            rec.vm("app").trace_digest);
  // Reconstructed stats: the intervals encode every critical event.
  EXPECT_EQ(torn.log.stats.critical_events, rec.vm("app").critical_events);

  // And the torn recording replays end to end.
  auto rep = s.replay_from(dir, 922);
  core::verify(rec, rep);
  EXPECT_EQ(rep.vm("app").trace_digest, rec.vm("app").trace_digest);
}

TEST(LogSpool, DeepTruncationRecoversPrefix) {
  const std::string dir = fresh_dir("torn_deep");
  core::Session s = make_solo(dir);
  auto rec = s.record(931);
  const std::string path = rec.vm("app").spool_path;
  const std::uint64_t full = file_size(path);

  // Cut to 60% of the file: mid-chunk with overwhelming probability.  The
  // loader must recover the longest valid chunk prefix, never throw.
  truncate_file(path, full * 6 / 10);
  bool clean = true;
  record::VmLog prefix = record::load_spooled_log(path, &clean);
  EXPECT_FALSE(clean);
  EXPECT_GT(prefix.stats.critical_events, 0u);
  EXPECT_LT(prefix.stats.critical_events, rec.vm("app").critical_events);

  // Replaying the prefix executes exactly the recovered schedule, then the
  // application's surplus events surface as divergence — an application
  // signal, not a file-format rejection.
  try {
    s.replay_from(dir, 932);
    FAIL() << "the app runs past the recovered prefix and must diverge";
  } catch (const ReplayDivergenceError&) {
  }
}

TEST(LogSpool, TornHeaderRejected) {
  const std::string dir = fresh_dir("torn_header");
  core::Session s = make_solo(dir);
  auto rec = s.record(941);
  const std::string path = rec.vm("app").spool_path;

  // The 15-byte header is the one part with no recover-to-prefix story: a
  // recording with no identity is not a recording.
  truncate_file(path, 10);
  EXPECT_THROW(record::load_spool(path), LogFormatError);
}

TEST(LogSpool, CrcValidCorruptionStillRejected) {
  const std::string dir = fresh_dir("corrupt");
  core::Session s = make_solo(dir);
  auto rec = s.record(951);
  const std::string path = rec.vm("app").spool_path;

  // Flip a payload byte mid-file WITHOUT fixing the CRC: the chunk fails
  // its checksum, so everything from it on is dropped as a torn tail —
  // prefix recovery, not rejection.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, static_cast<long>(file_size(path) / 2), SEEK_SET);
    std::uint8_t b = 0;
    ASSERT_EQ(std::fread(&b, 1, 1, f), 1u);
    std::fseek(f, -1, SEEK_CUR);
    b ^= 0xff;
    ASSERT_EQ(std::fwrite(&b, 1, 1, f), 1u);
    std::fclose(f);
  }
  bool clean = true;
  record::VmLog log = record::load_spooled_log(path, &clean);
  EXPECT_FALSE(clean);
  EXPECT_LT(log.stats.critical_events, rec.vm("app").critical_events);
}

// Item kind 5 (the raw causal batch) is retired: no writer emits it, so a
// CRC-valid chunk carrying it is version skew and must be rejected by name,
// not decoded or skipped.
TEST(LogSpool, RetiredItemKindRejected) {
  const std::string path = fresh_dir("kind5") + "/vm.djvuspool";
  ByteWriter payload;
  const Bytes body = record::encode_causal_delta_item(0, {1, 2, 3});
  payload.u8(5).varint(body.size()).raw(body);
  ByteWriter file;
  file.raw(BytesView(reinterpret_cast<const std::uint8_t*>(record::kSpoolMagic),
                     8));
  file.u16(record::kSpoolVersion).u32(1).u8(0);
  file.u32(static_cast<std::uint32_t>(payload.size())).u8(0);
  file.u32(crc32(payload.view())).raw(payload.view());
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(file.view().data(), 1, file.size(), f), file.size());
    std::fclose(f);
  }
  try {
    record::load_spool(path);
    FAIL() << "a chunk holding kind 5 loaded";
  } catch (const LogFormatError& e) {
    EXPECT_NE(std::string(e.what()).find("kind 5"), std::string::npos)
        << e.what();
  }
}

// --- bounded memory ---------------------------------------------------------

// The acceptance criterion: however much log data the run produces, the
// bytes queued between recording threads and the writer never exceed the
// configured buffer.  queue_high_water_bytes is the witness.
TEST(LogSpool, QueueHighWaterStaysWithinBuffer) {
  const std::string dir = fresh_dir("bounded");
  constexpr std::size_t kBuffer = 4096;
  core::SessionConfig cfg;
  cfg.tuning.spool_dir = dir;
  cfg.tuning.spool_buffer_bytes = kBuffer;
  cfg.tuning.spool_chunk_bytes = 512;
  core::Session s(cfg);
  s.add_vm("app", 1, true, [](vm::Vm& v) {
    vm::SharedVar<std::uint64_t> x(v, 0);
    std::vector<vm::VmThread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back(v, [&x] {
        for (int i = 0; i < 2000; ++i) x.set(x.get() + 1);
      });
    }
    for (auto& th : threads) th.join();
  });

  auto rec = s.record(961);
  const auto& spool = rec.vm("app").spool;
  // The run streamed far more log data than the buffer could ever hold...
  EXPECT_GT(spool.raw_bytes, 10 * kBuffer);
  // ...yet the producer/writer queue never outgrew it.  (Per-thread flush
  // batches are far smaller than the buffer, so not even the oversized-item
  // escape hatch can exceed it here.)
  EXPECT_LE(spool.queue_high_water_bytes, kBuffer);
  EXPECT_GT(spool.queue_high_water_bytes, 0u);
  EXPECT_GT(spool.chunks_written, 10u);

  // And the recording is a real recording.
  auto rep = s.replay_from(dir, 962);
  core::verify(rec, rep);
}

// --- oversized items -------------------------------------------------------

// The queue's escape hatch: an item larger than the whole buffer is
// admitted alone into an empty queue instead of deadlocking, and keeps its
// FIFO position among the thread's other items.
TEST(LogSpool, OversizedNetworkEntryPassesAloneInOrder) {
  const std::string dir = fresh_dir("oversized");
  const std::string path = dir + "/vm.djvuspool";
  constexpr std::size_t kBuffer = 4096;
  record::LogSpooler::Options opts;
  opts.path = path;
  opts.buffer_bytes = kBuffer;
  record::LogSpooler spooler(7, opts);

  auto make_entry = [](std::uint64_t num, std::size_t data_bytes) {
    record::NetworkLogEntry e;
    e.kind = sched::EventKind::kSockRead;
    e.event_num = num;
    e.value = static_cast<std::int64_t>(data_bytes);
    e.data = Bytes(data_bytes, static_cast<std::uint8_t>(num));
    return e;
  };
  const record::NetworkLogEntry small_before = make_entry(1, 16);
  const record::NetworkLogEntry huge = make_entry(2, 64 << 10);  // 16x buffer
  const record::NetworkLogEntry small_after = make_entry(3, 16);

  spooler.network_entry(0, small_before);
  spooler.network_entry(0, huge);
  spooler.network_entry(0, small_after);
  record::RecordStats stats;
  stats.network_events = 3;
  spooler.finish(stats, 1);
  spooler.close();

  record::SpoolContents contents = record::load_spool(path);
  EXPECT_TRUE(contents.clean_end);
  const auto& entries = contents.log.network.thread_entries(0);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0], small_before);
  EXPECT_EQ(entries[1], huge);
  EXPECT_EQ(entries[2], small_after);

  // The huge entry alone overshoots the buffer; nothing rode with it.
  const record::SpoolStats spool = spooler.stats();
  Bytes huge_item;
  record::append_network_item(huge_item, 0, huge);
  EXPECT_GT(spool.queue_high_water_bytes, kBuffer);
  EXPECT_LE(spool.queue_high_water_bytes, kBuffer + huge_item.size());
}

// --- network log batches ----------------------------------------------------

/// The paper's closed-world client/server (bench/workload.h), spooled.
core::Session make_spooled_rpc(const std::string& dir,
                               const bench::WorkloadParams& p,
                               std::size_t chunk_bytes) {
  core::SessionConfig cfg;
  cfg.tuning.spool_dir = dir;
  cfg.tuning.spool_chunk_bytes = chunk_bytes;
  cfg.net.stream_delay = {std::chrono::microseconds(0),
                          std::chrono::microseconds(5)};
  cfg.net.segmentation.mss = 64;  // several recorded reads per message
  core::Session s(cfg);
  s.add_vm("server", 1, true,
           [p](vm::Vm& v) { bench::server_main(v, p); });
  s.add_vm("client", 2, true,
           [p](vm::Vm& v) { bench::client_main(v, p, 1); });
  return s;
}

/// The file offset of every chunk of a sealed spool, in order.
std::vector<std::size_t> chunk_offsets(const Bytes& file,
                                       const std::string& path) {
  record::LogSource source(path);
  const std::uint64_t data_end = source.index()->data_end;
  std::vector<std::size_t> out;
  for (std::size_t pos = record::kSpoolHeaderBytes; pos < data_end;) {
    out.push_back(pos);
    pos += record::kChunkFrameBytes +
           ByteReader(BytesView(file).subspan(pos, 4)).u32();
  }
  return out;
}

/// Bind, accept, read and time read log an entry for every outcome, so
/// the i-th entry of such a kind K of a thread is the event of its i-th
/// trace record of kind K.
bool logs_every_outcome(sched::EventKind k) {
  return k == sched::EventKind::kSockBind ||
         k == sched::EventKind::kSockAccept ||
         k == sched::EventKind::kSockRead || k == sched::EventKind::kTimeRead;
}

/// Checks one VM of a spooled recording made with its trace: no recovered
/// prefix holds an interval without the network-log entries (of the kinds
/// above) of the events it covers.  Every chunk tear is loaded; finer,
/// after every schedule item on disk the items before it must hold them.
void expect_no_interval_ahead_of_its_entries(const core::VmRunInfo& vm,
                                             const std::string& dir) {
  const record::SpoolContents full = record::load_spool(vm.spool_path);
  ASSERT_TRUE(full.clean_end);
  // Each such entry with the gc of its event, from the in-memory trace.
  std::map<std::pair<ThreadNum, sched::EventKind>, std::vector<GlobalCount>>
      gcs;
  for (const sched::TraceRecord& r : vm.trace()) {
    if (logs_every_outcome(r.kind)) gcs[{r.thread, r.kind}].push_back(r.gc);
  }
  struct Expected {
    ThreadNum thread;
    GlobalCount gc;
    record::NetworkLogEntry entry;
  };
  std::vector<Expected> expected;
  for (ThreadNum t : full.log.network.threads()) {
    std::map<sched::EventKind, std::size_t> ordinal;
    for (const record::NetworkLogEntry& e :
         full.log.network.thread_entries(t)) {
      if (!logs_every_outcome(e.kind)) continue;  // e.g. a refused connect
      const std::vector<GlobalCount>& of_kind = gcs[{t, e.kind}];
      const std::size_t i = ordinal[e.kind]++;
      ASSERT_LT(i, of_kind.size());
      expected.push_back({t, of_kind[i], e});
    }
  }
  ASSERT_FALSE(expected.empty());

  // Checks that `log` holds every expected entry of the events its
  // schedule covers.  A thread's intervals in a prefix are a prefix of
  // its list, so they cover exactly its events up to their last gc.
  std::size_t checked = 0;
  const auto holds_covered_entries = [&](const record::VmLog& log,
                                         const std::string& where) {
    const auto& per_thread = log.schedule.per_thread;
    for (const Expected& x : expected) {
      if (x.thread >= per_thread.size() || per_thread[x.thread].empty() ||
          x.gc > per_thread[x.thread].back().last) {
        continue;
      }
      const record::NetworkLogEntry* got =
          log.network.find(x.thread, x.entry.event_num);
      ASSERT_NE(got, nullptr)
          << where << ": thread " << x.thread << " event "
          << x.entry.event_num << " (gc " << x.gc << ") has no entry";
      EXPECT_EQ(*got, x.entry);
      ++checked;
    }
  };

  // Tear every chunk in turn: each tear is a distinct recovered prefix.
  const Bytes file = read_file(vm.spool_path);
  const std::string torn = dir + "/torn.djvuspool";
  for (std::size_t off : chunk_offsets(file, vm.spool_path)) {
    write_file(torn, BytesView(file).first(off + record::kChunkFrameBytes));
    bool clean = true;
    const record::VmLog prefix = record::load_spooled_log(torn, &clean);
    ASSERT_FALSE(clean);
    holds_covered_entries(prefix, "torn at " + std::to_string(off));
  }

  // Finer than any tear: after every schedule item on disk, the items
  // before it already hold the entries of the events it covers.
  record::VmLog prefix;
  record::LogSource source(vm.spool_path);
  while (std::optional<record::SpoolItem> item = source.next()) {
    if (item->kind == record::SpoolItemKind::kNetwork) {
      auto [thread, entry] = record::decode_network_item(item->body);
      prefix.network.insert(thread, std::move(entry));
    } else if (item->kind == record::SpoolItemKind::kSchedule) {
      auto [thread, list] = record::decode_schedule_item(item->body);
      auto& per_thread = prefix.schedule.per_thread;
      if (per_thread.size() <= thread) per_thread.resize(thread + 1);
      per_thread[thread].insert(per_thread[thread].end(), list.begin(),
                                list.end());
      holds_covered_entries(prefix, "schedule item of thread " +
                                        std::to_string(thread));
    }
  }
  EXPECT_GT(checked, 0u);
}

// A recording thread stages its network entries and ships them ahead of its
// schedule batch, so wherever a crash tears the spool, every interval it
// kept comes with the network-log entries of the events it covers.
TEST(LogSpool, TornSpoolNeverRunsAheadOfItsNetworkLog) {
  const std::string dir = fresh_dir("net_prefix");
  bench::WorkloadParams p;
  p.threads = 2;
  p.sessions = 2;
  p.connects_per_session = 3;
  p.fixed_iters = 200;
  p.per_thread_iters = 20;
  p.local_work = 1;
  p.message_size = 192;
  // 64-byte chunks: a thread flushes every 64 events, and a batch spans
  // several chunks, so a tear can fall between any two of its items.
  core::Session s = make_spooled_rpc(dir, p, 64);
  const core::RunResult rec = s.record(971);
  for (const char* name : {"server", "client"}) {
    SCOPED_TRACE(name);
    expect_no_interval_ahead_of_its_entries(rec.vm(name), dir);
  }
}

// A time read logs its entry after its tick, so a flush falling due at it
// waits for the thread's next event: by then the entry is staged.
TEST(LogSpool, EntryLoggedAfterItsTickPrecedesItsInterval) {
  const std::string dir = fresh_dir("net_after_tick");
  core::SessionConfig cfg;
  cfg.tuning.spool_dir = dir;
  cfg.tuning.spool_chunk_bytes = 64;  // a flush every 64 events
  core::Session s(cfg);
  s.add_vm("app", 1, true, [](vm::Vm& v) {
    vm::SharedVar<std::uint64_t> x(v, 0);
    std::vector<vm::VmThread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back(v, [&v, &x] {
        // Every event a time read but one in five: flushes land on both.
        for (int i = 0; i < 400; ++i) {
          if (i % 5 == 0) {
            x.set(i);
          } else {
            vm::current_time_millis(v);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
  });
  const core::RunResult rec = s.record(975);
  expect_no_interval_ahead_of_its_entries(rec.vm("app"), dir);
  core::verify(rec, s.replay_from(dir, 976));
}

// The mechanism as a count: network entries reach the writer in one batch
// per thread flush, not one queue item per network event.
TEST(LogSpool, NetworkEntriesShipPerFlushNotPerEvent) {
  const std::string dir = fresh_dir("net_batches");
  bench::WorkloadParams p;
  p.threads = 4;
  p.sessions = 16;
  p.connects_per_session = 8;
  p.fixed_iters = 100;
  p.per_thread_iters = 10;
  p.local_work = 1;
  p.message_size = 64;
  core::Session s = make_spooled_rpc(dir, p, TuningConfig{}.spool_chunk_bytes);
  const core::RunResult rec = s.record(981);
  for (const char* name : {"server", "client"}) {
    SCOPED_TRACE(name);
    const core::VmRunInfo& vm = rec.vm(name);
    ASSERT_GT(vm.network_events, 1000u);
    EXPECT_LT(vm.spool.items_enqueued, vm.network_events / 50);
  }
  core::verify(rec, s.replay_from(dir, 982));
}

// The byte bound: a thread reading large open-world content ships its
// staged entries whenever they reach spool_chunk_bytes, long before its
// event-count flush, so the staging buffer stays O(spool_chunk_bytes).
TEST(LogSpool, LargeOpenWorldReadsShipBeforeTheEventFlush) {
  const std::string dir = fresh_dir("net_bytes");
  constexpr int kReads = 64;
  constexpr std::size_t kContent = 64 << 10;
  core::SessionConfig cfg;
  cfg.tuning.spool_dir = dir;
  cfg.net.segmentation.mss = kContent;  // one read per 64 KiB write
  core::Session s(cfg);
  s.add_vm("peer", 1, /*djvm=*/false, [](vm::Vm& v) {
    vm::ServerSocket listener(v, 4800);
    auto sock = listener.accept();
    for (int i = 0; i < kReads; ++i) {
      sock->output_stream().write(Bytes(kContent, static_cast<std::uint8_t>(i)));
    }
    sock->close();
    listener.close();
  });
  s.add_vm("app", 2, /*djvm=*/true, [](vm::Vm& v) {
    auto sock = testutil::connect_retry(v, {1, 4800});
    for (int i = 0; i < kReads; ++i) {
      const Bytes got = testutil::read_exactly(*sock, kContent);
      if (got != Bytes(kContent, static_cast<std::uint8_t>(i))) {
        throw Error("content mismatch");
      }
    }
    sock->close();
  });
  const core::RunResult rec = s.record(991);
  const core::VmRunInfo& app = rec.vm("app");
  // No event-count flush ran: the thread stayed below one flush interval.
  ASSERT_LT(app.critical_events,
            std::max<std::size_t>(64, TuningConfig{}.spool_chunk_bytes / 16));
  // Yet each read's entry, alone over the bound, shipped as its own batch,
  // and no batch held the run's whole content.
  EXPECT_GE(app.spool.items_enqueued, static_cast<std::uint64_t>(kReads));
  EXPECT_LE(app.spool.queue_high_water_bytes,
            TuningConfig{}.spool_buffer_bytes);
  core::verify(rec, s.replay_from(dir, 992));
}

// A CRC-valid chunk spliced in twice repeats its network entries: that is a
// damaged file, reported as a format error by every reader, not as misuse.
TEST(LogSpool, DuplicatedNetworkChunkIsAFormatError) {
  const std::string dir = fresh_dir("dup_net");
  core::SessionConfig cfg;
  cfg.tuning.spool_dir = dir;
  cfg.tuning.spool_chunk_bytes = 64;  // small chunks, a few items each
  core::Session s(cfg);
  s.add_vm("app", 1, true, [](vm::Vm& v) {
    vm::SharedVar<std::uint64_t> x(v, 0);
    for (int i = 0; i < 40; ++i) {
      x.set(x.get() + vm::current_time_millis(v) % 7);
    }
  });
  const core::RunResult rec = s.record(1001);
  const std::string path = rec.vm("app").spool_path;

  // Duplicate the first chunk that carries a kNetwork item, in place.
  Bytes file = read_file(path);
  bool spliced = false;
  for (std::size_t pos : chunk_offsets(file, path)) {
    ByteReader frame(BytesView(file).subspan(pos, record::kChunkFrameBytes));
    const std::uint32_t len = frame.u32();
    ASSERT_EQ(frame.u8(), 0u) << "raw chunks expected";
    const std::size_t end = pos + record::kChunkFrameBytes + len;
    const BytesView payload =
        BytesView(file).subspan(pos + record::kChunkFrameBytes, len);
    for (std::size_t at = 0; at < payload.size();) {
      ByteReader item(payload.subspan(at));
      const std::uint8_t kind = item.u8();
      const std::uint64_t body_len = item.varint();
      spliced = spliced || kind == static_cast<std::uint8_t>(
                                       record::SpoolItemKind::kNetwork);
      at += item.position() + body_len;
    }
    if (spliced) {
      const Bytes chunk(file.begin() + static_cast<std::ptrdiff_t>(pos),
                        file.begin() + static_cast<std::ptrdiff_t>(end));
      file.insert(file.begin() + static_cast<std::ptrdiff_t>(end),
                  chunk.begin(), chunk.end());
      break;
    }
  }
  ASSERT_TRUE(spliced);
  write_file(path, file);

  EXPECT_THROW(record::load_spool(path), LogFormatError);
  EXPECT_THROW(s.replay_from(dir, 1002), LogFormatError);
  sched::DivergenceReport report;
  report.vm_id = 1;
  report.vm_name = "app";
  const replay::DoctorReport doc = replay::diagnose_spool(report, path);
  EXPECT_TRUE(doc.log_found);
  bool finding = false;
  for (const std::string& n : doc.notes) {
    finding = finding || n.find("duplicate network log entry") !=
                             std::string::npos;
  }
  EXPECT_TRUE(finding);
}

}  // namespace
}  // namespace djvu
