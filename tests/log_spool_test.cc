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
//     deadlocking.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "core/session.h"
#include "record/log_spool.h"
#include "record/spool_codec.h"
#include "record/trace_io.h"
#include "tests/test_util.h"
#include "vm/monitor.h"
#include "vm/shared_var.h"
#include "vm/socket_api.h"
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
    if (compress) EXPECT_LT(s.written_bytes, s.raw_bytes);
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
    Bytes msg = to_bytes("m" + std::to_string(m) + "x");
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
  EXPECT_EQ(torn.trace.records.size(), rec.vm("app").trace.size());
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
  record::LogSink& sink = spooler;

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

  sink.network_entry(0, small_before);
  sink.network_entry(0, huge);
  sink.network_entry(0, small_after);
  record::RecordStats stats;
  stats.network_events = 3;
  sink.finish(stats, 1);
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
  EXPECT_GT(spool.queue_high_water_bytes, kBuffer);
  EXPECT_LE(spool.queue_high_water_bytes,
            kBuffer + record::encode_network_item(0, huge).size());
}

}  // namespace
}  // namespace djvu
