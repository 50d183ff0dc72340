// The spool index footer and everything built on it.
//
// Covers:
//   * crc32_combine: stitching segment CRCs equals hashing the whole;
//   * footer fidelity: the sealed footer decodes to pinned entries
//     (stored/raw length, codec, gc range) for every item kind, plus an
//     authoritative file CRC, and the known spool's bytes are pinned;
//   * fallbacks: a torn footer, a footerless spool (what a crash or a
//     pre-index writer leaves) and a version-1 footer all load cleanly
//     through the sequential path; seek_to_gc needs the index;
//   * seek_to_gc: lands on the covering chunk at and across chunk
//     boundaries (per-chunk gc ranges overlap and are non-monotone), and
//     reports positions beyond the recording;
//   * parallel load equivalence: the threaded indexed loader folds a
//     bit-identical VmLog and trace across {compression} x {order mode},
//     against the sequential scan of a footer-stripped copy;
//   * load fallbacks through load_spool: a corrupt middle chunk recovers
//     the same prefix as the sequential scan, a corrupt header throws;
//   * hostile fields: thread 0xFFFFFFFF ends in LogFormatError; footers
//     claiming 2^62 chunks, an unknown flag bit or a gc range past
//     GlobalCount read as "no index" and load sequentially;
//   * determinism pins: equal-gc trace records keep file order under both
//     loaders (stable sort), the whole-file CRC catches corruption the
//     per-chunk CRCs cannot see (the file header), and diff_trace_files
//     throws on a trace file torn in its last chunks instead of reporting
//     a prefix match or identity;
//   * the replay doctor diagnoses a sealed spool and its footerless copy
//     identically: owner, context, totals, every statistic, verdict, notes.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/crc32.h"
#include "common/file_io.h"
#include "core/session.h"
#include "record/log_spool.h"
#include "record/serializer.h"
#include "record/spool_index.h"
#include "record/trace_io.h"
#include "replay/doctor.h"
#include "tests/test_util.h"
#include "vm/shared_var.h"
#include "vm/socket_api.h"
#include "vm/thread.h"
#include "vm/vm.h"

namespace djvu {
namespace {

std::string fresh_dir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "spool_index_test_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::uint64_t file_size(const std::string& path) {
  return static_cast<std::uint64_t>(std::filesystem::file_size(path));
}

void flip_byte(const std::string& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x40);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

/// The footer of the sealed spool `path` (empty, with a test failure, when
/// it has none).
record::SpoolIndex sealed_index(const std::string& path) {
  record::LogSource source(path);
  if (source.index() == nullptr) {
    ADD_FAILURE() << "no index footer in " << path;
    return {};
  }
  return *source.index();
}

/// A copy of the footer'd spool `path` cut at its footer's data_end: the
/// same chunks without an index, so every loader takes the sequential scan.
std::string footerless_copy(const std::string& path) {
  const std::string copy = path + ".seq";
  std::filesystem::copy_file(path, copy,
                             std::filesystem::copy_options::overwrite_existing);
  std::filesystem::resize_file(copy, sealed_index(path).data_end);
  return copy;
}

/// Writes `path`: the sealed spool `pristine` cut at its data_end, then a
/// CRC-valid footer of `version` whose body (the bytes after the version
/// field) is `body`.
void write_with_footer(const std::string& pristine, const std::string& path,
                       std::uint16_t version, BytesView body) {
  std::filesystem::copy_file(pristine, path,
                             std::filesystem::copy_options::overwrite_existing);
  std::filesystem::resize_file(path, sealed_index(pristine).data_end);
  const BytesView magic(
      reinterpret_cast<const std::uint8_t*>(record::kSpoolIndexMagic), 8);
  ByteWriter w;
  w.raw(magic).u16(version).raw(body);
  const auto footer_len = static_cast<std::uint32_t>(w.size());
  const std::uint32_t footer_crc = crc32(w.view());
  w.u32(footer_len).u32(footer_crc).raw(magic);
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(w.view().data()),
            static_cast<std::streamsize>(w.size()));
}

/// The fields of one footer entry a test pins (the offset follows from
/// them).
struct PinnedEntry {
  std::uint32_t stored_len = 0;
  std::uint32_t raw_len = 0;
  std::uint8_t codec = 0;
  bool has_gc = false;
  GlobalCount min_gc = 0;
  GlobalCount max_gc = 0;
};

void expect_entries(const record::SpoolIndex& index,
                    const std::vector<PinnedEntry>& expect) {
  ASSERT_EQ(index.chunks.size(), expect.size());
  std::uint64_t offset = record::kSpoolHeaderBytes;
  for (std::size_t i = 0; i < expect.size(); ++i) {
    const record::SpoolChunkInfo& c = index.chunks[i];
    const PinnedEntry& e = expect[i];
    EXPECT_EQ(c.offset, offset) << "chunk " << i;
    EXPECT_EQ(c.stored_len, e.stored_len) << "chunk " << i;
    EXPECT_EQ(c.raw_len, e.raw_len) << "chunk " << i;
    EXPECT_EQ(c.codec, e.codec) << "chunk " << i;
    EXPECT_EQ(c.has_gc, e.has_gc) << "chunk " << i;
    EXPECT_EQ(c.min_gc, e.min_gc) << "chunk " << i;
    EXPECT_EQ(c.max_gc, e.max_gc) << "chunk " << i;
    offset += record::kChunkFrameBytes + c.stored_len;
  }
  EXPECT_EQ(index.data_end, offset);
}

/// Writes a small spool with a known five-interval schedule across two
/// threads, one batch per chunk (tiny chunk_bytes), and returns the path.
/// Chunk gc ranges overlap and are non-monotone on purpose:
///   chunk 0: t0 [0,9] + [20,29]   -> gc range [0,29]
///   chunk 1: t1 [10,19] + [30,39] -> gc range [10,39]
///   chunk 2: t0 [40,49]           -> gc range [40,49]
std::string write_known_spool(const std::string& dir) {
  const std::string path = dir + "/vm.djvuspool";
  record::LogSpooler::Options opts;
  opts.path = path;
  opts.chunk_bytes = 8;  // below one batch's size: one batch per chunk
  record::LogSpooler spooler(7, opts);
  spooler.schedule_batch(0, {{0, 9}, {20, 29}});
  spooler.schedule_batch(1, {{10, 19}, {30, 39}});
  spooler.schedule_batch(0, {{40, 49}});
  record::RecordStats stats;
  stats.critical_events = 50;
  spooler.finish(stats, 2);
  spooler.close();
  return path;
}

/// Decodes forward from the source's current position and returns the
/// first interval containing `pos`, if any schedule item covers it.
std::optional<sched::LogicalInterval> find_owner(record::LogSource& source,
                                                 GlobalCount pos) {
  while (std::optional<record::SpoolItem> item = source.next()) {
    if (item->kind != record::SpoolItemKind::kSchedule) continue;
    auto [thread, intervals] = record::decode_schedule_item(item->body);
    for (const sched::LogicalInterval& iv : intervals) {
      if (iv.first <= pos && pos <= iv.last) return iv;
    }
  }
  return std::nullopt;
}

// --- crc32_combine ----------------------------------------------------------

TEST(Crc32Combine, SplitEqualsWhole) {
  Bytes whole;
  std::uint64_t x = 0x243f6a8885a308d3ULL;
  for (int i = 0; i < 1000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    whole.push_back(static_cast<std::uint8_t>(x));
  }
  const std::uint32_t expect = crc32(whole);
  // Every split point, including degenerate empty halves.
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, std::size_t{500},
                          std::size_t{999}, whole.size()}) {
    const BytesView a(whole.data(), cut);
    const BytesView b(whole.data() + cut, whole.size() - cut);
    EXPECT_EQ(crc32_combine(crc32(a), crc32(b), b.size()), expect) << cut;
  }
  // And a three-way stitch, the shape the parallel loader uses.
  const std::uint32_t ab = crc32_combine(
      crc32(BytesView(whole.data(), 100)),
      crc32(BytesView(whole.data() + 100, 300)), 300);
  EXPECT_EQ(crc32_combine(ab, crc32(BytesView(whole.data() + 400, 600)), 600),
            expect);
}

// --- footer fidelity and fallbacks ------------------------------------------

// The entries below were read from the version-1 footer of the same
// spool, where the footer was checked against an independent decode scan;
// version 2 keeps exactly these fields.
TEST(SpoolIndex, FooterEntriesMatchPinnedValues) {
  const std::string dir = fresh_dir("fidelity");
  const std::string path = write_known_spool(dir);

  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  ASSERT_TRUE(f);
  std::optional<record::SpoolIndex> footer =
      record::read_spool_footer(f.get(), file_size(path));
  ASSERT_TRUE(footer.has_value());
  EXPECT_NE(footer->file_crc, 0u);

  // 3 schedule chunks, then the finish chunk, which carries no gc range.
  expect_entries(*footer, {{8, 8, 0, true, 0, 29},
                           {8, 8, 0, true, 10, 39},
                           {6, 6, 0, true, 40, 49},
                           {5, 5, 0, false, 0, 0}});
  EXPECT_EQ(footer->prefix_max_gc, (std::vector<GlobalCount>{29, 39, 49, 49}));
}

// Any change to the spool or footer format must change this pin.
TEST(SpoolIndex, KnownSpoolBytesArePinned) {
  const std::string dir = fresh_dir("pin");
  const Bytes bytes = read_file(write_known_spool(dir));
  EXPECT_EQ(bytes.size(), 132u);
  EXPECT_EQ(crc32(bytes), 0xa4905552u);
}

/// Writes a spool holding every item kind the writer emits — schedule,
/// network, trace, causal-delta, anchor and finish — over several chunks
/// (small chunk_bytes; the anchor and the finish item seal chunks of their
/// own) and returns the path.
std::string write_all_kinds_spool(const std::string& dir, bool compress) {
  const std::string path = dir + "/all.djvuspool";
  record::LogSpooler::Options opts;
  opts.path = path;
  opts.chunk_bytes = 48;
  opts.compress = compress;
  record::LogSpooler spooler(9, opts);
  using sched::EventKind;
  spooler.schedule_batch(0, {{0, 4}, {9, 12}});
  spooler.schedule_batch(1, {{5, 8}});
  record::NetworkLogEntry accept;
  accept.kind = EventKind::kSockAccept;
  accept.value = 0x10000beef;
  spooler.network_entry(1, accept);
  spooler.trace_batch({{3, 0, EventKind::kSharedRead, 7},
                       {4, 0, EventKind::kSharedWrite, 8}});
  spooler.causal_batch(0, {0, 1, 1, 3});
  spooler.causal_batch(2, {5});
  record::SpoolAnchor anchor;
  anchor.phase = 1;
  anchor.gc = 13;
  anchor.threads_created = 3;
  anchor.main_event_num = 1;
  anchor.state = {{"x", {1, 2, 3}}, {"y", {}}};
  spooler.anchor(anchor);
  spooler.schedule_batch(2, {{14, 20}});
  spooler.trace_batch({{15, 2, EventKind::kSockRead, 0xabcdef}});
  record::NetworkLogEntry read;
  read.kind = EventKind::kSockRead;
  read.event_num = 1;
  read.value = 3;
  read.data = Bytes{'a', 'b', 'c'};
  spooler.network_entry(2, read);
  spooler.causal_batch(2, {6, 2});
  record::RecordStats stats;
  stats.critical_events = 21;
  stats.network_events = 2;
  spooler.finish(stats, 3);
  spooler.close();
  return path;
}

// The writer folds each schedule, trace and anchor item's gc range into
// its chunk's entry; the anchor seals a chunk of its own whose range is the
// anchor's gc alone.
TEST(SpoolIndex, FooterEntriesMatchPinnedValuesForEveryItemKind) {
  for (const bool compress : {false, true}) {
    SCOPED_TRACE(compress ? "compressed" : "raw");
    const std::string dir = fresh_dir(compress ? "all_kinds_lz" : "all_kinds");
    const std::string path = write_all_kinds_spool(dir, compress);

    std::set<record::SpoolItemKind> kinds;
    record::LogSource source(path);
    while (std::optional<record::SpoolItem> item = source.next()) {
      kinds.insert(item->kind);
    }
    EXPECT_EQ(kinds.size(), 6u);  // schedule, network, trace, finish,
                                  // causal-delta and anchor

    const record::SpoolIndex* footer = source.index();
    ASSERT_NE(footer, nullptr);
    // Only the first chunk compresses: the lz run shortens its stored
    // bytes, and the other chunks stay raw (codec 0).
    expect_entries(*footer, {{compress ? 46u : 50u, 50,
                              static_cast<std::uint8_t>(compress), true, 0,
                              12},
                             {13, 13, 0, false, 0, 0},
                             {16, 16, 0, true, 13, 13},
                             {37, 37, 0, true, 14, 20},
                             {5, 5, 0, false, 0, 0}});
  }
}

TEST(SpoolIndex, TornFooterFallsBackToCleanSequentialLoad) {
  const std::string dir = fresh_dir("torn");
  const std::string path = write_known_spool(dir);
  const Bytes baseline = record::serialize(record::load_spooled_log(path));

  // Shave one byte: the trailer magic is destroyed but every chunk —
  // finish included — survives, so the file is a complete recording that
  // merely lost its index.
  std::filesystem::resize_file(path, file_size(path) - 1);

  record::LogSource source(path);
  EXPECT_EQ(source.index(), nullptr);  // no (valid) footer

  bool clean = false;
  record::VmLog log = record::load_spooled_log(path, &clean);
  EXPECT_TRUE(clean);
  EXPECT_EQ(record::serialize(log), baseline);

  // Seeking needs the index: without it the stream ends at once.
  record::LogSource seeker(path);
  EXPECT_FALSE(seeker.seek_to_gc(35));
  EXPECT_FALSE(seeker.next().has_value());
}

TEST(SpoolIndex, FooterlessSpoolLoadsButDoesNotSeek) {
  const std::string dir = fresh_dir("footerless");
  const std::string path = footerless_copy(write_known_spool(dir));

  record::LogSource source(path);
  EXPECT_EQ(source.index(), nullptr);

  bool clean = false;
  record::VmLog log = record::load_spooled_log(path, &clean);
  EXPECT_TRUE(clean);
  EXPECT_EQ(log.stats.critical_events, 50u);

  record::LogSource seeker(path);
  EXPECT_FALSE(seeker.seek_to_gc(42));
  EXPECT_FALSE(seeker.next().has_value());
}

// A spool sealed with a version-1 footer: the same chunks, and a footer
// whose entries also carried item-kind bits, a network count and
// per-thread totals.  It reads as "no index" and loads through the
// sequential scan to exactly what the version-2 spool loads to.
TEST(SpoolIndex, VersionOneFooterLoadsSequentially) {
  const std::string dir = fresh_dir("v1");
  const std::string sealed = write_known_spool(dir);
  const record::SpoolIndex index = sealed_index(sealed);
  ASSERT_EQ(index.chunks.size(), 4u);

  // Version 1: kinds u8 after the codec, then network_items and
  // thread_count { thread | intervals | sched_events | causal_entries }
  // after the gc range.  Chunks 0-2 hold one schedule batch each (kind
  // bit 1), chunk 3 the finish item (kind bit 8).
  struct ThreadTotals {
    std::uint64_t thread, intervals, sched_events;
  };
  const ThreadTotals totals[] = {{0, 2, 20}, {1, 2, 20}, {0, 1, 10}};
  ByteWriter body;
  body.varint(index.data_end).u32(index.file_crc).varint(4);
  for (std::size_t i = 0; i < 4; ++i) {
    const record::SpoolChunkInfo& c = index.chunks[i];
    const bool schedule = i < 3;
    body.varint(c.stored_len).varint(c.raw_len).u8(c.codec);
    body.u8(schedule ? 1 : 8).u8(schedule ? 1 : 0);
    if (schedule) body.varint(c.min_gc).varint(c.max_gc - c.min_gc);
    body.varint(0).varint(schedule ? 1 : 0);
    if (schedule) {
      body.varint(totals[i].thread).varint(totals[i].intervals);
      body.varint(totals[i].sched_events).varint(0);
    }
  }
  const std::string v1 = dir + "/v1.djvuspool";
  write_with_footer(sealed, v1, 1, body.view());
  // Byte for byte the file the version-1 writer sealed for this spool.
  const Bytes bytes = read_file(v1);
  EXPECT_EQ(bytes.size(), 156u);
  EXPECT_EQ(crc32(bytes), 0x924d4163u);

  EXPECT_EQ(record::LogSource(v1).index(), nullptr);
  const record::SpoolContents got = record::load_spool(v1);
  const record::SpoolContents want = record::load_spool(sealed);
  EXPECT_TRUE(got.clean_end);
  EXPECT_EQ(got.truncated_bytes, 0u);
  EXPECT_EQ(record::serialize(got.log), record::serialize(want.log));
  EXPECT_EQ(got.trace.records, want.trace.records);
  EXPECT_EQ(sched::trace_digest(got.trace.records),
            sched::trace_digest(want.trace.records));
  bool clean = false;
  EXPECT_EQ(record::serialize(record::load_spooled_log(v1, &clean)),
            record::serialize(want.log));
  EXPECT_TRUE(clean);
}

// --- seek_to_gc -------------------------------------------------------------

TEST(SpoolIndex, SeekToGcFindsCoveringChunkAtBoundaries) {
  const std::string dir = fresh_dir("seek");
  const std::string path = write_known_spool(dir);

  struct Case {
    GlobalCount pos;
    sched::LogicalInterval expect;
  };
  // Boundary positions of every interval plus interior points; the
  // covering chunk for gc in [10, 29] requires the prefix-max search (the
  // t1 intervals live in a LATER chunk whose range starts lower than the
  // previous chunk's maximum).
  const Case cases[] = {
      {0, {0, 9}},    {9, {0, 9}},    {10, {10, 19}}, {19, {10, 19}},
      {20, {20, 29}}, {29, {20, 29}}, {30, {30, 39}}, {39, {30, 39}},
      {40, {40, 49}}, {45, {40, 49}}, {49, {40, 49}},
  };
  for (const Case& c : cases) {
    record::LogSource source(path);
    ASSERT_TRUE(source.seek_to_gc(c.pos)) << c.pos;
    const auto owner = find_owner(source, c.pos);
    ASSERT_TRUE(owner.has_value()) << c.pos;
    EXPECT_EQ(*owner, c.expect) << c.pos;
  }

  // Beyond the last recorded event: seek reports an empty stream.
  record::LogSource beyond(path);
  EXPECT_FALSE(beyond.seek_to_gc(50));
  EXPECT_FALSE(beyond.next().has_value());
}

// --- parallel load equivalence ----------------------------------------------

constexpr int kMsgs = 4;

void echo_server_main(vm::Vm& v) {
  vm::ServerSocket listener(v, 4801);
  vm::SharedVar<std::uint64_t> x(v, 0);
  std::vector<vm::VmThread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back(v, [&] {
      for (int i = 0; i < 40; ++i) x.set(x.get() + 1);
    });
  }
  auto conn = listener.accept();
  for (int m = 0; m < kMsgs; ++m) {
    Bytes msg = testutil::read_exactly(*conn, 4);
    conn->output_stream().write(msg);
  }
  conn->close();
  for (auto& th : threads) th.join();
}

void echo_client_main(vm::Vm& v) {
  vm::SharedVar<std::uint64_t> y(v, 0);
  vm::VmThread th(v, [&] {
    for (int i = 0; i < 40; ++i) y.set(y.get() + 1);
  });
  auto sock = testutil::connect_retry(v, {1, 4801});
  for (int m = 0; m < kMsgs; ++m) {
    Bytes msg = to_bytes("p" + std::to_string(m) + "qq");
    msg.resize(4, '!');
    sock->output_stream().write(msg);
    testutil::read_exactly(*sock, 4);
  }
  sock->close();
  th.join();
}

class ParallelLoad
    : public ::testing::TestWithParam<std::tuple<bool, OrderMode>> {};

TEST_P(ParallelLoad, BitIdenticalToSequential) {
  const auto [compress, mode] = GetParam();
  const std::string dir =
      fresh_dir(std::string("par_") + (compress ? "lz_" : "raw_") +
                order_mode_name(mode));
  core::SessionConfig cfg;
  cfg.tuning.spool_dir = dir;
  cfg.tuning.spool_chunk_bytes = 512;  // many chunks to fold
  cfg.tuning.spool_compress = compress;
  cfg.tuning.order_mode = mode;
  core::Session s(cfg);
  s.add_vm("server", 1, true, echo_server_main);
  s.add_vm("client", 2, true, echo_client_main);
  auto rec = s.record(77);

  for (const char* name : {"server", "client"}) {
    const std::string& path = rec.vm(name).spool_path;
    ASSERT_FALSE(path.empty()) << name;
    EXPECT_GT(rec.vm(name).spool.chunks_written, 1u) << name;

    const std::string sequential = footerless_copy(path);
    EXPECT_EQ(record::LogSource(sequential).index(), nullptr) << name;

    record::SpoolContents a = record::load_spool(sequential);
    record::SpoolContents b = record::load_spool(path);
    EXPECT_TRUE(a.clean_end) << name;
    EXPECT_TRUE(b.clean_end) << name;
    EXPECT_EQ(b.truncated_bytes, 0u) << name;
    // Bit-identical fold: the serialized bundle, the trace stream and its
    // digest all agree with the sequential decode.
    EXPECT_EQ(record::serialize(a.log), record::serialize(b.log)) << name;
    EXPECT_EQ(a.trace.records, b.trace.records) << name;
    EXPECT_EQ(sched::trace_digest(a.trace.records),
              sched::trace_digest(b.trace.records))
        << name;

    bool clean_a = false;
    bool clean_b = false;
    record::VmLog la = record::load_spooled_log(sequential, &clean_a);
    record::VmLog lb = record::load_spooled_log(path, &clean_b);
    EXPECT_TRUE(clean_a) << name;
    EXPECT_TRUE(clean_b) << name;
    EXPECT_EQ(record::serialize(la), record::serialize(lb)) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    CompressionByOrderMode, ParallelLoad,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(OrderMode::kTotal,
                                         OrderMode::kCausal)));

// --- determinism pins -------------------------------------------------------

TEST(SpoolLoad, EqualGcTraceRecordsKeepFileOrder) {
  const std::string dir = fresh_dir("stable");
  const std::string path = dir + "/vm.djvuspool";
  record::LogSpooler::Options opts;
  opts.path = path;
  opts.chunk_bytes = 16;  // one trace batch per chunk
  record::LogSpooler spooler(3, opts);
  // Two batches in separate chunks sharing gc 5: a stable sort must keep
  // batch (file) order; an unstable one is free to swap them.
  spooler.trace_batch({{4, 0, sched::EventKind::kSharedRead, 11},
                       {5, 0, sched::EventKind::kSharedRead, 111}});
  spooler.trace_batch({{5, 1, sched::EventKind::kSharedWrite, 222},
                       {6, 1, sched::EventKind::kSharedWrite, 33}});
  spooler.schedule_batch(0, {{0, 9}});
  record::RecordStats stats;
  stats.critical_events = 10;
  spooler.finish(stats, 2);
  spooler.close();

  // The footer'd file takes the indexed load, its footerless copy the
  // sequential scan.
  for (const std::string& file : {path, footerless_copy(path)}) {
    record::SpoolContents contents = record::load_spool(file);
    ASSERT_EQ(contents.trace.records.size(), 4u) << file;
    EXPECT_EQ(contents.trace.records[1].aux, 111u) << file;
    EXPECT_EQ(contents.trace.records[2].aux, 222u) << file;
  }
}

TEST(SpoolLoad, WholeFileCrcCatchesHeaderCorruption) {
  const std::string dir = fresh_dir("hdrcrc");
  const std::string path = write_known_spool(dir);
  // The vm_id bytes of the file header are covered by no chunk CRC — only
  // the footer's whole-file CRC can notice this flip.
  flip_byte(path, 10);

  record::LogSource source(path);
  EXPECT_THROW(
      {
        while (source.next()) {
        }
      },
      LogFormatError);
}

// --- load fallbacks and hostile fields --------------------------------------

/// A footer'd spool with one item per chunk, schedule and trace batches
/// alternating over two threads, so a middle chunk can be damaged alone.
std::string write_multi_chunk_spool(const std::string& dir) {
  const std::string path = dir + "/vm.djvuspool";
  record::LogSpooler::Options opts;
  opts.path = path;
  opts.chunk_bytes = 8;  // one item per chunk
  record::LogSpooler spooler(5, opts);
  for (GlobalCount gc = 0; gc < 60; gc += 10) {
    const auto thread = static_cast<ThreadNum>(gc / 10 % 2);
    spooler.schedule_batch(thread, {{gc, gc + 9}});
    spooler.trace_batch(
        {{gc, thread, sched::EventKind::kSharedRead, gc},
         {gc + 9, thread, sched::EventKind::kSharedWrite, gc + 9}});
  }
  record::RecordStats stats;
  stats.critical_events = 60;
  spooler.finish(stats, 2);
  spooler.close();
  return path;
}

TEST(SpoolLoad, CorruptMiddleChunkFallsBackToSequentialPrefix) {
  const std::string dir = fresh_dir("midchunk");
  const std::string path = write_multi_chunk_spool(dir);
  const record::SpoolIndex index = sealed_index(path);
  ASSERT_GE(index.chunks.size(), 6u);
  const record::SpoolChunkInfo& middle = index.chunks[index.chunks.size() / 2];
  // A payload byte: the chunk CRC fails, so the indexed load must give up
  // and the sequential scan recovers the prefix before this chunk.
  flip_byte(path, middle.offset + record::kChunkFrameBytes + 1);
  const std::string sequential = footerless_copy(path);

  const record::SpoolContents expect = record::load_spool(sequential);
  EXPECT_FALSE(expect.clean_end);
  EXPECT_GT(expect.truncated_bytes, 0u);
  EXPECT_FALSE(expect.trace.records.empty());

  const record::SpoolContents got = record::load_spool(path);
  EXPECT_FALSE(got.clean_end);
  EXPECT_GT(got.truncated_bytes, 0u);
  EXPECT_EQ(record::serialize(got.log), record::serialize(expect.log));
  EXPECT_EQ(got.trace.records, expect.trace.records);

  bool clean = true;
  const record::VmLog log = record::load_spooled_log(path, &clean);
  EXPECT_FALSE(clean);
  EXPECT_EQ(record::serialize(log), record::serialize(expect.log));
}

TEST(SpoolLoad, CorruptHeaderThrowsThroughLoadSpool) {
  const std::string dir = fresh_dir("hdrload");
  const std::string path = write_multi_chunk_spool(dir);
  // vm_id bytes: no chunk CRC covers them, so the indexed load's stitched
  // whole-file CRC fails and the sequential scan's check must throw.
  flip_byte(path, 10);
  EXPECT_THROW(record::load_spool(path), LogFormatError);
  EXPECT_THROW(record::load_spooled_log(path), LogFormatError);
}

TEST(SpoolLoad, HugeThreadNumberIsAFormatError) {
  const std::string dir = fresh_dir("thread_max");
  const std::string path = dir + "/vm.djvuspool";
  {
    record::LogSpooler::Options opts;
    opts.path = path;
    record::LogSpooler spooler(9, opts);
    // thread + 1 wraps to 0 in 32 bits: the load must neither index past
    // a resize(0) nor try a multi-GB resize.
    spooler.schedule_batch(0xFFFFFFFFu, {{0, 3}});
    record::RecordStats stats;
    stats.critical_events = 4;
    spooler.finish(stats, 1);
    spooler.close();
  }
  for (const std::string& file : {path, footerless_copy(path)}) {
    EXPECT_THROW(record::load_spool(file), LogFormatError) << file;
    EXPECT_THROW(record::load_spooled_log(file), LogFormatError) << file;
  }
}

/// One field of a CRC-valid version-2 footer that a hostile writer set.
enum class HostileField { kNone, kChunkCount, kFlagBits, kGcWrap };

/// The version-2 footer body of `index`, with `field` made hostile in
/// chunk 0 (or in the chunk count).
Bytes footer_body(const record::SpoolIndex& index, HostileField field) {
  ByteWriter w;
  w.varint(index.data_end).u32(index.file_crc);
  if (field == HostileField::kChunkCount) {
    w.varint(1ull << 62);
    return w.take();
  }
  w.varint(index.chunks.size());
  for (std::size_t i = 0; i < index.chunks.size(); ++i) {
    const record::SpoolChunkInfo& c = index.chunks[i];
    w.varint(c.stored_len).varint(c.raw_len).u8(c.codec);
    const bool hostile = i == 0 && field != HostileField::kNone;
    w.u8((c.has_gc ? 1 : 0) |
         (hostile && field == HostileField::kFlagBits ? 2 : 0));
    if (hostile && field == HostileField::kGcWrap) {
      // max_gc = min_gc + span wraps past 2^64 to a value below min_gc.
      w.varint(~GlobalCount{0} - 5).varint(10);
    } else if (c.has_gc) {
      w.varint(c.min_gc).varint(c.max_gc - c.min_gc);
    }
  }
  return w.take();
}

/// A copy of the known spool whose footer has `field` hostile must read as
/// "no index" and still load cleanly through the sequential scan, while the
/// same footer without the hostile field reads as the sealed index.
void expect_hostile_footer_ignored(const std::string& tag,
                                   HostileField field) {
  const std::string dir = fresh_dir(tag);
  const std::string pristine = write_known_spool(dir);
  const Bytes baseline = record::serialize(record::load_spooled_log(pristine));
  const record::SpoolIndex index = sealed_index(pristine);

  const std::string control = dir + "/control.djvuspool";
  write_with_footer(pristine, control, record::kSpoolIndexVersion,
                    footer_body(index, HostileField::kNone));
  record::LogSource control_source(control);
  ASSERT_NE(control_source.index(), nullptr);
  EXPECT_EQ(control_source.index()->chunks, index.chunks);

  const std::string path = dir + "/hostile.djvuspool";
  write_with_footer(pristine, path, record::kSpoolIndexVersion,
                    footer_body(index, field));
  EXPECT_EQ(record::LogSource(path).index(), nullptr);
  EXPECT_FALSE(record::LogSource(path).seek_to_gc(0));
  record::SpoolContents contents;
  ASSERT_NO_THROW(contents = record::load_spool(path));
  EXPECT_TRUE(contents.clean_end);
  EXPECT_EQ(record::serialize(contents.log), baseline);
}

TEST(SpoolIndex, FooterWithImpossibleCountsReadsAsNoIndex) {
  expect_hostile_footer_ignored("hostile_count", HostileField::kChunkCount);
}

TEST(SpoolIndex, FooterWithUnknownFlagBitsReadsAsNoIndex) {
  expect_hostile_footer_ignored("hostile_flags", HostileField::kFlagBits);
}

TEST(SpoolIndex, FooterWithWrappingGcRangeReadsAsNoIndex) {
  expect_hostile_footer_ignored("hostile_wrap", HostileField::kGcWrap);
}

// A trace file torn in its last data chunk, or in its finish chunk, must
// not diff as a prefix of (or identical to) the intact file: the torn side
// is read to its end, which did not end cleanly, so the diff throws.
TEST(TraceFileDiff, TornLastChunksThrowInsteadOfMatching) {
  const std::string dir = fresh_dir("trcdiff");
  record::TraceFile trace;
  trace.vm_id = 4;
  for (GlobalCount g = 0; g < 3000; ++g) {
    trace.records.push_back(
        {g, static_cast<ThreadNum>(g % 2), sched::EventKind::kSharedRead, g});
  }
  const std::string good = dir + "/good.djvutrace";
  record::save_trace_to_file(trace, good);
  std::vector<record::SpoolChunkInfo> chunks;
  {
    record::LogSource source(good);
    ASSERT_NE(source.index(), nullptr);
    chunks = source.index()->chunks;
  }
  ASSERT_GE(chunks.size(), 2u);  // data chunk(s), then the finish chunk
  for (const std::size_t victim : {chunks.size() - 2, chunks.size() - 1}) {
    const std::string bad = dir + "/bad.djvutrace";
    std::filesystem::copy_file(
        good, bad, std::filesystem::copy_options::overwrite_existing);
    const record::SpoolChunkInfo& c = chunks[victim];
    flip_byte(bad, c.offset + record::kChunkFrameBytes + c.stored_len / 2);
    EXPECT_THROW(record::diff_trace_files(good, bad), LogFormatError)
        << "chunk " << victim;
    EXPECT_THROW(record::diff_trace_files(bad, good), LogFormatError)
        << "chunk " << victim;
    EXPECT_THROW(record::load_trace_from_file(bad), LogFormatError)
        << "chunk " << victim;
  }
}

// --- doctor: footer'd and footerless copies ---------------------------------

// The doctor loads a spool through the replay loader, indexed or not, so a
// sealed spool and the same recording cut back to its data (no footer, the
// sequential scan) diagnose identically: every statistic, including the
// interval-length extremes and the byte budget a footer alone cannot give,
// and every note.
TEST(DoctorIndex, IndexedAndFallbackDiagnosesAgree) {
  const std::string dir = fresh_dir("doctor");
  const std::string indexed = write_known_spool(dir);
  // Same recording without its footer: forces the sequential load.
  const std::string stripped = dir + "/stripped.djvuspool";
  std::filesystem::copy(indexed, stripped);
  {
    record::LogSource source(indexed);
    ASSERT_NE(source.index(), nullptr);
    std::filesystem::resize_file(stripped, source.index()->data_end);
  }
  ASSERT_EQ(record::LogSource(stripped).index(), nullptr);

  sched::DivergenceReport report;
  report.vm_id = 7;
  report.cause = DivergenceCause::kBeyondSchedule;
  report.thread = 1;
  report.thread_events_replayed = 25;
  report.has_expected = true;
  report.expected_gc = 35;  // inside t1's interval [30, 39]

  replay::DoctorReport fast = replay::diagnose_spool(report, indexed);
  replay::DoctorReport slow = replay::diagnose_spool(report, stripped);

  for (const replay::DoctorReport* doc : {&fast, &slow}) {
    EXPECT_TRUE(doc->log_found);
    EXPECT_TRUE(doc->clean_end);
    EXPECT_EQ(doc->truncated_bytes, 0u);
    ASSERT_TRUE(doc->owner_known);
    EXPECT_EQ(doc->recorded_owner_thread, 1u);
    EXPECT_EQ(doc->recorded_owner_interval, (sched::LogicalInterval{30, 39}));
    EXPECT_EQ(doc->thread_recorded_events, 20u);
    EXPECT_EQ(doc->thread_recorded_intervals, 2u);
    EXPECT_EQ(doc->stats.critical_events, 50u);
    EXPECT_EQ(doc->stats.intervals, 5u);
    EXPECT_EQ(doc->stats.threads, 2u);
    EXPECT_EQ(doc->stats.min_interval_len, 10u);
    EXPECT_EQ(doc->stats.max_interval_len, 10u);
    EXPECT_GT(doc->stats.schedule_bytes, 0u);
    EXPECT_GT(doc->stats.serialized_bytes, 0u);
    EXPECT_FALSE(doc->notes.empty());
  }
  EXPECT_EQ(record::to_json(fast.stats), record::to_json(slow.stats));
  EXPECT_EQ(fast.notes, slow.notes);
  // The context windows agree interval-for-interval.
  ASSERT_EQ(fast.context.size(), slow.context.size());
  for (std::size_t i = 0; i < fast.context.size(); ++i) {
    EXPECT_EQ(fast.context[i].thread, slow.context[i].thread) << i;
    EXPECT_EQ(fast.context[i].interval, slow.context[i].interval) << i;
    EXPECT_EQ(fast.context[i].owns_divergence,
              slow.context[i].owns_divergence)
        << i;
  }
  // Apart from the path, the two reports are the same report.
  slow.log_path = fast.log_path;
  EXPECT_EQ(replay::to_json(fast), replay::to_json(slow));
}

}  // namespace
}  // namespace djvu
