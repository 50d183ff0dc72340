// Spool load throughput: the sequential decoder vs the indexed parallel
// loader, plus the seek primitive vs a full-file scan.
//
// A synthetic multi-chunk spool (schedule batches interleaved across four
// threads, a trace record per critical event, a sprinkle of network
// entries) is written once per codec row, then loaded repeatedly:
//
//   * load_spool of a copy cut at the footer's data_end — no index, so the
//     sequential scan (the ablation baseline);
//   * load_spool of the footer'd file — min(cores, 8, chunks) workers
//     decoding chunks concurrently through the index footer, folded in
//     chunk order so the result is bit-identical
//     (tests/spool_index_test.cc proves it; this bench measures it);
//   * seek_to_gc to a position ~90% into the recording and decode of the
//     covering interval, vs streaming the whole file to the same answer.
//
// Flags:
//   --smoke   small file, and exit nonzero if the parallel load is >10%
//             slower than sequential on a multi-core host — the CI
//             regression tripwire.  (On a single core the parallel path
//             degenerates to sequential-with-threads and is exempt.)
//
// Exits nonzero if a spool it wrote has no readable index footer: without
// one both arms would time the sequential scan.
//
// Emits BENCH_spool_load.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/emit_json.h"
#include "record/log_spool.h"
#include "record/spool_index.h"

namespace {

using namespace djvu;
using namespace djvu::bench;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SynthSpool {
  std::string path;
  GlobalCount critical_events = 0;
  std::uint64_t bytes = 0;
};

/// Writes a spool of roughly `target_bytes` of raw item data: four threads
/// take turns owning pseudo-random logical intervals, every critical event
/// gets a trace record, and each round ships one schedule batch + one
/// trace batch (so chunks interleave kinds and per-chunk gc ranges
/// overlap, as real recordings do).
SynthSpool synth_spool(const std::string& path, bool compress,
                       std::uint64_t target_bytes) {
  record::LogSpooler::Options opts;
  opts.path = path;
  opts.compress = compress;
  record::LogSpooler spooler(1, opts);

  constexpr ThreadNum kThreads = 4;
  GlobalCount gc = 0;
  std::uint64_t approx = 0;
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  ThreadNum t = 0;
  while (approx < target_bytes) {
    sched::IntervalList batch;
    std::vector<sched::TraceRecord> trace;
    for (int i = 0; i < 256; ++i) {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      const GlobalCount len = 1 + (rng % 24);
      batch.push_back({gc, gc + len - 1});
      for (GlobalCount g = gc; g < gc + len; ++g) {
        trace.push_back({g, t, sched::EventKind::kSharedRead, rng ^ g});
      }
      gc += len;
    }
    approx += trace.size() * 12 + batch.size() * 4;
    spooler.schedule_batch(t, batch);
    spooler.trace_batch(std::move(trace));
    t = static_cast<ThreadNum>((t + 1) % kThreads);
  }
  record::RecordStats stats;
  stats.critical_events = gc;
  spooler.finish(stats, kThreads);
  spooler.close();

  SynthSpool out;
  out.path = path;
  out.critical_events = gc;
  out.bytes = static_cast<std::uint64_t>(std::filesystem::file_size(path));
  return out;
}

/// Best-of-`reps` wall time of load_spool.
double measure_load(const std::string& path, int reps) {
  double best = 1e100;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_seconds();
    record::SpoolContents contents = record::load_spool(path);
    const double dt = now_seconds() - t0;
    if (!contents.clean_end) throw Error("bench spool did not load cleanly");
    best = std::min(best, dt);
  }
  return best;
}

/// First interval containing `pos`, decoding forward from the source's
/// current position.
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

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int reps = 3;
  const std::uint64_t target = smoke ? (4ull << 20) : (48ull << 20);
  const unsigned cores = std::thread::hardware_concurrency();
  const std::string dir =
      (std::filesystem::temp_directory_path() / "bench_spool_load").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  std::printf("Spool load: sequential vs indexed parallel decode "
              "(%u cores%s)\n\n",
              cores, smoke ? ", smoke" : "");
  std::printf("%6s %9s %8s %9s %9s %9s %9s %8s\n", "codec", "file MB",
              "chunks", "seq(s)", "par(s)", "seq MB/s", "par MB/s",
              "speedup");

  bool tripwire = false;
  std::vector<Json> records;
  for (bool compress : {false, true}) {
    const std::string path =
        dir + (compress ? "/lz.djvuspool" : "/raw.djvuspool");
    const SynthSpool spool = synth_spool(path, compress, target);
    const double mb = static_cast<double>(spool.bytes) / (1 << 20);
    record::SpoolIndex index;
    {
      record::LogSource source(path);
      if (source.index() == nullptr) {
        std::printf("ERROR: %s has no readable index footer\n", path.c_str());
        return 1;
      }
      index = *source.index();
    }
    const std::size_t chunks = index.chunks.size();
    // The footer selects the indexed load, so the sequential arm loads a
    // copy cut where the footer begins.
    const std::string footerless = path + ".seq";
    std::filesystem::copy_file(
        path, footerless, std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(footerless, index.data_end);

    const double seq = measure_load(footerless, reps);
    const double par = measure_load(path, reps);
    const double speedup = seq / par;
    std::printf("%6s %9.1f %8zu %9.4f %9.4f %9.1f %9.1f %7.2fx\n",
                compress ? "lz" : "raw", mb, chunks, seq, par, mb / seq,
                mb / par, speedup);

    if (smoke && cores >= 2 && par > 1.10 * seq) {
      std::printf("  TRIPWIRE: parallel load %.4fs is >10%% slower than "
                  "sequential %.4fs (%s)\n",
                  par, seq, compress ? "lz" : "raw");
      tripwire = true;
    }

    // Seek primitive: land on the covering chunk of a position ~90% into
    // the recording via the index, vs streaming the file from the top to
    // the same answer.
    const GlobalCount pos = spool.critical_events * 9 / 10;
    double seek = 1e100, scan = 1e100;
    for (int i = 0; i < reps; ++i) {
      {
        const double t0 = now_seconds();
        record::LogSource source(path);
        if (!source.seek_to_gc(pos) || !find_owner(source, pos)) {
          throw Error("seek_to_gc failed to find the covering interval");
        }
        seek = std::min(seek, now_seconds() - t0);
      }
      {
        const double t0 = now_seconds();
        record::LogSource source(path);
        if (!find_owner(source, pos)) {
          throw Error("sequential scan failed to find the covering interval");
        }
        scan = std::min(scan, now_seconds() - t0);
      }
    }
    std::printf("%6s seek_to_gc(%llu): %.3f ms vs %.3f ms full scan "
                "(%.0fx)\n",
                "", static_cast<unsigned long long>(pos), seek * 1e3,
                scan * 1e3, scan / seek);

    records.push_back(Json::object()
                          .field("codec", compress ? "lz" : "raw")
                          .field("file_mb", mb)
                          .field("chunks", static_cast<std::uint64_t>(chunks))
                          .field("critical_events", spool.critical_events)
                          .field("load_sequential_s", seq)
                          .field("load_parallel_s", par)
                          .field("sequential_mb_per_s", mb / seq)
                          .field("parallel_mb_per_s", mb / par)
                          .field("parallel_speedup", speedup)
                          .field("seek_s", seek)
                          .field("full_scan_s", scan)
                          .field("seek_speedup", scan / seek));
  }

  Json root =
      Json::object()
          .field("bench", "spool_load")
          .field("env", Json::object()
                            .field("hardware_concurrency",
                                   static_cast<std::uint64_t>(cores))
                            .field("smoke", smoke)
                            .field("reps", reps)
                            .field("target_bytes", target))
          .field("results", records);
  write_bench_json("BENCH_spool_load.json", root);
  std::filesystem::remove_all(dir);
  return tripwire ? 1 : 0;
}
