// Record-path contention benchmark: critical-event throughput as the
// thread count grows, sharded GC-critical sections vs the paper-faithful
// single section (the ablation baseline), over independent vs shared
// conflict objects.
//
// Each worker hammers a SharedVar with get+set pairs (two critical events
// per iteration).  "independent" gives every thread its own var — the case
// sharding is built for: events on distinct objects take distinct stripes
// and the only shared write is the counter fetch_add.  "shared" makes all
// threads fight over one var, so every event takes the same stripe and
// sharding can't help — the honest lower bound.
//
// The total event count is held constant across thread counts, so the
// throughput column directly shows scaling (or, on an oversubscribed
// machine, contention).  Emits BENCH_record_scaling.json via
// bench/emit_json.h.  Note: on a single-core container every config is
// timeslicing, not parallel — expect sharding to show up as *less
// degradation* under contention rather than a multi-core speedup.
//
// Flags:
//   --spool      run only the spooled-vs-in-memory record comparison
//                (two arms: memory and spool)
//   --flight     add a third arm: flight-recorder mode (bounded on-disk
//                retention ring + periodic checkpoint anchors) on top of
//                the same spooler.  Retention overhead = flight vs the
//                unbounded spool arm.
//   --smoke      small spool grid (implies --spool and --flight); exit
//                nonzero if a spool arm's producers blocked on the writer
//                or its queue reached buffer_bytes, or if the flight arm's
//                producers blocked a different number of times than the
//                spool arm's (the regression tripwires: counts, not times,
//                because the smoke arms last milliseconds; both need >= 2
//                usable CPUs for overlap to be possible)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "bench/emit_json.h"
#include "common/cpus.h"
#include "common/tuning.h"
#include "net/network.h"
#include "record/log_spool.h"
#include "sched/sched_stats.h"
#include "vm/shared_var.h"
#include "vm/thread.h"
#include "vm/vm.h"

namespace djvu::bench {
namespace {

constexpr int kTotalIters = 30000;  // get+set pairs, split among threads
constexpr int kReps = 3;

struct Result {
  int threads = 0;
  bool shared_object = false;
  bool sharding = false;
  std::uint64_t events = 0;
  double seconds = 0;
  double events_per_sec = 0;
  sched::SchedStats sched{};
};

Result run_config(int threads, bool shared_object, bool sharding) {
  auto network = std::make_shared<net::Network>();
  vm::VmConfig cfg;
  cfg.vm_id = 1;
  cfg.mode = vm::Mode::kRecord;
  cfg.keep_trace = false;
  cfg.tuning.record_sharding = sharding;
  vm::Vm v(network, cfg);
  v.attach_main();

  const int per_thread = kTotalIters / threads;
  std::vector<std::unique_ptr<vm::SharedVar<std::uint64_t>>> vars;
  const int var_count = shared_object ? 1 : threads;
  for (int i = 0; i < var_count; ++i) {
    vars.push_back(std::make_unique<vm::SharedVar<std::uint64_t>>(v, 0));
  }

  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<vm::VmThread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      auto& var = *vars[shared_object ? 0 : t];
      workers.emplace_back(v, [&var, per_thread] {
        for (int i = 0; i < per_thread; ++i) var.set(var.get() + 1);
      });
    }
    for (auto& w : workers) w.join();
  }
  const auto end = std::chrono::steady_clock::now();

  Result r;
  r.threads = threads;
  r.shared_object = shared_object;
  r.sharding = sharding;
  // get + set per iteration, plus one thread-start event per worker.
  r.events = static_cast<std::uint64_t>(per_thread) * 2 *
                 static_cast<std::uint64_t>(threads) +
             static_cast<std::uint64_t>(threads);
  r.seconds = std::chrono::duration<double>(end - start).count();
  r.events_per_sec = static_cast<double>(r.events) / r.seconds;
  r.sched = v.sched_stats();
  v.detach_current();
  return r;
}

Result best_of(int threads, bool shared_object, bool sharding) {
  Result best;
  for (int i = 0; i < kReps; ++i) {
    Result r = run_config(threads, shared_object, sharding);
    if (i == 0 || r.events_per_sec > best.events_per_sec) best = r;
  }
  return best;
}

// --- Spooled vs in-memory record ------------------------------------------
//
// Same workload, full record bookkeeping (keep_trace on), timed through
// finish_record() so the spooled arm pays for sealing and fsyncing its file.

// memory = in-memory VmLog (no spooler at all); spool = streamed to one
// spool file through the spooler's bounded queue and writer thread.  The
// spool arm also keeps its trace in memory, as every keep_trace spooled
// run does (the run's trace and digest come from it, never from reading
// the spool back), so it pays for one copy of each trace batch.
// flight = spool plus the flight-recorder retention ring, which keeps no
// in-memory trace (its trace lives only in the bounded tail): sealed
// chunks land in a bounded on-disk directory (oldest evicted as new ones
// seal) and the main thread ships periodic checkpoint anchors, so the arm
// pays for everything always-on recording adds — anchor chunks, per-chunk
// ring-file IO, eviction, and the final tail reassembly in finish_record.
enum class SpoolMode { kMemory, kSpool, kFlight };

const char* spool_mode_name(SpoolMode m) {
  switch (m) {
    case SpoolMode::kMemory:
      return "memory";
    case SpoolMode::kSpool:
      return "spool";
    default:
      return "flight";
  }
}

struct SpoolResult {
  int threads = 0;
  SpoolMode mode = SpoolMode::kMemory;
  std::uint64_t events = 0;
  double seconds = 0;
  double events_per_sec = 0;
  record::SpoolStats spool{};  // of the fastest rep
  // Over all of the arm's reps, so a count tripwire holds every rep to the
  // claim, not only the fastest one.
  std::uint64_t producer_blocks_all_reps = 0;  // sum
  std::uint64_t high_water_all_reps = 0;       // max
};

SpoolResult run_record_arm(int threads, SpoolMode mode, int iters,
                           const std::string& spool_path) {
  auto network = std::make_shared<net::Network>();
  vm::VmConfig cfg;
  cfg.vm_id = 1;
  cfg.mode = vm::Mode::kRecord;
  cfg.keep_trace = true;
  cfg.tuning.record_sharding = true;
  if (mode == SpoolMode::kFlight) {
    cfg.tuning.flight_recorder = true;
    cfg.tuning.retention_chunks = 4;  // small enough that eviction runs
  }
  if (mode != SpoolMode::kMemory) cfg.spool_path = spool_path;
  vm::Vm v(network, cfg);
  v.attach_main();

  const int per_thread = iters / threads;
  vm::SharedVar<std::uint64_t> var(v, 0);

  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<vm::VmThread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      // In flight mode, worker 0 ships a checkpoint anchor at regular
      // iteration milestones, standing in for Checkpointer barriers: each
      // seals the chunk assembling plus its own anchor chunk and advances
      // the eviction horizon, so the arm pays the full retention cost
      // (anchor chunks, eviction, ring-file IO) interleaved with the work.
      const bool anchors = mode == SpoolMode::kFlight && t == 0;
      workers.emplace_back(v, [&var, &v, per_thread, anchors] {
        const int interval = per_thread > 6 ? per_thread / 6 : 1;
        for (int i = 0; i < per_thread; ++i) {
          if (anchors && i > 0 && i % interval == 0) {
            v.spool_anchor(record::SpoolAnchor{
                static_cast<std::uint32_t>(i / interval), 0, 0, 0, {}});
          }
          var.set(var.get() + 1);
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  record::VmLog log = v.finish_record();
  const auto end = std::chrono::steady_clock::now();

  SpoolResult r;
  r.threads = threads;
  r.mode = mode;
  r.events = log.stats.critical_events;
  r.seconds = std::chrono::duration<double>(end - start).count();
  r.events_per_sec = static_cast<double>(r.events) / r.seconds;
  r.spool = v.spool_stats();
  v.detach_current();
  if (mode != SpoolMode::kMemory) {
    std::filesystem::remove(spool_path);
    std::filesystem::remove_all(record::flight_ring_dir(spool_path));
  }
  return r;
}

SpoolResult best_record_arm(int threads, SpoolMode mode, int iters,
                            const std::string& spool_path) {
  SpoolResult best;
  std::uint64_t blocks = 0;
  std::uint64_t high_water = 0;
  for (int i = 0; i < kReps; ++i) {
    SpoolResult r = run_record_arm(threads, mode, iters, spool_path);
    blocks += r.spool.producer_blocks;
    high_water = std::max(high_water, r.spool.queue_high_water_bytes);
    if (i == 0 || r.events_per_sec > best.events_per_sec) best = r;
  }
  best.producer_blocks_all_reps = blocks;
  best.high_water_all_reps = high_water;
  return best;
}

Json to_json(const SpoolResult& r) {
  return Json::object()
      .field("threads", r.threads)
      .field("mode", spool_mode_name(r.mode))
      .field("events", r.events)
      .field("seconds", r.seconds)
      .field("events_per_sec", r.events_per_sec)
      .field("raw_bytes", r.spool.raw_bytes)
      .field("written_bytes", r.spool.written_bytes)
      .field("chunks_written", r.spool.chunks_written)
      .field("queue_high_water_bytes", r.spool.queue_high_water_bytes)
      .field("writer_parks", r.spool.writer_parks)
      .field("producer_blocks", r.spool.producer_blocks)
      .field("evicted_chunks", r.spool.evicted_chunks)
      .field("retained_chunks", r.spool.retained_chunks)
      .field("retained_bytes", r.spool.retained_bytes)
      .field("anchor_chunks", r.spool.anchor_chunks)
      .field("producer_blocks_all_reps", r.producer_blocks_all_reps)
      .field("queue_high_water_all_reps", r.high_water_all_reps);
}

Json to_json(const Result& r) {
  return Json::object()
      .field("threads", r.threads)
      .field("objects", r.shared_object ? "shared" : "independent")
      .field("sharding", r.sharding)
      .field("events", r.events)
      .field("seconds", r.seconds)
      .field("events_per_sec", r.events_per_sec)
      .field("stripe_count", static_cast<std::uint64_t>(r.sched.stripe_count))
      .field("stripe_waits", r.sched.stripe_waits)
      .field("section_wait_micros", r.sched.section_wait_micros)
      .field("max_stripe_collisions", r.sched.max_stripe_collisions);
}

}  // namespace
}  // namespace djvu::bench

int main(int argc, char** argv) {
  using namespace djvu;
  using namespace djvu::bench;

  bool spool_only = false;
  bool flight = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--spool") == 0) spool_only = true;
    if (std::strcmp(argv[i], "--flight") == 0) spool_only = flight = true;
    if (std::strcmp(argv[i], "--smoke") == 0) spool_only = flight = smoke = true;
  }

  const char* tmp = std::getenv("TMPDIR");
  const std::string spool_path =
      std::string(tmp ? tmp : "/tmp") + "/bench_record_scaling.djvuspool";
  const int spool_iters = smoke ? 8000 : kTotalIters;
  const std::vector<int> spool_grid =
      smoke ? std::vector<int>{2, 4} : std::vector<int>{1, 2, 4, 8};

  std::vector<Json> spool_records;
  std::printf("Spooled vs in-memory record (shared object, sharding on, "
              "trace kept)%s\n\n", smoke ? " — smoke grid" : "");
  std::printf("%8s %12s %10s %10s %12s %14s %10s\n", "#threads", "mode",
              "Mev/s", "slowdown", "written(KB)", "high_water(KB)", "blocks");
  std::printf("(high_water: max over the %d reps; blocks: sum over them)\n",
              kReps);
  const std::size_t buffer_bytes = TuningConfig{}.spool_buffer_bytes;
  bool tripwire = false;
  const bool multicore = usable_cpus() >= 2;
  for (int threads : spool_grid) {
    SpoolResult mem =
        best_record_arm(threads, SpoolMode::kMemory, spool_iters, spool_path);
    SpoolResult spool =
        best_record_arm(threads, SpoolMode::kSpool, spool_iters, spool_path);
    SpoolResult fly;
    if (flight) {
      fly = best_record_arm(threads, SpoolMode::kFlight, spool_iters,
                            spool_path);
    }
    spool_records.push_back(to_json(mem));
    spool_records.push_back(to_json(spool));
    if (flight) spool_records.push_back(to_json(fly));
    std::printf("%8d %12s %10.3f %10s %12s %14s %10s\n", threads, "memory",
                mem.events_per_sec / 1e6, "-", "-", "-", "-");
    std::vector<const SpoolResult*> arms{&spool};
    if (flight) arms.push_back(&fly);
    for (const SpoolResult* sp : arms) {
      std::printf("%8d %12s %10.3f %9.2fx %12.1f %14.1f %10llu\n", threads,
                  spool_mode_name(sp->mode), sp->events_per_sec / 1e6,
                  mem.events_per_sec / sp->events_per_sec,
                  static_cast<double>(sp->spool.written_bytes) / 1024.0,
                  static_cast<double>(sp->high_water_all_reps) / 1024.0,
                  static_cast<unsigned long long>(sp->producer_blocks_all_reps));
    }
    // On one usable CPU (one core, or a taskset -c 0 run) the writer thread
    // timeslices with the recording threads instead of overlapping them, so
    // a producer can find the queue full while the writer waits for a CPU;
    // only enforce the tripwires where overlap is possible.
    //
    // "Spooling does not slow record": the producers never waited for the
    // writer, and the queue never filled.  A count, not a time ratio — the
    // smoke arms last milliseconds, and their ratios were noise.
    if (smoke && multicore &&
        (spool.producer_blocks_all_reps != 0 ||
         spool.high_water_all_reps >= buffer_bytes)) {
      std::fprintf(stderr,
                   "TRIPWIRE: spool producers blocked %llu times (queue "
                   "high water %llu of %zu bytes) at %d threads\n",
                   static_cast<unsigned long long>(
                       spool.producer_blocks_all_reps),
                   static_cast<unsigned long long>(spool.high_water_all_reps),
                   buffer_bytes, threads);
      tripwire = true;
    }
    if (flight) {
      std::printf("%8s %12s chunks=%llu evicted=%llu retained=%llu "
                  "anchors=%llu\n", "", "(flight)",
                  static_cast<unsigned long long>(fly.spool.chunks_written),
                  static_cast<unsigned long long>(fly.spool.evicted_chunks),
                  static_cast<unsigned long long>(fly.spool.retained_chunks),
                  static_cast<unsigned long long>(fly.spool.anchor_chunks));
    }
    // Flight mode is meant to be always-on: bounded retention must cost the
    // producers nothing over unbounded spooling, so they block exactly as
    // often as on the spool arm.
    if (smoke && multicore &&
        fly.producer_blocks_all_reps != spool.producer_blocks_all_reps) {
      std::fprintf(stderr,
                   "TRIPWIRE: flight-recorder producers blocked %llu times, "
                   "unbounded spool's %llu, at %d threads\n",
                   static_cast<unsigned long long>(
                       fly.producer_blocks_all_reps),
                   static_cast<unsigned long long>(
                       spool.producer_blocks_all_reps),
                   threads);
      tripwire = true;
    }
  }
  std::printf("\n");

  if (spool_only) {
    Json root =
        Json::object()
            .field("bench", "record_scaling")
            .field("env", Json::object()
                              .field("hardware_concurrency",
                                     static_cast<std::uint64_t>(
                                         std::thread::hardware_concurrency()))
                              .field("usable_cpus",
                                     static_cast<std::uint64_t>(usable_cpus()))
                              .field("total_iters", spool_iters)
                              .field("reps", kReps)
                              .field("smoke", smoke))
            .field("spool_results", spool_records);
    write_bench_json("BENCH_record_scaling.json", root);
    return tripwire ? 1 : 0;
  }

  std::printf("Record-path contention: critical events/sec, sharded vs "
              "single GC-critical section\n");
  std::printf("(hardware_concurrency=%u — on one core, look for reduced "
              "degradation, not speedup)\n\n",
              std::thread::hardware_concurrency());
  std::printf("%8s %12s %10s %10s %12s %13s %12s\n", "#threads", "objects",
              "mode", "Mev/s", "speedup", "stripe_waits", "wait(us)");

  std::vector<Json> records;
  for (bool shared_object : {false, true}) {
    for (int threads : {1, 2, 4, 8, 16}) {
      Result single = best_of(threads, shared_object, /*sharding=*/false);
      Result sharded = best_of(threads, shared_object, /*sharding=*/true);
      records.push_back(to_json(single));
      records.push_back(to_json(sharded));
      const char* objects = shared_object ? "shared" : "independent";
      std::printf("%8d %12s %10s %10.3f %12s %13llu %12llu\n", threads,
                  objects, "single", single.events_per_sec / 1e6, "-",
                  static_cast<unsigned long long>(single.sched.stripe_waits),
                  static_cast<unsigned long long>(
                      single.sched.section_wait_micros));
      std::printf("%8d %12s %10s %10.3f %11.2fx %13llu %12llu\n", threads,
                  objects, "sharded", sharded.events_per_sec / 1e6,
                  sharded.events_per_sec / single.events_per_sec,
                  static_cast<unsigned long long>(sharded.sched.stripe_waits),
                  static_cast<unsigned long long>(
                      sharded.sched.section_wait_micros));
    }
    std::printf("\n");
  }

  Json root =
      Json::object()
          .field("bench", "record_scaling")
          .field("env", Json::object()
                            .field("hardware_concurrency",
                                   static_cast<std::uint64_t>(
                                       std::thread::hardware_concurrency()))
                            .field("usable_cpus",
                                   static_cast<std::uint64_t>(usable_cpus()))
                            .field("total_iters", kTotalIters)
                            .field("reps", kReps))
          .field("results", records)
          .field("spool_results", spool_records);
  write_bench_json("BENCH_record_scaling.json", root);
  return 0;
}
