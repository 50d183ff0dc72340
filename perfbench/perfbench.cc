// perfbench — one record → load → replay loop per workload, end to end and
// layer by layer.
//
//   perfbench --workload hot_shared|private_keys|rpc_closed --seed N
//             --seconds S --trace 0|1 [--scale X] [--work-dir DIR]
//
// Each cycle is the full user loop: declare a core::Session (default
// TuningConfig, only spool_dir set), record() into a fresh spool directory,
// load every spool back with record::load_spool, replay_from() the
// directory, and core::verify the replay against the recording.  Cycles
// repeat until --seconds have passed; every metric is the median over the
// run's cycles.
//
// --trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
// cycles with traced ones, which time the calls into each module's public
// functions from this file and from the workload code, and prints the
// per-layer metrics, the sum checks that tie them to record_s / load_s /
// replay_s, and bench.trace_overhead.  The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.  Any failed cycle —
// a replay that throws or fails verify, or a spool that does not load with
// clean_end — makes the exit code 1.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "record/log_spool.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using djvu::core::RunResult;
using djvu::record::SpoolContents;

struct Metric {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (selftest.py checks it).
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"record_s", "s"},
    {"load_s", "s"},
    {"replay_s", "s"},
    {"spool_bytes_per_event", "B/event"},
    {"peak_rss_mb", "MB"},
};

constexpr Metric kPerLayer[] = {
    {"core.record_run_s", "s"},
    {"core.record_residual_s", "s"},
    {"core.replay_run_s", "s"},
    {"core.replay_residual_s", "s"},
    {"core.native_s", "s"},
    {"core.record_slowdown", "ratio"},
    {"core.replay_slowdown", "ratio"},
    {"vm.native_event_ns", "ns"},
    {"vm.rec_event_ns", "ns"},
    {"vm.rep_event_ns", "ns"},
    {"vm.critical_events", "count"},
    {"vm.network_events", "count"},
    {"sched.rec_sections", "count"},
    {"sched.rec_section_waits", "count"},
    {"sched.rec_section_wait_us", "us"},
    {"sched.intervals", "count"},
    {"sched.events_per_interval", "ratio"},
    {"sched.rep_waits_fast", "count"},
    {"sched.rep_waits_parked", "count"},
    {"sched.rep_park_ratio", "ratio"},
    {"sched.rep_handoff_us", "us"},
    {"sched.rep_leases", "count"},
    {"sched.rep_publishes", "count"},
    {"sched.rep_wakeups_spurious", "count"},
    {"sched.rep_stalls", "count"},
    {"record.written_bytes", "B"},
    {"record.raw_bytes", "B"},
    {"record.chunks", "count"},
    {"record.producer_blocks", "count"},
    {"record.writer_parks", "count"},
    {"record.writer_mb_per_s", "MB/s"},
    {"record.load_log_s", "s"},
    {"record.scan_s", "s"},
    {"record.decode_s", "s"},
    {"record.fold_sort_s", "s"},
    {"record.indexed", "count"},
    {"record.seek_ms", "ms"},
    {"replay.accept_us", "us"},
    {"replay.connect_us", "us"},
    {"net.native_rpc_us", "us"},
    {"common.crc32_mb_per_s", "MB/s"},
    {"bench.trace_overhead", "ratio"},
};

constexpr double kMiB = 1024.0 * 1024.0;

/// Setups per run (setup_s is their median) and the warm-up cycle's share
/// of the measured size.
constexpr int kSetups = 3;
constexpr double kWarmupScale = 0.1;

/// No cycle starts after this many seconds of process time, whatever
/// --seconds says, so a run always ends within the harness's time limit.
constexpr double kHardStopSeconds = 120;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;
  std::string work_dir = ".bench_build/work";
};

double ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Metric samples by name; each reported value is the median of its
/// samples.
class Samples {
 public:
  void add(const std::string& name, double value) {
    values_[name].push_back(value);
  }
  double median_of(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : median(it->second);
  }

 private:
  std::map<std::string, std::vector<double>> values_;
};

/// Mean per-call costs a Probe collected during one run; resets the probe.
struct ProbeReading {
  double event_ns = 0;
  double accept_us = 0;
  double connect_us = 0;
  double rpc_us = 0;
};

ProbeReading take_reading(Probe* p) {
  ProbeReading r;
  if (p == nullptr) return r;
  r.event_ns = ratio(static_cast<double>(p->event_ns), p->events);
  r.accept_us = ratio(static_cast<double>(p->accept_ns), p->accepts) / 1e3;
  r.connect_us = ratio(static_cast<double>(p->connect_ns), p->connects) / 1e3;
  r.rpc_us = ratio(static_cast<double>(p->rpc_ns), p->rpcs) / 1e3;
  p->reset();
  return r;
}

/// One record → load → replay → verify cycle and what it measured.
struct Cycle {
  RunResult rec;
  std::vector<std::string> spools;  ///< one per DJVM, rec.vms order
  std::vector<SpoolContents> loaded;
  RunResult rep;
  double record_s = 0;
  double load_s = 0;
  double replay_s = 0;
  ProbeReading rec_probe;
  ProbeReading rep_probe;
};

/// Runs the user loop once into the empty directory `dir`.  Throws on any
/// failure: replay divergence, verify mismatch, or a spool that does not
/// load cleanly back to exactly what the recording traced.
Cycle run_cycle(djvu::core::Session& s, const std::string& dir,
                std::uint64_t seed, Probe* probe) {
  Cycle c;
  auto t0 = Clock::now();
  c.rec = s.record(seed);
  c.record_s = seconds_since(t0);
  c.rec_probe = take_reading(probe);

  for (const auto& vm : c.rec.vms) {
    if (vm.djvm) c.spools.push_back(vm.spool_path);
  }
  c.loaded.reserve(c.spools.size());
  t0 = Clock::now();
  for (const auto& path : c.spools) {
    c.loaded.push_back(djvu::record::load_spool(path));
  }
  c.load_s = seconds_since(t0);
  std::size_t i = 0;
  for (const auto& vm : c.rec.vms) {
    if (!vm.djvm) continue;
    const SpoolContents& got = c.loaded[i++];
    if (!got.clean_end) {
      throw djvu::Error("spool '" + vm.spool_path + "' did not end cleanly");
    }
    if (djvu::sched::trace_digest(got.trace.records) != vm.trace_digest ||
        got.log.stats.critical_events != vm.critical_events) {
      throw djvu::Error("spool '" + vm.spool_path +
                        "' loaded back different from the recording");
    }
  }

  t0 = Clock::now();
  c.rep = s.replay_from(dir, seed);
  c.replay_s = seconds_since(t0);
  c.rep_probe = take_reading(probe);
  djvu::core::verify(c.rec, c.rep);
  return c;
}

/// A fresh, empty spool directory.
std::string fresh_dir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// The seed of cycle `i`: every cycle gets its own inputs, all derived from
/// the run's seed.
std::uint64_t cycle_seed(std::uint64_t seed, int i) {
  return seed * 1000003 + static_cast<std::uint64_t>(i);
}

double spool_bytes_per_event(const Cycle& c) {
  std::uint64_t bytes = 0, events = 0;
  for (const auto& vm : c.rec.vms) {
    if (!vm.djvm) continue;
    bytes += fs::file_size(vm.spool_path);
    events += vm.critical_events;
  }
  return ratio(static_cast<double>(bytes), static_cast<double>(events));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB → MiB
}

// --- per-layer passes (traced cycles only) -----------------------------------

/// LogSource::next over every spool (read, CRC, decompress), then the
/// decode_*_item calls over the items it yielded.
std::pair<double, double> scan_then_decode(
    const std::vector<std::string>& spools) {
  using djvu::record::SpoolItemKind;
  std::vector<djvu::record::SpoolItem> items;
  auto t0 = Clock::now();
  for (const auto& path : spools) {
    djvu::record::LogSource source(path);
    while (std::optional<djvu::record::SpoolItem> item = source.next()) {
      items.push_back(std::move(*item));
    }
    if (!source.clean_end()) throw djvu::Error("scan: torn spool " + path);
  }
  const double scan_s = seconds_since(t0);

  std::uint64_t decoded = 0;
  t0 = Clock::now();
  for (const auto& item : items) {
    switch (item.kind) {
      case SpoolItemKind::kSchedule:
        decoded += djvu::record::decode_schedule_item(item.body).second.size();
        break;
      case SpoolItemKind::kNetwork:
        decoded += djvu::record::decode_network_item(item.body).first;
        break;
      case SpoolItemKind::kTrace:
        decoded += djvu::record::decode_trace_item(item.body).size();
        break;
      case SpoolItemKind::kFinish:
        decoded += djvu::record::decode_finish_item(item.body).thread_count;
        break;
      default:
        break;
    }
  }
  const double decode_s = seconds_since(t0);
  if (decoded == 0) throw djvu::Error("decode: spools held no items");
  return {scan_s, decode_s};
}

/// seek_to_gc to 90% of the recording plus the decode of the covering
/// interval, on the spool with the most events; median of 5, in ms.
double seek_ms(const Cycle& c) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < c.loaded.size(); ++i) {
    if (c.loaded[i].log.stats.critical_events >
        c.loaded[best].log.stats.critical_events) {
      best = i;
    }
  }
  const djvu::GlobalCount target =
      c.loaded[best].log.stats.critical_events * 9 / 10;
  std::vector<double> times;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    djvu::record::LogSource source(c.spools[best]);
    bool found = false;
    if (source.seek_to_gc(target)) {
      while (!found) {
        std::optional<djvu::record::SpoolItem> item = source.next();
        if (!item) break;
        if (item->kind != djvu::record::SpoolItemKind::kSchedule) continue;
        for (const auto& iv :
             djvu::record::decode_schedule_item(item->body).second) {
          found = found || (iv.first <= target && target <= iv.last);
        }
      }
    }
    if (!found) throw djvu::Error("seek_to_gc missed the covering interval");
    times.push_back(seconds_since(t0) * 1e3);
  }
  return median(times);
}

/// Re-feeds each loaded recording through the LogSink interface of a
/// default-option LogSpooler and closes it; written MiB per second.
double writer_mb_per_s(const Cycle& c, const std::string& dir) {
  struct Feed {
    const djvu::record::VmLog* log;
    std::vector<std::pair<djvu::ThreadNum, djvu::sched::IntervalList>> sched;
    std::vector<std::pair<djvu::ThreadNum, djvu::record::NetworkLogEntry>> net;
    std::vector<std::vector<djvu::sched::TraceRecord>> trace;
  };
  constexpr std::size_t kIntervalBatch = 256, kTraceBatch = 4096;
  std::vector<Feed> feeds;
  for (const auto& contents : c.loaded) {
    Feed f{&contents.log, {}, {}, {}};
    const auto& per_thread = contents.log.schedule.per_thread;
    for (std::size_t t = 0; t < per_thread.size(); ++t) {
      for (std::size_t i = 0; i < per_thread[t].size(); i += kIntervalBatch) {
        const std::size_t end = std::min(per_thread[t].size(), i + kIntervalBatch);
        f.sched.emplace_back(
            static_cast<djvu::ThreadNum>(t),
            djvu::sched::IntervalList(per_thread[t].begin() + i,
                                      per_thread[t].begin() + end));
      }
    }
    for (djvu::ThreadNum t : contents.log.network.threads()) {
      for (auto& e : contents.log.network.thread_entries(t)) {
        f.net.emplace_back(t, std::move(e));
      }
    }
    const auto& records = contents.trace.records;
    for (std::size_t i = 0; i < records.size(); i += kTraceBatch) {
      const std::size_t end = std::min(records.size(), i + kTraceBatch);
      f.trace.emplace_back(records.begin() + i, records.begin() + end);
    }
    feeds.push_back(std::move(f));
  }

  std::uint64_t written = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < feeds.size(); ++i) {
    Feed& f = feeds[i];
    djvu::record::LogSpooler::Options options;
    options.path = dir + "/refeed" + std::to_string(i) + ".djvuspool";
    djvu::record::LogSpooler spooler(f.log->vm_id, options);
    djvu::record::LogSink& sink = spooler;
    for (const auto& [t, intervals] : f.sched) sink.schedule_batch(t, intervals);
    for (const auto& [t, entry] : f.net) sink.network_entry(t, entry);
    for (auto& batch : f.trace) sink.trace_batch(std::move(batch));
    sink.finish(f.log->stats, static_cast<std::uint32_t>(
                                  f.log->schedule.per_thread.size()));
    spooler.close();
    written += spooler.stats().written_bytes;
  }
  return static_cast<double>(written) / kMiB / seconds_since(t0);
}

/// djvu::Crc32 over the spool bytes, repeated for at least 20 ms; MiB/s.
double crc32_mb_per_s(const std::vector<std::string>& spools) {
  std::vector<djvu::Bytes> files;
  std::uint64_t bytes = 0;
  for (const auto& path : spools) {
    std::ifstream in(path, std::ios::binary);
    files.emplace_back(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>{});
    bytes += files.back().size();
  }
  std::uint64_t passes = 0;
  std::uint32_t sink = 0;
  const auto t0 = Clock::now();
  double elapsed = 0;
  do {
    for (const auto& f : files) {
      djvu::Crc32 crc;
      crc.update(f);
      sink ^= crc.value();
    }
    ++passes;
    elapsed = seconds_since(t0);
  } while (elapsed < 0.02);
  if (sink == 0x5eed5eed) std::fprintf(stderr, " ");  // keep the CRC live
  return static_cast<double>(bytes * passes) / kMiB / elapsed;
}

/// net.* and replay.* on workloads without sockets: an rpc_closed session at
/// a twentieth of its size run native, then recorded and replayed, read
/// through the same probe as the full rpc_closed workload.
void socket_probe(const Size& size, std::uint64_t seed, const std::string& dir,
                  Samples& out) {
  Probe probe;
  auto s = make_session("rpc_closed", size.scaled(0.05), seed, dir, &probe);
  s.run_native();
  out.add("net.native_rpc_us", take_reading(&probe).rpc_us);
  Cycle c = run_cycle(s, dir, seed, &probe);
  out.add("replay.accept_us", c.rep_probe.accept_us);
  out.add("replay.connect_us", c.rep_probe.connect_us);
}

/// One traced cycle: a native run, then record → load → replay with the
/// probe on, then the per-layer passes over the recorded spools.
void traced_cycle(const Args& a, const Size& size, std::uint64_t seed,
                  const std::string& dir, Samples& out) {
  Probe probe;
  auto s = make_session(a.workload, size, seed, dir, &probe);
  const RunResult native = s.run_native();
  const ProbeReading native_probe = take_reading(&probe);
  Cycle c = run_cycle(s, dir, seed, &probe);

  out.add("traced.record_plus_replay_s", c.record_s + c.replay_s);
  out.add("core.record_run_s", c.rec.wall_seconds);
  out.add("core.replay_run_s", c.rep.wall_seconds);
  out.add("core.native_s", native.wall_seconds);
  out.add("core.record_slowdown", ratio(c.rec.wall_seconds, native.wall_seconds));
  out.add("core.replay_slowdown", ratio(c.rep.wall_seconds, native.wall_seconds));
  out.add("vm.native_event_ns", native_probe.event_ns);
  out.add("vm.rec_event_ns", c.rec_probe.event_ns);
  out.add("vm.rep_event_ns", c.rep_probe.event_ns);

  double events = 0, network = 0, sections = 0, section_waits = 0,
         section_wait_us = 0, written = 0, raw = 0, chunks = 0, blocks = 0,
         parks = 0;
  for (const auto& vm : c.rec.vms) {
    if (!vm.djvm) continue;
    events += static_cast<double>(vm.critical_events);
    network += static_cast<double>(vm.network_events);
    sections += static_cast<double>(vm.sched.sections);
    section_waits += static_cast<double>(vm.sched.stripe_waits);
    section_wait_us += static_cast<double>(vm.sched.section_wait_micros);
    written += static_cast<double>(vm.spool.written_bytes);
    raw += static_cast<double>(vm.spool.raw_bytes);
    chunks += static_cast<double>(vm.spool.chunks_written);
    blocks += static_cast<double>(vm.spool.producer_blocks);
    parks += static_cast<double>(vm.spool.writer_parks);
  }
  out.add("vm.critical_events", events);
  out.add("vm.network_events", network);
  out.add("sched.rec_sections", sections);
  out.add("sched.rec_section_waits", section_waits);
  out.add("sched.rec_section_wait_us", section_wait_us);
  out.add("record.written_bytes", written);
  out.add("record.raw_bytes", raw);
  out.add("record.chunks", chunks);
  out.add("record.producer_blocks", blocks);
  out.add("record.writer_parks", parks);

  double intervals = 0, interval_events = 0;
  for (const auto& contents : c.loaded) {
    intervals += static_cast<double>(contents.log.schedule.interval_count());
    interval_events += static_cast<double>(contents.log.schedule.event_count());
  }
  out.add("sched.intervals", intervals);
  out.add("sched.events_per_interval", ratio(interval_events, intervals));

  double fast = 0, parked = 0, wait_us = 0, leases = 0, publishes = 0,
         spurious = 0, stalls = 0;
  for (const auto& vm : c.rep.vms) {
    fast += static_cast<double>(vm.sched.waits_fast);
    parked += static_cast<double>(vm.sched.waits_parked);
    wait_us += static_cast<double>(vm.sched.total_wait_micros);
    leases += static_cast<double>(vm.sched.leases_taken);
    publishes += static_cast<double>(vm.sched.ticks +
                                     vm.sched.lease_publish_count);
    spurious += static_cast<double>(vm.sched.wakeups_spurious);
    stalls += static_cast<double>(vm.sched.stall_detections);
  }
  out.add("sched.rep_waits_fast", fast);
  out.add("sched.rep_waits_parked", parked);
  out.add("sched.rep_park_ratio", ratio(parked, fast + parked));
  out.add("sched.rep_handoff_us", ratio(wait_us, parked));
  out.add("sched.rep_leases", leases);
  out.add("sched.rep_publishes", publishes);
  out.add("sched.rep_wakeups_spurious", spurious);
  out.add("sched.rep_stalls", stalls);

  // Loader side.  record_s's load-back is the same load_spool call as
  // load_s, so load_s stands in for it in the record residual.
  const auto [scan_s, decode_s] = scan_then_decode(c.spools);
  auto t0 = Clock::now();
  for (const auto& path : c.spools) {
    bool clean = false;
    djvu::record::load_spooled_log(path, &clean);
    if (!clean) throw djvu::Error("load_spooled_log: torn spool " + path);
  }
  const double load_log_s = seconds_since(t0);
  bool indexed = true;
  for (const auto& path : c.spools) {
    djvu::record::LogSource source(path);
    indexed = indexed && source.index() != nullptr;
  }
  out.add("record.load_log_s", load_log_s);
  out.add("record.scan_s", scan_s);
  out.add("record.decode_s", decode_s);
  out.add("record.fold_sort_s", c.load_s - scan_s - decode_s);
  out.add("record.indexed", indexed ? 1 : 0);
  out.add("record.seek_ms", seek_ms(c));
  out.add("core.record_residual_s",
          c.record_s - c.rec.wall_seconds - c.load_s);
  out.add("core.replay_residual_s",
          c.replay_s - c.rep.wall_seconds - load_log_s);
  out.add("record.writer_mb_per_s", writer_mb_per_s(c, dir));
  out.add("common.crc32_mb_per_s", crc32_mb_per_s(c.spools));

  // The residuals above make each sum exact; the parts are what to read.
  std::printf("sum check: record_s %.4f = run %.4f + load-back %.4f + "
              "residual %.4f\n",
              c.record_s, c.rec.wall_seconds, c.load_s,
              c.record_s - c.rec.wall_seconds - c.load_s);
  std::printf("sum check: load_s %.4f = scan %.4f + decode %.4f + "
              "fold/sort %.4f\n",
              c.load_s, scan_s, decode_s, c.load_s - scan_s - decode_s);
  std::printf("sum check: replay_s %.4f = run %.4f + load_spooled_log %.4f "
              "+ residual %.4f\n",
              c.replay_s, c.rep.wall_seconds, load_log_s,
              c.replay_s - c.rep.wall_seconds - load_log_s);

  if (a.workload == "rpc_closed") {
    out.add("net.native_rpc_us", native_probe.rpc_us);
    out.add("replay.accept_us", c.rep_probe.accept_us);
    out.add("replay.connect_us", c.rep_probe.connect_us);
  } else {
    socket_probe(size, seed, fresh_dir(dir), out);
  }
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--scale") {
      a.scale = std::stod(value);
    } else if (key == "--work-dir") {
      a.work_dir = value;
    } else {
      throw djvu::UsageError("unknown flag " + key);
    }
  }
  if (a.workload != "hot_shared" && a.workload != "private_keys" &&
      a.workload != "rpc_closed") {
    throw djvu::UsageError(
        "--workload must be hot_shared, private_keys or rpc_closed");
  }
  return a;
}

void print_result(bool correct, int attempted, int failed,
                  const std::vector<std::pair<Metric, double>>& metrics) {
  for (const auto& [m, v] : metrics) {
    std::printf("%-28s %14.6f %s\n", m.name, v, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].first.name, metrics[i].second,
                metrics[i].first.unit);
  }
  std::printf("}}\n");
}

int run(const Args& a, Clock::time_point process_start) {
  const Size size = Size{}.scaled(a.scale);
  const std::string base = a.work_dir + "/" + a.workload;
  const std::string dir = base + "/spool";
  int attempted = 0, failed = 0;

  // One cycle, failures counted instead of propagated.
  auto attempt = [&](auto&& body) {
    ++attempted;
    try {
      body();
    } catch (const std::exception& e) {
      ++failed;
      std::fprintf(stderr, "cycle %d failed: %s\n", attempted, e.what());
    }
  };

  // Set-up: session and VM declaration, spool-directory preparation and a
  // warm-up cycle at a tenth of the size; repeated, and the median kept.
  Samples samples;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = i == 0 ? process_start : Clock::now();
    attempt([&] {
      fs::remove_all(base);
      auto s = make_session(a.workload, size.scaled(kWarmupScale),
                            cycle_seed(a.seed, -1 - i), fresh_dir(dir),
                            nullptr);
      run_cycle(s, dir, cycle_seed(a.seed, -1 - i), nullptr);
    });
    samples.add("setup_s", seconds_since(t0));
  }

  const auto measure_start = Clock::now();
  auto more = [&](int cycles) {
    return cycles == 0 || (seconds_since(measure_start) < a.seconds &&
                           seconds_since(process_start) < kHardStopSeconds);
  };
  std::vector<std::pair<Metric, double>> report;
  if (!a.trace) {
    for (int i = 0; more(i); ++i) {
      attempt([&] {
        const std::uint64_t seed = cycle_seed(a.seed, i);
        auto s = make_session(a.workload, size, seed, fresh_dir(dir), nullptr);
        const Cycle c = run_cycle(s, dir, seed, nullptr);
        samples.add("record_s", c.record_s);
        samples.add("load_s", c.load_s);
        samples.add("replay_s", c.replay_s);
        samples.add("spool_bytes_per_event", spool_bytes_per_event(c));
      });
    }
    samples.add("peak_rss_mb", peak_rss_mb());
    for (const Metric& m : kEndToEnd) {
      report.emplace_back(m, samples.median_of(m.name));
    }
  } else {
    // Untraced and traced cycles alternate on the same seeds, so their
    // ratio is the tracing overhead on identical inputs.
    for (int i = 0; more(i); ++i) {
      const std::uint64_t seed = cycle_seed(a.seed, i);
      attempt([&] {
        auto s = make_session(a.workload, size, seed, fresh_dir(dir), nullptr);
        const Cycle c = run_cycle(s, dir, seed, nullptr);
        samples.add("untraced.record_plus_replay_s", c.record_s + c.replay_s);
      });
      attempt([&] { traced_cycle(a, size, seed, fresh_dir(dir), samples); });
    }
    samples.add("bench.trace_overhead",
                ratio(samples.median_of("traced.record_plus_replay_s"),
                      samples.median_of("untraced.record_plus_replay_s")));
    for (const Metric& m : kPerLayer) {
      report.emplace_back(m, samples.median_of(m.name));
    }
  }
  fs::remove_all(base);

  std::printf("replay_failures %.6f share (%d of %d cycles)\n",
              ratio(failed, attempted), failed, attempted);
  print_result(failed == 0, attempted, failed, report);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto process_start = perfbench::Clock::now();
  try {
    return perfbench::run(perfbench::parse_args(argc, argv), process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
