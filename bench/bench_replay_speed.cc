// Ablation: native vs record vs replay wall time on the synthetic
// benchmark, with replay measured both under interval leasing (the
// default) and under the paper-faithful per-event await/tick protocol.
//
// The paper measures only record overhead; replay time matters for the
// tool's debugging loop and motivates both the checkpointing in
// src/checkpoint and the interval leasing in the replay turn protocol
// (one counter publication per logical schedule interval instead of one
// per critical event — docs/INTERNALS.md §1b).
//
// A second section measures causal partial-order replay (order_mode =
// causal, docs/INTERNALS.md §1d) on a key-independent workload: each worker
// thread hammers its own SharedVar (plus an occasional shared tally), with
// the total work fixed so more threads means less work per thread.  Total-
// order replay serializes those events regardless of thread count; causal
// replay only orders same-key events, so its wall-clock should drop as
// threads grow.  The same causal recording is replayed under both modes —
// a causal log carries the full total order too — making the comparison
// exact: identical recording, identical digest, different turn protocol.
//
// Flags (mirroring bench_table1_closed's `--no-sharding` convention):
//   --no-lease   measure only the per-event protocol (ablation baseline);
//   --no-causal  skip the causal section;
//   --smoke      small grid, and exit nonzero if leased replay is >10%
//                slower than non-leased, if leased replay parks on more
//                than 25% of its turn waits (one per lease, plus one per
//                one-event interval, which ticks without a lease) while the
//                process may use two or more CPUs (the turn wait's spin
//                should catch almost every handoff; decided on the median
//                of 5 reps of >= 0.2 s of replays each), or if causal
//                replay of the key-independent workload is >10% slower
//                than leased total-order replay while the process may use
//                two or more CPUs — the CI regression tripwires.
//
// Emits BENCH_replay_speed.json.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/emit_json.h"
#include "bench/workload.h"
#include "common/cpus.h"
#include "sched/sched_stats.h"

namespace {

using namespace djvu;
using namespace djvu::bench;

struct ReplayMeasurement {
  double seconds = 1e100;
  sched::SchedStats sum;  // summed over VMs of the best run
};

/// Best-of-`reps` replay of `rec`, verified against the recording.
ReplayMeasurement measure_replay(core::Session& s, const core::RunResult& rec,
                                 int reps, int seed_base) {
  ReplayMeasurement best;
  for (int i = 0; i < reps; ++i) {
    auto r = s.replay(rec, seed_base + i);
    core::verify(rec, r);
    if (r.wall_seconds < best.seconds) {
      best.seconds = r.wall_seconds;
      best.sum = {};
      for (const auto& info : r.vms) {
        const sched::SchedStats& vs = info.sched;
        best.sum.ticks += vs.ticks;
        best.sum.waits_fast += vs.waits_fast;
        best.sum.waits_parked += vs.waits_parked;
        best.sum.waits_spun += vs.waits_spun;
        best.sum.wakeups_delivered += vs.wakeups_delivered;
        best.sum.wakeups_spurious += vs.wakeups_spurious;
        best.sum.stall_detections += vs.stall_detections;
        best.sum.leases_taken += vs.leases_taken;
        best.sum.leased_events += vs.leased_events;
        best.sum.lease_publish_count += vs.lease_publish_count;
        best.sum.max_parked_waiters =
            std::max(best.sum.max_parked_waiters, vs.max_parked_waiters);
      }
    }
  }
  return best;
}

/// Parked waits over turn waits: one turn wait per lease, and one per event
/// run without a lease (a one-event interval, or an exact event), each of
/// which ticks once.
double parked_per_turn(const sched::SchedStats& sum) {
  const std::uint64_t turn_waits = sum.leases_taken + sum.ticks;
  return turn_waits > 0 ? static_cast<double>(sum.waits_parked) /
                              static_cast<double>(turn_waits)
                        : 0.0;
}

// The park tripwire decides on a steady-state sample, not on one replay of
// a few milliseconds (86-287 leases), where a handful of parks crossed the
// threshold.  Each rep records afresh, since the ratio follows the
// recording's intervals more than the replay's timing, and sums the
// counters of replays of it that ran at least kParkRepSeconds; the
// tripwire reads the median of kParkReps reps.
constexpr double kParkRepSeconds = 0.2;
constexpr int kParkReps = 5;

/// parked_per_turn of `s`'s replays, one value per rep, ascending.
std::vector<double> park_ratio_reps(core::Session& s) {
  std::vector<double> ratios;
  int seed = 1000;
  for (int rep = 0; rep < kParkReps; ++rep) {
    const core::RunResult rec = s.record(200 + rep);
    double seconds = 0;
    sched::SchedStats sum;
    while (seconds < kParkRepSeconds) {
      auto r = s.replay(rec, seed++);
      core::verify(rec, r);
      seconds += r.wall_seconds;
      for (const auto& info : r.vms) {
        sum.leases_taken += info.sched.leases_taken;
        sum.ticks += info.sched.ticks;
        sum.waits_parked += info.sched.waits_parked;
      }
    }
    ratios.push_back(parked_per_turn(sum));
  }
  std::sort(ratios.begin(), ratios.end());
  return ratios;
}

// --- causal section ---------------------------------------------------------

/// Key-independent workload: `threads` workers, each with a private
/// SharedVar (its own conflict key) plus a shared tally touched every
/// `kTallyEvery` iterations.  Total iterations are fixed — divided among the
/// threads — so the serial replay time is roughly constant per row while the
/// causal critical path shrinks with thread count.
void causal_app(vm::Vm& v, int threads, int total_iters) {
  constexpr int kTallyEvery = 64;
  // Real computation between critical events: total-order replay serializes
  // this along with the events themselves (every compute block sits between
  // two turns), while causal replay overlaps independent threads' blocks —
  // the compute, not the turn protocol, is what parallelism wins back.
  constexpr int kLocalWork = 96;
  std::vector<std::unique_ptr<vm::SharedVar<std::uint64_t>>> privates;
  privates.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    privates.push_back(std::make_unique<vm::SharedVar<std::uint64_t>>(v, 0));
  }
  vm::SharedVar<std::uint64_t> tally(v, 0);
  const int iters = total_iters / threads;
  std::vector<vm::VmThread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back(v, [&, t] {
      auto& mine = *privates[static_cast<std::size_t>(t)];
      for (int i = 0; i < iters; ++i) {
        mine.set(mine.get() + bench::local_compute(mine.get(), kLocalWork));
        if (i % kTallyEvery == 0) tally.set(tally.get() + 1);
      }
    });
  }
  for (auto& w : workers) w.join();
}

core::Session make_causal_session(int threads, int total_iters,
                                  OrderMode mode) {
  core::SessionConfig cfg;
  cfg.tuning.order_mode = mode;
  core::Session s(cfg);
  s.add_vm("app", 1, true, [threads, total_iters](vm::Vm& v) {
    causal_app(v, threads, total_iters);
  });
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  bool leasing = true;
  bool causal = true;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-lease") == 0) leasing = false;
    if (std::strcmp(argv[i], "--no-causal") == 0) causal = false;
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  std::printf("Replay-speed ablation: native vs record vs replay "
              "(leasing %s%s)\n\n",
              leasing ? "on vs off" : "off only", smoke ? ", smoke grid" : "");
  std::printf("%9s %11s %11s %11s %11s %12s %12s\n", "#threads", "native(s)",
              "record(s)", "lease(s)", "nolease(s)", "lease ov(%)",
              "nolease ov(%)");

  const std::vector<int> grid = smoke ? std::vector<int>{2, 4}
                                      : std::vector<int>{2, 4, 8, 16};
  const int reps = smoke ? 3 : 2;
  // Parked waits per turn wait above this mean the spin missed the
  // handoffs.  (Named when every turn wait of the leased run took a lease.)
  constexpr double kMaxParkedPerLease = 0.25;
  const bool spin_gate = usable_cpus() >= 2;
  bool tripwire = false;
  std::vector<Json> records;
  std::vector<std::pair<int, sched::SchedStats>> sched_rows;

  for (int threads : grid) {
    WorkloadParams p;
    p.threads = threads;
    p.sessions = 2;
    p.connects_per_session = 2;
    p.fixed_iters = smoke ? 8000 : 40000;
    p.per_thread_iters = smoke ? 200 : 1000;

    // Two sessions over the same recording, differing only in the replay
    // protocol.  Recording happens once, on the leased session (leasing is
    // replay-only, so the record side is identical).
    core::Session s_lease = make_session(p, true, true, false, true, true);
    core::Session s_plain = make_session(p, true, true, false, true, false);
    core::Session& recorder = leasing ? s_lease : s_plain;

    double native = 1e100, recorded = 1e100;
    core::RunResult rec;
    for (int i = 0; i < reps; ++i) {
      native = std::min(native, recorder.run_native().wall_seconds);
      auto r = recorder.record(100 + i);
      if (r.wall_seconds < recorded) {
        recorded = r.wall_seconds;
        rec = std::move(r);
      }
    }

    ReplayMeasurement plain = measure_replay(s_plain, rec, reps, 900);
    ReplayMeasurement leased;
    if (leasing) {
      leased = measure_replay(s_lease, rec, reps, 950);
      sched_rows.emplace_back(threads, leased.sum);
    }

    const double lease_s = leasing ? leased.seconds : 0.0;
    const double lease_ov =
        leasing ? 100.0 * (leased.seconds - native) / native : 0.0;
    std::printf("%9d %11.4f %11.4f %11.4f %11.4f %11.1f%% %11.1f%%\n",
                threads, native, recorded, lease_s, plain.seconds, lease_ov,
                100.0 * (plain.seconds - native) / native);

    if (leasing && smoke && leased.seconds > 1.10 * plain.seconds) {
      std::printf("  TRIPWIRE: leased replay %.4fs is >10%% slower than "
                  "per-event replay %.4fs at %d threads\n",
                  leased.seconds, plain.seconds, threads);
      tripwire = true;
    }
    // The smoke decides on the median rep; a full run reports the best
    // replay's ratio.
    double park_ratio = leasing ? parked_per_turn(leased.sum) : 0.0;
    std::vector<double> park_reps;
    if (leasing && smoke) {
      park_reps = park_ratio_reps(s_lease);
      park_ratio = park_reps[park_reps.size() / 2];
      std::printf("  leased park ratio over %d reps of >= %.1f s: min %.3f, "
                  "median %.3f, max %.3f\n",
                  kParkReps, kParkRepSeconds, park_reps.front(), park_ratio,
                  park_reps.back());
    }
    if (leasing && smoke && spin_gate && park_ratio > kMaxParkedPerLease) {
      std::printf("  TRIPWIRE: leased replay parked on %.3f of its turn "
                  "waits (>%.2f, median of %d reps) at %d threads\n",
                  park_ratio, kMaxParkedPerLease, kParkReps, threads);
      tripwire = true;
    }

    Json row = Json::object()
                   .field("threads", threads)
                   .field("native_s", native)
                   .field("record_s", recorded)
                   .field("replay_nolease_s", plain.seconds)
                   .field("rec_ovhd_pct",
                          100.0 * (recorded - native) / native)
                   .field("replay_nolease_ovhd_pct",
                          100.0 * (plain.seconds - native) / native)
                   .field("nolease_ticks", plain.sum.ticks);
    if (leasing) {
      row.field("replay_lease_s", leased.seconds)
          .field("replay_lease_ovhd_pct", lease_ov)
          .field("leases_taken", leased.sum.leases_taken)
          .field("leased_events", leased.sum.leased_events)
          .field("lease_publish_count", leased.sum.lease_publish_count)
          .field("lease_ticks", leased.sum.ticks)
          .field("lease_waits_parked", leased.sum.waits_parked)
          .field("waits_spun", leased.sum.waits_spun)
          .field("parked_per_turn", park_ratio);
      if (!park_reps.empty()) {
        row.field("parked_per_turn_min", park_reps.front())
            .field("parked_per_turn_max", park_reps.back());
      }
    }
    records.push_back(row);
  }

  if (leasing) {
    // Scheduler self-measurements of the best leased replay run, summed
    // over VMs.  The leasing win is publications << leased events:
    // ~(#intervals + #events/stride) counter publications instead of one
    // per critical event.
    std::printf("\nLeased-replay scheduler counters (best run per row)\n\n");
    std::printf("%9s %10s %12s %12s %10s %10s %10s %13s\n", "#threads",
                "leases", "leased ev", "publishes", "spun", "parked",
                "spurious", "wakeups/pub");
    for (const auto& [threads, sum] : sched_rows) {
      std::printf("%9d %10llu %12llu %12llu %10llu %10llu %10llu %13.3f\n",
                  threads, static_cast<unsigned long long>(sum.leases_taken),
                  static_cast<unsigned long long>(sum.leased_events),
                  static_cast<unsigned long long>(sum.lease_publish_count),
                  static_cast<unsigned long long>(sum.waits_spun),
                  static_cast<unsigned long long>(sum.waits_parked),
                  static_cast<unsigned long long>(sum.wakeups_spurious),
                  sum.wakeups_per_tick());
    }
  }

  std::vector<Json> causal_records;
  if (causal) {
    std::printf("\nCausal partial-order replay (key-independent workload, "
                "fixed total work)\n\n");
    std::printf("%9s %11s %12s %12s %9s\n", "#threads", "record(s)",
                "total rp(s)", "causal rp(s)", "speedup");

    const int total_iters = smoke ? 12000 : 60000;
    // Gated on the CPUs this process may run on, not the machine's: under
    // taskset -c 0 the two protocols timeslice one core, as on a 1-core box.
    const bool multi_core = usable_cpus() >= 2;
    for (int threads : grid) {
      // One causal recording; the same log replays under both protocols
      // (a causal log carries the full total order too).
      core::Session s_causal =
          make_causal_session(threads, total_iters, OrderMode::kCausal);
      core::Session s_total =
          make_causal_session(threads, total_iters, OrderMode::kTotal);
      double recorded = 1e100;
      core::RunResult rec;
      for (int i = 0; i < reps; ++i) {
        auto r = s_causal.record(500 + i);
        if (r.wall_seconds < recorded) {
          recorded = r.wall_seconds;
          rec = std::move(r);
        }
      }
      ReplayMeasurement total_rp = measure_replay(s_total, rec, reps, 700);
      ReplayMeasurement causal_rp = measure_replay(s_causal, rec, reps, 800);

      const double speedup = total_rp.seconds / causal_rp.seconds;
      std::printf("%9d %11.4f %12.4f %12.4f %8.2fx\n", threads, recorded,
                  total_rp.seconds, causal_rp.seconds, speedup);

      if (smoke && multi_core &&
          causal_rp.seconds > 1.10 * total_rp.seconds) {
        std::printf("  TRIPWIRE: causal replay %.4fs is >10%% slower than "
                    "leased total-order replay %.4fs at %d threads\n",
                    causal_rp.seconds, total_rp.seconds, threads);
        tripwire = true;
      }

      causal_records.push_back(
          Json::object()
              .field("threads", threads)
              .field("record_s", recorded)
              .field("replay_total_order_s", total_rp.seconds)
              .field("replay_causal_s", causal_rp.seconds)
              .field("causal_speedup", speedup)
              .field("causal_parked_waits", causal_rp.sum.waits_parked)
              .field("causal_spun_waits", causal_rp.sum.waits_spun));
    }
  }

  Json root =
      Json::object()
          .field("bench", "replay_speed")
          .field("env",
                 Json::object()
                     .field("hardware_concurrency",
                            static_cast<std::uint64_t>(
                                std::thread::hardware_concurrency()))
                     .field("usable_cpus",
                            static_cast<std::uint64_t>(usable_cpus()))
                     .field("leasing", leasing)
                     .field("causal", causal)
                     .field("smoke", smoke)
                     .field("reps", reps))
          .field("results", records)
          .field("causal_results", causal_records);
  write_bench_json("BENCH_replay_speed.json", root);
  return tripwire ? 1 : 0;
}
