// Micro-benchmarks (google-benchmark): the primitive costs behind the
// tables — GC-critical-section ticks, shared-variable events in each mode,
// interval recording, log serialization, and raw simulated-network ops.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "core/session.h"
#include "net/network.h"
#include "record/serializer.h"
#include "sched/global_counter.h"
#include "sched/interval.h"
#include "sched/spin_wait.h"
#include "sched/trace.h"
#include "vm/shared_var.h"
#include "vm/vm.h"

namespace djvu {
namespace {

void BM_GlobalCounterTick(benchmark::State& state) {
  sched::GlobalCounter c;
  sched::TurnTally& me = c.tally();
  for (auto _ : state) benchmark::DoNotOptimize(c.tick(me));
}
BENCHMARK(BM_GlobalCounterTick);

void BM_GcCriticalSection(benchmark::State& state) {
  sched::GlobalCounter c;
  sched::TurnTally& me = c.tally();
  std::uint64_t acc = 0;
  for (auto _ : state) {
    c.with_section(sched::SectionKey{1}, me, [&](GlobalCount g) { acc += g; });
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_GcCriticalSection);

// Replay turn-taking with T threads round-robinning turns — the worst case
// for a broadcast wakeup design (every tick would wake all T-1 parked
// threads).  The reported counters show the targeted design's O(1) bound:
// wakeups/tick stays ~1 no matter how many threads are parked.
void BM_ReplayTurnRoundRobin(benchmark::State& state) {
  const int kThreads = static_cast<int>(state.range(0));
  constexpr int kRounds = 200;
  std::uint64_t delivered = 0, spurious = 0, ticks = 0, parked = 0;
  for (auto _ : state) {
    sched::GlobalCounter c;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(kThreads));
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&c, t, kThreads] {
        sched::TurnTally& mine = c.tally();
        for (int r = 0; r < kRounds; ++r) {
          c.await(static_cast<GlobalCount>(r * kThreads + t), mine);
          c.tick(mine);
        }
      });
    }
    for (auto& th : threads) th.join();
    const sched::SchedStats s = c.stats();
    delivered += s.wakeups_delivered;
    spurious += s.wakeups_spurious;
    ticks += s.ticks;
    parked = std::max(parked, s.max_parked_waiters);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ticks));
  state.counters["wakeups_per_tick"] =
      ticks ? static_cast<double>(delivered + spurious) /
                  static_cast<double>(ticks)
            : 0;
  state.counters["spurious"] = static_cast<double>(spurious);
  state.counters["max_parked"] = static_cast<double>(parked);
}
BENCHMARK(BM_ReplayTurnRoundRobin)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// Steady-state turn handoff: BM_ReplayTurnRoundRobin spawns its threads for
// 200 rounds, so thread creation dominates it.  Here `threads` threads are
// started once, meet at a start line, and then hand the turn round-robin
// for kHandoffRounds rounds each; only the rounds are timed.  `turn(t, r)`
// is thread t's round r, run on that thread.  Returns the seconds the
// rounds took.
constexpr int kHandoffRounds = 100000;

template <typename Turn>
double time_round_robin(int threads, Turn turn) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int r = 0; r < kHandoffRounds; ++r) turn(t, r);
    });
  }
  while (ready.load() != threads) std::this_thread::yield();
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void report_handoffs(benchmark::State& state, int threads, double seconds) {
  const double handoffs = static_cast<double>(threads) * kHandoffRounds;
  state.SetIterationTime(seconds);
  state.SetItemsProcessed(static_cast<std::int64_t>(handoffs));
  state.counters["ns_per_handoff"] = seconds * 1e9 / handoffs;
}

// The replay turn itself: GlobalCounter::await + tick with each thread's
// own tally — the per-event protocol a one-event interval runs.
void BM_ReplayTurnHandoff(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sched::GlobalCounter c;
    std::vector<sched::TurnTally*> tallies;
    for (int t = 0; t < threads; ++t) tallies.push_back(&c.tally());
    const double seconds = time_round_robin(threads, [&c, &tallies, threads](
                                                         int t, int r) {
      c.await(static_cast<GlobalCount>(r) * threads + t, *tallies[t]);
      c.tick(*tallies[t]);
    });
    benchmark::DoNotOptimize(c.value());
    report_handoffs(state, threads, seconds);
    const sched::SchedStats s = c.stats();
    state.counters["parked"] = static_cast<double>(s.waits_parked);
  }
}
BENCHMARK(BM_ReplayTurnHandoff)
    ->Arg(4)
    ->Iterations(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// The floor under BM_ReplayTurnHandoff: the same round-robin through one
// bare atomic on a cache line of its own, polled and stored, with nothing
// else written.  The gap between the two arms is what the turn protocol
// adds to the cache-line transfer every handoff needs.
void BM_RawAtomicHandoff(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  // A type, not just an aligned variable: nothing else may share the line.
  struct alignas(64) Line {
    std::atomic<std::uint64_t> turn{0};
  };
  for (auto _ : state) {
    Line cell;
    const double seconds = time_round_robin(threads, [&cell, threads](int t,
                                                                      int r) {
      const std::uint64_t mine = static_cast<std::uint64_t>(r) * threads + t;
      // Yield now and then, so an oversubscribed host still gets the
      // turn-holder scheduled.
      for (int polls = 1; cell.turn.load(std::memory_order_acquire) != mine;
           ++polls) {
        sched::cpu_relax();
        if (polls % 4096 == 0) std::this_thread::yield();
      }
      cell.turn.store(mine + 1, std::memory_order_release);
    });
    benchmark::DoNotOptimize(cell.turn.load());
    report_handoffs(state, threads, seconds);
  }
}
BENCHMARK(BM_RawAtomicHandoff)
    ->Arg(4)
    ->Iterations(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_IntervalRecorderEvent(benchmark::State& state) {
  sched::IntervalRecorder r;
  GlobalCount g = 0;
  for (auto _ : state) {
    r.on_event(g);
    g += 1 + (g % 7 == 0);  // occasional gap
  }
  benchmark::DoNotOptimize(r.local_count());
}
BENCHMARK(BM_IntervalRecorderEvent);

void BM_SharedVarAccess(benchmark::State& state) {
  auto network = std::make_shared<net::Network>();
  vm::VmConfig cfg;
  cfg.vm_id = 1;
  cfg.mode = state.range(0) == 0 ? vm::Mode::kPassthrough : vm::Mode::kRecord;
  cfg.keep_trace = false;
  vm::Vm v(network, cfg);
  v.attach_main();
  vm::SharedVar<std::uint64_t> x(v, 0);
  for (auto _ : state) {
    x.set(x.get() + 1);
  }
  v.detach_current();
  state.SetLabel(state.range(0) == 0 ? "passthrough" : "record");
}
BENCHMARK(BM_SharedVarAccess)->Arg(0)->Arg(1);

void BM_TcpRoundTrip(benchmark::State& state) {
  net::Network net;
  auto listener = net.listen({1, 80});
  auto client = net.connect(2, {1, 80});
  auto server = listener->accept();
  Bytes msg(64, 0x42);
  std::uint8_t buf[64];
  for (auto _ : state) {
    client->write(msg);
    std::size_t got = 0;
    while (got < 64) got += server->read(buf, 64 - got);
    server->write(msg);
    got = 0;
    while (got < 64) got += client->read(buf, 64 - got);
  }
}
BENCHMARK(BM_TcpRoundTrip);

void BM_UdpSendReceive(benchmark::State& state) {
  net::Network net;
  auto a = net.udp_bind({1, 100});
  auto b = net.udp_bind({2, 200});
  Bytes msg(64, 0x42);
  for (auto _ : state) {
    a->send_to({2, 200}, msg);
    benchmark::DoNotOptimize(b->receive());
  }
}
BENCHMARK(BM_UdpSendReceive);

record::VmLog make_log(std::size_t intervals) {
  record::VmLog log;
  log.vm_id = 1;
  log.schedule.per_thread.resize(4);
  GlobalCount g = 0;
  for (std::size_t i = 0; i < intervals; ++i) {
    log.schedule.per_thread[i % 4].push_back({g, g + 20});
    g += 25;
  }
  return log;
}

void BM_LogSerialize(benchmark::State& state) {
  record::VmLog log = make_log(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(record::serialize(log));
  }
}
BENCHMARK(BM_LogSerialize)->Arg(100)->Arg(10000);

void BM_LogDeserialize(benchmark::State& state) {
  Bytes data =
      record::serialize(make_log(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(record::deserialize(data));
  }
}
BENCHMARK(BM_LogDeserialize)->Arg(100)->Arg(10000);

// A VM's trace as a replay run leaves it: one part per thread, each the
// thread's events in gc order.  Arg 0 is hot_shared's shape, 200,004
// records in 4 threads' ~285-event intervals; arg 1 is private_keys', 24,380
// records in one-event intervals.
std::vector<std::vector<sched::TraceRecord>> bench_trace_parts(
    std::int64_t shape) {
  const std::size_t n = shape == 0 ? 200'004 : 24'380;
  std::vector<std::vector<sched::TraceRecord>> parts(4);
  GlobalCount gc = 0;
  for (std::size_t t = 0; gc < n; t = (t + 1) % parts.size()) {
    const std::size_t run = shape == 0 ? 250 + (gc * 7919) % 71 : 1;
    for (std::size_t i = 0; i < run && gc < n; ++i, ++gc) {
      parts[t].push_back({gc, static_cast<ThreadNum>(t),
                          sched::EventKind::kSharedWrite, gc * 0x9e37});
    }
  }
  return parts;
}

// What a run pays for its trace now: sched::RunTrace scans the parts into
// gc-ordered runs and digests them in place, or gathers when they do not
// tile or are too many (arg 1).  The copy of the parts is not timed.
void BM_TraceDigestRuns(benchmark::State& state) {
  const auto parts = bench_trace_parts(state.range(0));
  std::optional<sched::RunTrace> trace;
  for (auto _ : state) {
    state.PauseTiming();
    trace.reset();
    auto copy = parts;
    state.ResumeTiming();
    trace.emplace(std::move(copy));
    benchmark::DoNotOptimize(trace->digest());
  }
}
BENCHMARK(BM_TraceDigestRuns)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// What a run paid before: gather every record into a fresh gc-sorted
// vector, then digest that vector.
void BM_TraceGatherThenDigest(benchmark::State& state) {
  const auto parts = bench_trace_parts(state.range(0));
  std::vector<sched::TraceRecord> sorted;
  for (auto _ : state) {
    state.PauseTiming();
    sorted = {};
    state.ResumeTiming();
    sorted = sched::gather_by_gc(parts);
    benchmark::DoNotOptimize(sched::trace_digest(sorted));
  }
}
BENCHMARK(BM_TraceGatherThenDigest)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace djvu

BENCHMARK_MAIN();
