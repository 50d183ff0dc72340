// Quickstart: record a racy multi-threaded execution, then replay it
// deterministically.
//
//   $ ./examples/quickstart
//
// Four threads increment a shared counter without synchronization, so the
// final value varies from run to run (lost updates).  DejaVu records the
// logical thread schedule; replay reproduces the *exact* interleaving — and
// therefore the exact final value — even though the replay runs under a
// completely different network/scheduling environment.

#include <cstdio>

#include "core/session.h"
#include "record/serializer.h"
#include "vm/shared_var.h"
#include "vm/thread.h"

int main() {
  using namespace djvu;

  std::uint64_t recorded_value = 0;
  std::uint64_t replayed_value = 0;
  bool recording = true;

  core::Session session;
  session.add_vm("app", /*host=*/1, /*djvm=*/true, [&](vm::Vm& v) {
    vm::SharedVar<std::uint64_t> counter(v, 0);
    std::vector<vm::VmThread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back(v, [&counter] {
        for (int i = 0; i < 1000; ++i) {
          counter.set(counter.get() + 1);  // racy: updates can be lost
        }
      });
    }
    for (auto& t : threads) t.join();
    (recording ? recorded_value : replayed_value) = counter.unsafe_peek();
  });

  // Record phase: run the application, capturing the logical thread
  // schedule.
  auto rec = session.record();
  std::printf("record : final counter = %llu (of 4000 attempted)\n",
              static_cast<unsigned long long>(recorded_value));
  std::printf("         %llu critical events in %zu schedule intervals, "
              "log = %zu bytes\n",
              static_cast<unsigned long long>(rec.vm("app").critical_events),
              rec.vm("app").log->schedule.interval_count(),
              record::serialize(*rec.vm("app").log).size());

  // Replay phase: enforce the recorded schedule.
  recording = false;
  auto rep = session.replay(rec);
  std::printf("replay : final counter = %llu\n",
              static_cast<unsigned long long>(replayed_value));

  // Verify the executions are identical, event by event.
  core::verify(rec, rep);
  std::printf("verify : traces identical (%zu events) — perfect replay\n",
              rec.vm("app").trace().size());
  return recorded_value == replayed_value ? 0 : 1;
}
