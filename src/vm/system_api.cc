#include "vm/system_api.h"

#include <chrono>

#include "vm/net_event.h"

namespace djvu::vm {
namespace {

using sched::EventKind;

std::uint64_t real_millis() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::uint64_t real_nanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Shared machinery: record the queried value, replay it back.
std::uint64_t recorded_query(Vm& vm, std::uint64_t (*query)()) {
  if (!vm.instrumented()) return query();
  NetEvent ev(vm, EventKind::kTimeRead);

  if (vm.mode() == Mode::kRecord) {
    std::uint64_t value = 0;
    // A time read touches no shared object, so it conflicts with nothing:
    // the default thread-local key lets concurrent time reads record in
    // parallel under sharding.
    vm.critical_event(
        EventKind::kTimeRead,
        [&](GlobalCount) {
          value = query();
          return value;
        },
        0, kThreadLocalConflict);
    ev.log(value);
    return value;
  }

  // Replay: the recorded value, never the real clock.  mark_event runs the
  // turn protocol — within an interval lease that is one cursor advance
  // with no atomics, making replayed time reads as cheap as the record
  // side's thread-local-keyed sections.
  ev.replay("time read");
  const std::uint64_t value = ev.value();
  vm.mark_event(EventKind::kTimeRead, value);
  return value;
}

}  // namespace

std::uint64_t current_time_millis(Vm& vm) {
  return recorded_query(vm, &real_millis);
}

std::uint64_t nano_time(Vm& vm) {
  return recorded_query(vm, &real_nanos);
}

}  // namespace djvu::vm
