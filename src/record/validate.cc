#include "record/validate.h"

#include <algorithm>

#include "common/strutil.h"

namespace djvu::record {

std::vector<std::string> validate(const VmLog& log) {
  std::vector<std::string> problems;

  // Per-thread interval lists must be strictly increasing and well-formed.
  std::vector<std::pair<GlobalCount, GlobalCount>> all;
  for (std::size_t t = 0; t < log.schedule.per_thread.size(); ++t) {
    const auto& list = log.schedule.per_thread[t];
    GlobalCount prev_end = 0;
    bool first = true;
    for (const auto& lsi : list) {
      if (lsi.first > lsi.last) {
        problems.push_back(str_format(
            "thread %zu: inverted interval [%llu,%llu]", t,
            static_cast<unsigned long long>(lsi.first),
            static_cast<unsigned long long>(lsi.last)));
        continue;
      }
      if (!first && lsi.first <= prev_end) {
        problems.push_back(str_format(
            "thread %zu: interval [%llu,%llu] does not advance past %llu", t,
            static_cast<unsigned long long>(lsi.first),
            static_cast<unsigned long long>(lsi.last),
            static_cast<unsigned long long>(prev_end)));
      }
      prev_end = lsi.last;
      first = false;
      all.emplace_back(lsi.first, lsi.last);
    }
  }

  // Across threads, intervals must partition [0, critical_events).
  std::sort(all.begin(), all.end());
  GlobalCount expected = 0;
  for (const auto& [lo, hi] : all) {
    if (lo != expected) {
      problems.push_back(str_format(
          "global order %s at counter %llu (next interval starts at %llu)",
          lo > expected ? "has a gap" : "overlaps",
          static_cast<unsigned long long>(expected),
          static_cast<unsigned long long>(lo)));
      // Resynchronize to keep later diagnostics useful.
      expected = hi + 1;
      continue;
    }
    expected = hi + 1;
  }
  if (expected != log.stats.critical_events) {
    problems.push_back(str_format(
        "schedule encodes %llu events but stats claim %llu",
        static_cast<unsigned long long>(expected),
        static_cast<unsigned long long>(log.stats.critical_events)));
  }

  // Network entries must belong to scheduled threads and be self-consistent.
  std::uint64_t nw_strict = 0;
  for (ThreadNum t : log.network.threads()) {
    if (t >= log.schedule.per_thread.size()) {
      problems.push_back(str_format(
          "network log references thread %u, beyond the %zu scheduled", t,
          log.schedule.per_thread.size()));
    }
    for (const auto& e : log.network.thread_entries(t)) {
      const bool environment_event = e.kind == sched::EventKind::kTimeRead;
      if (sched::is_network_event(e.kind)) ++nw_strict;
      if (!sched::is_network_event(e.kind) && !environment_event) {
        problems.push_back(str_format(
            "thread %u event %llu: non-network kind %s in the network log",
            t, static_cast<unsigned long long>(e.event_num),
            sched::event_kind_name(e.kind)));
      }
      if (const char* field = missing_field(e)) {
        problems.push_back(str_format(
            "thread %u event %llu: successful %s entry without its %s", t,
            static_cast<unsigned long long>(e.event_num),
            sched::event_kind_name(e.kind), field));
      }
    }
  }
  if (nw_strict > log.stats.network_events) {
    problems.push_back(str_format(
        "network log has %llu network entries but stats claim only %llu "
        "network events",
        static_cast<unsigned long long>(nw_strict),
        static_cast<unsigned long long>(log.stats.network_events)));
  }
  return problems;
}

void validate_or_throw(const VmLog& log) {
  auto problems = validate(log);
  if (problems.empty()) return;
  throw LogFormatError("invalid log bundle: " + join(problems, "; "));
}

}  // namespace djvu::record
