// Chrome trace_event (Perfetto / chrome://tracing) export of recorded
// schedules and replayed traces.
//
// The exported timeline is *logical*: the x-axis is the global counter, not
// wall time — one microsecond of trace time per critical event.  That makes
// the schedule's structure directly visible: each VM is a process track,
// each thread a thread track, each logical schedule interval an "X"
// (complete) slice spanning [FirstCEvent, LastCEvent], and (when a trace is
// supplied) each critical event a unit slice carrying its kind and payload
// hash.  A divergence report, when supplied, renders as an instant marker
// at the divergence position, so the point where replay left the recorded
// schedule can be read straight off the timeline.
//
// The output loads unmodified in Perfetto (ui.perfetto.dev) and
// chrome://tracing: a JSON object with a "traceEvents" array.
#pragma once

#include <string>
#include <vector>

#include "record/vm_log.h"
#include "sched/divergence.h"
#include "sched/trace.h"

namespace djvu::record {

/// One VM's contribution to the exported timeline.  Only `log` is
/// required; `trace` adds per-event slices and `divergence` an instant
/// marker.  Pointers are borrowed for the duration of the export call.
struct ChromeTraceVm {
  std::string name;        // process label ("server", "client-0", ...)
  DjvmId vm_id = 0;        // pid on the timeline
  const VmLog* log = nullptr;
  const std::vector<sched::TraceRecord>* trace = nullptr;
  const sched::DivergenceReport* divergence = nullptr;
};

/// Renders the trace_event JSON for the given VMs.
std::string chrome_trace_json(const std::vector<ChromeTraceVm>& vms);

/// Writes chrome_trace_json() to `path` (Error on I/O failure).
void save_chrome_trace(const std::string& path,
                       const std::vector<ChromeTraceVm>& vms);

}  // namespace djvu::record
