#include "record/trace_io.h"

#include <algorithm>

#include "common/strutil.h"
#include "record/log_spool.h"

namespace djvu::record {
namespace {

/// Records per trace batch when saving: ~14 KB items, so a default chunk
/// holds a few batches and seek_to_gc lands within a few thousand records
/// of its target.
constexpr std::size_t kSaveBatchRecords = 1024;

}  // namespace

void save_trace_to_file(const TraceFile& trace, const std::string& path) {
  if (!sched::is_sorted_by_gc(trace.records)) {
    throw UsageError("save_trace_to_file: records are not gc-sorted");
  }
  LogSpooler::Options options;
  options.path = path;
  LogSpooler spooler(trace.vm_id, options);
  const std::vector<sched::TraceRecord>& records = trace.records;
  for (std::size_t i = 0; i < records.size(); i += kSaveBatchRecords) {
    const std::size_t n = std::min(kSaveBatchRecords, records.size() - i);
    spooler.trace_batch({records.begin() + i, records.begin() + i + n});
  }
  spooler.finish(RecordStats{}, 0);
  spooler.close();
}

TraceFile load_trace_from_file(const std::string& path) {
  SpoolContents contents = load_spool(path);
  if (!contents.clean_end) {
    throw LogFormatError("torn trace file " + path + " (" +
                         std::to_string(contents.truncated_bytes) +
                         " bytes past the last valid chunk)");
  }
  return std::move(contents.trace);
}

std::string to_text(const sched::TraceRecord& r) {
  return str_format("gc=%llu t%u %-14s aux=%016llx",
                    static_cast<unsigned long long>(r.gc), r.thread,
                    sched::event_kind_name(r.kind),
                    static_cast<unsigned long long>(r.aux));
}

TraceDiff diff_traces(const TraceFile& a, const TraceFile& b,
                      std::size_t context_events) {
  TraceDiff out;
  const std::size_t n = std::min(a.records.size(), b.records.size());
  const std::size_t pos = sched::first_difference(a.records, b.records);
  if (pos == n && a.records.size() == b.records.size()) {
    out.identical = true;
    out.description = "traces identical (" +
                      std::to_string(a.records.size()) + " events)";
    return out;
  }
  out.position = pos;
  if (pos < n) {
    out.description = str_format(
        "first divergence at event %zu:\n  A: %s\n  B: %s", pos,
        to_text(a.records[pos]).c_str(), to_text(b.records[pos]).c_str());
  } else {
    out.description = str_format(
        "trace A has %zu events, trace B has %zu; common prefix identical",
        a.records.size(), b.records.size());
  }
  auto fill = [&](const TraceFile& t, std::vector<std::string>& ctx) {
    std::size_t lo = pos >= context_events ? pos - context_events : 0;
    std::size_t hi = std::min(t.records.size(), pos + context_events + 1);
    for (std::size_t i = lo; i < hi; ++i) {
      ctx.push_back(str_format("%s[%zu] %s", i == pos ? ">" : " ", i,
                               to_text(t.records[i]).c_str()));
    }
  };
  fill(a, out.context_a);
  fill(b, out.context_b);
  return out;
}

TraceDiff diff_trace_files(const std::string& path_a,
                           const std::string& path_b,
                           std::size_t context_events) {
  return diff_traces(load_trace_from_file(path_a),
                     load_trace_from_file(path_b), context_events);
}

}  // namespace djvu::record
