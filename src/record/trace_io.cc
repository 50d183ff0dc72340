#include "record/trace_io.h"

#include <algorithm>
#include <deque>
#include <optional>

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
  std::size_t pos = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (!(a.records[i] == b.records[i])) {
      pos = i;
      break;
    }
  }
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

namespace {

/// One input of diff_trace_files: its record stream plus the state the
/// checks below need.
struct DiffSide {
  explicit DiffSide(const std::string& p) : path(p), source(p) {}

  std::string path;
  LogSource source;
  TraceRecordStream stream{source};
  GlobalCount prev = 0;
  /// seek_to_gc found start_gc beyond the recording: an empty restricted
  /// stream, not one read to its end.
  bool past_end = false;
};

}  // namespace

TraceDiff diff_trace_files(const std::string& path_a,
                           const std::string& path_b,
                           std::size_t context_events, GlobalCount start_gc) {
  DiffSide side_a(path_a);
  DiffSide side_b(path_b);
  if (start_gc > 0) {
    // Jump to the covering chunk through the index (footer or rebuilt); the
    // gc filter in pull skips the part of that chunk below start_gc.
    side_a.past_end = !side_a.source.seek_to_gc(start_gc);
    side_b.past_end = !side_b.source.seek_to_gc(start_gc);
  }

  // A record stream must be gc-ordered for positional comparison to mean
  // anything; enforce it as we go (a multi-threaded spool interleaves
  // per-thread batches and fails here).  A stream read to its end must end
  // cleanly: a torn tail would otherwise pass for a shorter, or identical,
  // trace.
  auto pull = [start_gc](DiffSide& side) {
    std::optional<sched::TraceRecord> r;
    do {
      r = side.stream.next();
    } while (r && r->gc < start_gc);  // covering chunk may start below
    if (!r) {
      if (!side.past_end && !side.source.clean_end()) {
        throw LogFormatError(side.path + ": torn trace (" +
                             std::to_string(side.source.truncated_bytes()) +
                             " bytes past the last valid chunk)");
      }
      return r;
    }
    if (r->gc < side.prev) {
      throw UsageError(side.path +
                       ": trace records out of gc order — not streamable "
                       "(load it with load_spool and use diff_traces)");
    }
    side.prev = r->gc;
    return r;
  };

  TraceDiff out;
  // Last `context_events` matched records (identical on both sides), for
  // pre-divergence context.
  std::deque<sched::TraceRecord> ring;
  std::size_t pos = 0;
  std::optional<sched::TraceRecord> a, b;
  for (;; ++pos) {
    a = pull(side_a);
    b = pull(side_b);
    if (a && b && *a == *b) {
      ring.push_back(*a);
      if (ring.size() > context_events) ring.pop_front();
      continue;
    }
    if (!a && !b) {
      out.identical = true;
      out.description =
          "traces identical (" + std::to_string(pos) + " events)";
      return out;
    }
    break;  // divergence (or one side ended) at `pos`
  }

  out.position = pos;
  if (a && b) {
    out.description =
        str_format("first divergence at event %zu:\n  A: %s\n  B: %s", pos,
                   to_text(*a).c_str(), to_text(*b).c_str());
  } else {
    out.description = str_format(
        "trace %s ended at event %zu while the other continues; common "
        "prefix identical",
        a ? "B" : "A", pos);
  }
  auto fill = [&](const std::optional<sched::TraceRecord>& at, DiffSide& side,
                  std::vector<std::string>& ctx) {
    std::size_t i = pos - ring.size();
    for (const sched::TraceRecord& r : ring) {
      ctx.push_back(str_format(" [%zu] %s", i++, to_text(r).c_str()));
    }
    if (!at) return;
    ctx.push_back(str_format(">[%zu] %s", pos, to_text(*at).c_str()));
    for (std::size_t k = 0; k < context_events; ++k) {
      std::optional<sched::TraceRecord> r = pull(side);
      if (!r) break;
      ctx.push_back(str_format(" [%zu] %s", pos + 1 + k, to_text(*r).c_str()));
    }
  };
  fill(a, side_a, out.context_a);
  fill(b, side_b, out.context_b);
  return out;
}

}  // namespace djvu::record
