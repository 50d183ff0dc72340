#include "sched/trace.h"

#include <algorithm>

#include "common/bytes.h"
#include "common/crc32.h"

namespace djvu::sched {
namespace {

// A lambda, not a function: its type carries the comparison, so the sort
// inlines it instead of calling through a function pointer.
constexpr auto gc_before = [](const TraceRecord& a, const TraceRecord& b) {
  return a.gc < b.gc;
};

}  // namespace

void sort_by_gc(std::vector<TraceRecord>& records) {
  std::stable_sort(records.begin(), records.end(), gc_before);
}

bool is_sorted_by_gc(const std::vector<TraceRecord>& records) {
  return std::is_sorted(records.begin(), records.end(), gc_before);
}

std::vector<TraceRecord> ExecutionTrace::sorted() const {
  std::vector<TraceRecord> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const auto& part : parts_) n += part.size();
    out.reserve(n);
    for (const auto& part : parts_) {
      out.insert(out.end(), part.begin(), part.end());
    }
  }
  sort_by_gc(out);
  return out;
}

std::uint64_t trace_digest(const std::vector<TraceRecord>& sorted_records) {
  ByteWriter w;
  for (const TraceRecord& r : sorted_records) {
    w.u64(r.gc)
        .u32(r.thread)
        .u8(static_cast<std::uint8_t>(r.kind))
        .u64(r.aux);
  }
  Bytes buf = w.take();
  // Two CRCs over different slicings give a 64-bit digest.
  std::uint64_t lo = crc32(buf);
  Crc32 hi;
  hi.update(BytesView(buf).subspan(buf.size() / 2));
  return (std::uint64_t{hi.value()} << 32) | lo;
}

}  // namespace djvu::sched
