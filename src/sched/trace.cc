#include "sched/trace.h"

#include <algorithm>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/strutil.h"

namespace djvu::sched {

const std::vector<TraceRecord>& ExecutionTrace::sorted_locked() const {
  if (!sorted_valid_) {
    std::size_t n = 0;
    for (const auto& part : parts_) n += part.size();
    sorted_cache_.clear();
    sorted_cache_.reserve(n);
    for (const auto& part : parts_) {
      sorted_cache_.insert(sorted_cache_.end(), part.begin(), part.end());
    }
    std::sort(sorted_cache_.begin(), sorted_cache_.end(),
              [](const TraceRecord& a, const TraceRecord& b) {
                return a.gc < b.gc;
              });
    sorted_valid_ = true;
  }
  return sorted_cache_;
}

std::vector<TraceRecord> ExecutionTrace::sorted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sorted_locked();
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

std::uint64_t ExecutionTrace::digest() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return trace_digest(sorted_locked());
}

std::string ExecutionTrace::first_divergence(const ExecutionTrace& recorded,
                                             const ExecutionTrace& replayed) {
  auto a = recorded.sorted();
  auto b = replayed.sorted();
  std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] == b[i]) continue;
    return str_format(
        "divergence at position %zu: recorded {gc=%llu t%u %s aux=%llx} vs "
        "replayed {gc=%llu t%u %s aux=%llx}",
        i, static_cast<unsigned long long>(a[i].gc), a[i].thread,
        event_kind_name(a[i].kind), static_cast<unsigned long long>(a[i].aux),
        static_cast<unsigned long long>(b[i].gc), b[i].thread,
        event_kind_name(b[i].kind), static_cast<unsigned long long>(b[i].aux));
  }
  if (a.size() != b.size()) {
    return str_format("trace lengths differ: recorded %zu vs replayed %zu",
                      a.size(), b.size());
  }
  return "";
}

}  // namespace djvu::sched
