#include "sched/trace.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

#include "common/crc32.h"

namespace djvu::sched {
namespace {

// A lambda, not a function: its type carries the comparison, so the sort
// inlines it instead of calling through a function pointer.
constexpr auto gc_before = [](const TraceRecord& a, const TraceRecord& b) {
  return a.gc < b.gc;
};

// Stable counting scatter of every part's records on gc - min; `range` =
// max - min < 2 * n.
std::vector<TraceRecord> counting_gather(
    std::span<const std::vector<TraceRecord>> parts, std::size_t n,
    GlobalCount min, std::uint64_t range) {
  // starts[k + 1] counts gc == min + k; the prefix sum turns starts[k] into
  // the first output slot of that gc.
  std::vector<std::size_t> starts(range + 2, 0);
  for (const auto& part : parts) {
    for (const TraceRecord& r : part) ++starts[r.gc - min + 1];
  }
  for (std::size_t k = 1; k < starts.size(); ++k) starts[k] += starts[k - 1];
  std::vector<TraceRecord> out(n);
  for (const auto& part : parts) {
    for (const TraceRecord& r : part) out[starts[r.gc - min]++] = r;
  }
  return out;
}

// Bytes one record serializes to in the digest: gc u64, thread u32, kind
// u8, aux u64, all little-endian.
constexpr std::size_t kDigestRecordBytes = 21;
// Records encoded per stack block before the block is fed to the CRCs: 10.5
// KiB, so nearly every byte goes through the CRC's folding kernel.
constexpr std::size_t kDigestBlockRecords = 512;

// Stores v little-endian at p: one unaligned store on a little-endian host.
template <typename T>
std::uint8_t* put_le(std::uint8_t* p, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(T));
    return p + sizeof(T);
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      *p++ = static_cast<std::uint8_t>(v);
      v >>= 8;
    }
    return p;
  }
}

}  // namespace

std::vector<TraceRecord> gather_by_gc(
    std::span<const std::vector<TraceRecord>> parts) {
  std::size_t n = 0;
  GlobalCount min = UINT64_MAX;
  GlobalCount max = 0;
  for (const auto& part : parts) {
    n += part.size();
    for (const TraceRecord& r : part) {
      min = std::min(min, r.gc);
      max = std::max(max, r.gc);
    }
  }
  if (n == 0) return {};
  const std::uint64_t range = max - min;
  // A recorded trace has one record per gc in [min, max]: each lands at
  // gc - min with no count array.  A duplicate gc leaves some slot empty
  // (value-initialized, gc 0, which no slot past the first can hold), and
  // then the counting gather redoes it in stable order.
  if (range == n - 1) {
    std::vector<TraceRecord> out(n);
    for (const auto& part : parts) {
      for (const TraceRecord& r : part) out[r.gc - min] = r;
    }
    bool dense = true;
    for (std::size_t k = 0; k < n; ++k) dense &= out[k].gc == min + k;
    if (dense) return out;
  }
  // The bound keeps the count array within two entries per record.
  if (range < 2 * std::uint64_t{n}) {
    return counting_gather(parts, n, min, range);
  }
  std::vector<TraceRecord> out;
  out.reserve(n);
  for (const auto& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  std::stable_sort(out.begin(), out.end(), gc_before);
  return out;
}

void sort_by_gc(std::vector<TraceRecord>& records) {
  if (records.size() < 2) return;
  records = gather_by_gc({&records, 1});
}

bool is_sorted_by_gc(const std::vector<TraceRecord>& records) {
  return std::is_sorted(records.begin(), records.end(), gc_before);
}

std::vector<TraceRecord> ExecutionTrace::sorted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return gather_by_gc(parts_);
}

std::optional<std::vector<std::span<const TraceRecord>>> gc_ordered_runs(
    std::span<const std::vector<TraceRecord>> parts) {
  std::size_t n = 0;
  for (const auto& part : parts) n += part.size();
  // Past this many runs the scan stops, and the caller gathers.
  const std::size_t max_runs =
      std::max<std::size_t>(1, n / kMinMeanRunRecords);
  std::vector<std::span<const TraceRecord>> runs;
  for (const auto& part : parts) {
    std::size_t begin = 0;
    for (std::size_t i = 1; i <= part.size(); ++i) {
      if (i < part.size() && part[i].gc == part[i - 1].gc + 1) continue;
      if (runs.size() == max_runs) return std::nullopt;
      runs.emplace_back(part.data() + begin, i - begin);
      begin = i;
    }
  }
  std::sort(runs.begin(), runs.end(),
            [](std::span<const TraceRecord> a, std::span<const TraceRecord> b) {
              return a.front().gc < b.front().gc;
            });
  // Sorted by first gc, the runs tile [min, max] when each starts where the
  // one before it ends; the difference cannot overflow as a sum could.
  for (std::size_t k = 1; k < runs.size(); ++k) {
    if (runs[k].front().gc - runs[k - 1].front().gc != runs[k - 1].size()) {
      return std::nullopt;
    }
  }
  return runs;
}

std::uint64_t trace_digest_runs(
    std::span<const std::span<const TraceRecord>> runs) {
  // The digest is two CRC-32s of the serialized trace: `lo` over all of it,
  // `hi` over its second half.  The records are encoded a block at a time,
  // a block filling across run boundaries, and each block feeds `first`
  // (bytes [0, split)) or `second` (bytes [split, total)), split where it
  // straddles the half; `lo` is then `first` and `second` combined.  One
  // pass, no buffer of the whole trace.
  std::uint64_t records = 0;
  for (const auto& run : runs) records += run.size();
  const std::uint64_t total = records * kDigestRecordBytes;
  const std::uint64_t split = total / 2;
  Crc32 first;
  Crc32 second;
  std::uint64_t fed = 0;
  std::array<std::uint8_t, kDigestBlockRecords * kDigestRecordBytes> block{};
  std::uint8_t* p = block.data();
  const auto feed = [&] {
    const BytesView bytes(block.data(), p);
    if (fed >= split) {
      second.update(bytes);
    } else if (fed + bytes.size() <= split) {
      first.update(bytes);
    } else {
      const std::size_t head = split - fed;
      first.update(bytes.first(head));
      second.update(bytes.subspan(head));
    }
    fed += bytes.size();
    p = block.data();
  };
  std::size_t room = kDigestBlockRecords;  // records the block can still take
  for (const auto& run : runs) {
    for (std::size_t i = 0; i < run.size();) {
      const std::size_t end = std::min(run.size(), i + room);
      room -= end - i;
      for (; i < end; ++i) {
        const TraceRecord& r = run[i];
        p = put_le(p, r.gc);
        p = put_le(p, r.thread);
        p = put_le(p, static_cast<std::uint8_t>(r.kind));
        p = put_le(p, r.aux);
      }
      if (room == 0) {
        feed();
        room = kDigestBlockRecords;
      }
    }
  }
  if (p != block.data()) feed();
  const std::uint32_t hi = second.value();
  const std::uint32_t lo = crc32_combine(first.value(), hi, total - split);
  return (std::uint64_t{hi} << 32) | lo;
}

std::uint64_t trace_digest(const std::vector<TraceRecord>& sorted_records) {
  const std::span<const TraceRecord> whole(sorted_records);
  return trace_digest_runs({&whole, 1});
}

RunTrace::RunTrace(std::vector<std::vector<TraceRecord>> parts)
    : parts_(std::move(parts)) {
  for (const auto& part : parts_) size_ += part.size();
  if (auto runs = gc_ordered_runs(parts_)) {
    runs_ = std::move(*runs);
    digest_ = trace_digest_runs(runs_);
    return;
  }
  // The runs do not tile: gather now, and digest the gathered vector.
  std::call_once(built_, [this] {
    sorted_ = gather_by_gc(parts_);
    parts_ = {};
  });
  digest_ = trace_digest(sorted_);
}

const std::vector<TraceRecord>& RunTrace::sorted() const {
  // Runs only for tiling runs: the constructor built the gathered case.
  std::call_once(built_, [this] {
    sorted_.reserve(size_);
    for (const auto& run : runs_) {
      sorted_.insert(sorted_.end(), run.begin(), run.end());
    }
    runs_ = {};
    parts_ = {};
  });
  return sorted_;
}

std::size_t first_difference(std::span<const TraceRecord> a,
                             std::span<const TraceRecord> b) {
  const std::size_t n = std::min(a.size(), b.size());
  return static_cast<std::size_t>(
      std::mismatch(a.begin(), a.begin() + n, b.begin()).first - a.begin());
}

}  // namespace djvu::sched
