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

std::uint64_t trace_digest(const std::vector<TraceRecord>& sorted_records) {
  // The digest is two CRC-32s of the serialized trace: `lo` over all of it,
  // `hi` over its second half.  The records are encoded a block at a time
  // and each block feeds `first` (bytes [0, split)) or `second` (bytes
  // [split, total)), split where it straddles the half; `lo` is then
  // `first` and `second` combined.  One pass, no buffer of the whole trace.
  const std::uint64_t total = sorted_records.size() * kDigestRecordBytes;
  const std::uint64_t split = total / 2;
  Crc32 first;
  Crc32 second;
  std::uint64_t fed = 0;
  std::array<std::uint8_t, kDigestBlockRecords * kDigestRecordBytes> block{};
  for (std::size_t i = 0; i < sorted_records.size();) {
    const std::size_t end =
        std::min(sorted_records.size(), i + kDigestBlockRecords);
    std::uint8_t* p = block.data();
    for (; i < end; ++i) {
      const TraceRecord& r = sorted_records[i];
      p = put_le(p, r.gc);
      p = put_le(p, r.thread);
      p = put_le(p, static_cast<std::uint8_t>(r.kind));
      p = put_le(p, r.aux);
    }
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
  }
  const std::uint32_t hi = second.value();
  const std::uint32_t lo = crc32_combine(first.value(), hi, total - split);
  return (std::uint64_t{hi} << 32) | lo;
}

std::size_t first_difference(std::span<const TraceRecord> a,
                             std::span<const TraceRecord> b) {
  const std::size_t n = std::min(a.size(), b.size());
  return static_cast<std::size_t>(
      std::mismatch(a.begin(), a.begin() + n, b.begin()).first - a.begin());
}

}  // namespace djvu::sched
