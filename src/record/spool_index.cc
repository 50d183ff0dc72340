#include "record/spool_index.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/crc32.h"
#include "common/errors.h"

namespace djvu::record {
namespace {

constexpr std::uint8_t kFlagHasGc = 1;

/// Adds `t` to its thread's entry in the thread-ascending `acc`.
void add_counts(std::vector<SpoolThreadCounts>& acc,
                const SpoolThreadCounts& t) {
  auto it = std::lower_bound(
      acc.begin(), acc.end(), t.thread,
      [](const SpoolThreadCounts& c, ThreadNum n) { return c.thread < n; });
  if (it == acc.end() || it->thread != t.thread) {
    it = acc.insert(it, SpoolThreadCounts{t.thread, 0, 0, 0});
  }
  it->intervals += t.intervals;
  it->sched_events += t.sched_events;
  it->causal_entries += t.causal_entries;
}

}  // namespace

void SpoolChunkFolder::add(std::uint8_t kind, const SpoolItemFacts& item) {
  info_.kinds |= spool_kind_bit(kind);
  info_.network_items += item.network_items;
  if (item.has_gc) {
    info_.min_gc = info_.has_gc ? std::min(info_.min_gc, item.min_gc)
                                : item.min_gc;
    info_.max_gc = info_.has_gc ? std::max(info_.max_gc, item.max_gc)
                                : item.max_gc;
    info_.has_gc = true;
  }
  if (item.thread) add_counts(info_.threads, *item.thread);
}

SpoolChunkInfo SpoolChunkFolder::take(std::uint32_t stored_len,
                                      std::uint32_t raw_len,
                                      std::uint8_t codec) {
  SpoolChunkInfo info = std::exchange(info_, {});
  info.stored_len = stored_len;
  info.raw_len = raw_len;
  info.codec = codec;
  return info;
}

void SpoolIndex::finalize() {
  prefix_max_gc.clear();
  prefix_max_gc.reserve(chunks.size());
  GlobalCount running = 0;
  for (const SpoolChunkInfo& c : chunks) {
    if (c.has_gc) running = std::max(running, c.max_gc);
    prefix_max_gc.push_back(running);
  }
}

std::optional<std::size_t> SpoolIndex::chunk_covering(GlobalCount gc) const {
  // prefix_max_gc is non-decreasing, so the first position reaching gc is a
  // plain lower_bound.  Everything covering gc or beyond lives at or after
  // that chunk: an earlier chunk's items all end below gc by definition of
  // the prefix maximum.
  const auto it =
      std::lower_bound(prefix_max_gc.begin(), prefix_max_gc.end(), gc);
  if (it == prefix_max_gc.end()) return std::nullopt;
  return static_cast<std::size_t>(it - prefix_max_gc.begin());
}

std::vector<SpoolThreadCounts> SpoolIndex::totals_by_thread() const {
  std::vector<SpoolThreadCounts> acc;
  for (const SpoolChunkInfo& c : chunks) {
    for (const SpoolThreadCounts& t : c.threads) add_counts(acc, t);
  }
  return acc;
}

Bytes encode_spool_footer(const SpoolIndex& index) {
  ByteWriter w;
  w.raw(BytesView(reinterpret_cast<const std::uint8_t*>(kSpoolIndexMagic), 8));
  w.u16(kSpoolIndexVersion);
  w.varint(index.data_end);
  w.u32(index.file_crc);
  w.varint(index.chunks.size());
  for (const SpoolChunkInfo& c : index.chunks) {
    w.varint(c.stored_len);
    w.varint(c.raw_len);
    w.u8(c.codec);
    w.u8(c.kinds);
    w.u8(c.has_gc ? kFlagHasGc : 0);
    if (c.has_gc) {
      w.varint(c.min_gc);
      w.varint(c.max_gc - c.min_gc);
    }
    w.varint(c.network_items);
    w.varint(c.threads.size());
    for (const SpoolThreadCounts& t : c.threads) {
      w.varint(t.thread);
      w.varint(t.intervals);
      w.varint(t.sched_events);
      w.varint(t.causal_entries);
    }
  }
  const std::uint32_t footer_len = static_cast<std::uint32_t>(w.size());
  const std::uint32_t footer_crc = crc32(w.view());
  w.u32(footer_len);
  w.u32(footer_crc);
  w.raw(BytesView(reinterpret_cast<const std::uint8_t*>(kSpoolIndexMagic), 8));
  return w.take();
}

std::optional<SpoolIndex> read_spool_footer(std::FILE* file,
                                            std::uint64_t file_size) {
  const long saved_pos = std::ftell(file);
  const auto restore = [&] {
    std::clearerr(file);
    std::fseek(file, saved_pos, SEEK_SET);
  };

  if (file_size < kSpoolHeaderBytes + kSpoolIndexTrailerBytes) {
    return std::nullopt;
  }
  std::uint8_t trailer[kSpoolIndexTrailerBytes];
  if (std::fseek(file,
                 static_cast<long>(file_size - kSpoolIndexTrailerBytes),
                 SEEK_SET) != 0 ||
      std::fread(trailer, 1, sizeof trailer, file) != sizeof trailer) {
    restore();
    return std::nullopt;
  }
  if (std::memcmp(trailer + 8, kSpoolIndexMagic, 8) != 0) {
    restore();
    return std::nullopt;
  }
  ByteReader trailer_reader(BytesView(trailer, 8));
  const std::uint32_t footer_len = trailer_reader.u32();
  const std::uint32_t footer_crc = trailer_reader.u32();
  const std::uint64_t total = footer_len + kSpoolIndexTrailerBytes;
  if (footer_len < 8 + 2 || total > file_size - kSpoolHeaderBytes) {
    restore();
    return std::nullopt;
  }
  Bytes footer(footer_len);
  if (std::fseek(file, static_cast<long>(file_size - total), SEEK_SET) != 0 ||
      std::fread(footer.data(), 1, footer.size(), file) != footer.size()) {
    restore();
    return std::nullopt;
  }
  restore();
  if (crc32(footer) != footer_crc ||
      std::memcmp(footer.data(), kSpoolIndexMagic, 8) != 0) {
    return std::nullopt;
  }
  try {
    ByteReader r(BytesView(footer).subspan(8));
    if (r.u16() != kSpoolIndexVersion) return std::nullopt;
    SpoolIndex index;
    index.from_footer = true;
    index.data_end = r.varint();
    index.file_crc = r.u32();
    // Every entry and thread record takes at least one byte, so a count
    // beyond the bytes left is corrupt; it must not become a reserve().
    const std::uint64_t n = r.varint();
    if (n > r.remaining()) return std::nullopt;
    index.chunks.reserve(n);
    std::uint64_t offset = kSpoolHeaderBytes;
    for (std::uint64_t i = 0; i < n; ++i) {
      SpoolChunkInfo c;
      c.offset = offset;
      c.stored_len = static_cast<std::uint32_t>(r.varint());
      c.raw_len = static_cast<std::uint32_t>(r.varint());
      c.codec = r.u8();
      c.kinds = r.u8();
      const std::uint8_t flags = r.u8();
      c.has_gc = (flags & kFlagHasGc) != 0;
      if (c.has_gc) {
        c.min_gc = r.varint();
        c.max_gc = c.min_gc + r.varint();
      }
      c.network_items = r.varint();
      const std::uint64_t threads = r.varint();
      if (threads > r.remaining()) return std::nullopt;
      c.threads.reserve(threads);
      for (std::uint64_t t = 0; t < threads; ++t) {
        SpoolThreadCounts counts;
        counts.thread = static_cast<ThreadNum>(r.varint());
        counts.intervals = r.varint();
        counts.sched_events = r.varint();
        counts.causal_entries = r.varint();
        c.threads.push_back(counts);
      }
      offset += kChunkFrameBytes + c.stored_len;
      index.chunks.push_back(std::move(c));
    }
    if (!r.at_end()) return std::nullopt;
    // The entries must tile [header, data_end) exactly and the footer must
    // sit where data_end says — otherwise the footer describes some other
    // file state (e.g. a partially overwritten spool) and is useless.
    if (offset != index.data_end ||
        index.data_end + total != file_size) {
      return std::nullopt;
    }
    index.finalize();
    return index;
  } catch (const LogFormatError&) {
    return std::nullopt;
  }
}

}  // namespace djvu::record
