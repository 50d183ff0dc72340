#include "record/spool_index.h"

#include <algorithm>
#include <cstring>

#include "common/crc32.h"
#include "common/errors.h"

namespace djvu::record {
namespace {

constexpr std::uint8_t kFlagHasGc = 1;

/// The fewest bytes an entry takes: stored_len, raw_len, codec and flags.
constexpr std::uint64_t kMinEntryBytes = 4;

}  // namespace

void SpoolChunkInfo::cover(GlobalCount lo, GlobalCount hi) {
  min_gc = has_gc ? std::min(min_gc, lo) : lo;
  max_gc = has_gc ? std::max(max_gc, hi) : hi;
  has_gc = true;
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
    w.u8(c.has_gc ? kFlagHasGc : 0);
    if (c.has_gc) {
      w.varint(c.min_gc);
      w.varint(c.max_gc - c.min_gc);
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
    index.data_end = r.varint();
    index.file_crc = r.u32();
    // A count beyond what the bytes left can hold is corrupt; it must not
    // become a reserve().
    const std::uint64_t n = r.varint();
    if (n > r.remaining() / kMinEntryBytes) return std::nullopt;
    index.chunks.reserve(n);
    index.prefix_max_gc.reserve(n);
    std::uint64_t offset = kSpoolHeaderBytes;
    GlobalCount max_gc = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      SpoolChunkInfo c;
      c.offset = offset;
      c.stored_len = static_cast<std::uint32_t>(r.varint());
      c.raw_len = static_cast<std::uint32_t>(r.varint());
      c.codec = r.u8();
      const std::uint8_t flags = r.u8();
      if ((flags & ~kFlagHasGc) != 0) return std::nullopt;
      c.has_gc = flags == kFlagHasGc;
      if (c.has_gc) {
        c.min_gc = r.varint();
        const GlobalCount span = r.varint();
        if (span > ~GlobalCount{0} - c.min_gc) return std::nullopt;
        c.max_gc = c.min_gc + span;
      }
      offset += kChunkFrameBytes + c.stored_len;
      if (c.has_gc) max_gc = std::max(max_gc, c.max_gc);
      index.chunks.push_back(c);
      index.prefix_max_gc.push_back(max_gc);
    }
    if (!r.at_end()) return std::nullopt;
    // The entries must tile [header, data_end) exactly and the footer must
    // sit where data_end says — otherwise the footer describes some other
    // file state (e.g. a partially overwritten spool) and is useless.
    if (offset != index.data_end ||
        index.data_end + total != file_size) {
      return std::nullopt;
    }
    return index;
  } catch (const LogFormatError&) {
    return std::nullopt;
  }
}

}  // namespace djvu::record
