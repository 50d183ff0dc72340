#include "record/spool_codec.h"

#include <cstring>

namespace djvu::record {
namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = kMinMatch + 0x7f;  // one control byte
constexpr std::size_t kMaxLiteralRun = 0x80;
constexpr std::size_t kHashBits = 13;
constexpr std::size_t kHashSize = std::size_t{1} << kHashBits;

std::uint32_t hash4(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

void flush_literals(ByteWriter& w, const std::uint8_t* data, std::size_t from,
                    std::size_t to) {
  while (from < to) {
    const std::size_t run = std::min(to - from, kMaxLiteralRun);
    w.u8(static_cast<std::uint8_t>(run - 1));
    w.raw(BytesView(data + from, run));
    from += run;
  }
}

}  // namespace

Bytes spool_compress(BytesView raw) {
  ByteWriter w;
  w.varint(raw.size());
  const std::uint8_t* d = raw.data();
  const std::size_t n = raw.size();
  std::size_t table[kHashSize] = {};  // position + 1; 0 = empty
  std::size_t pos = 0;
  std::size_t literal_start = 0;
  while (n >= kMinMatch && pos + kMinMatch <= n) {
    const std::uint32_t h = hash4(d + pos);
    const std::size_t cand = table[h];
    table[h] = pos + 1;
    if (cand != 0 && std::memcmp(d + cand - 1, d + pos, kMinMatch) == 0) {
      const std::size_t src = cand - 1;
      std::size_t len = kMinMatch;
      while (len < kMaxMatch && pos + len < n && d[src + len] == d[pos + len]) {
        ++len;
      }
      flush_literals(w, d, literal_start, pos);
      w.u8(static_cast<std::uint8_t>(0x80 | (len - kMinMatch)));
      w.varint(pos - src);
      pos += len;
      literal_start = pos;
    } else {
      ++pos;
    }
  }
  flush_literals(w, d, literal_start, n);
  return w.take();
}

Bytes spool_decompress(BytesView compressed) {
  ByteReader r(compressed);
  const std::uint64_t raw_size = r.varint();
  // No op emits more than kMaxMatch bytes, so a larger declared size is
  // corrupt and must not become an allocation request.
  if (raw_size > r.remaining() * kMaxMatch) {
    throw LogFormatError("spool codec: declared size exceeds the input");
  }
  Bytes out;
  out.reserve(raw_size);
  while (!r.at_end()) {
    const std::uint8_t c = r.u8();
    if (c < 0x80) {
      const std::size_t run = std::size_t{c} + 1;
      Bytes lit = r.raw(run);
      out.insert(out.end(), lit.begin(), lit.end());
    } else {
      const std::size_t len = static_cast<std::size_t>(c & 0x7f) + kMinMatch;
      const std::uint64_t dist = r.varint();
      if (dist == 0 || dist > out.size()) {
        throw LogFormatError("spool codec: back-reference outside output");
      }
      // Byte-by-byte on purpose: overlapping matches (dist < len) replicate
      // the trailing window, exactly as the compressor's extension saw it.
      std::size_t src = out.size() - static_cast<std::size_t>(dist);
      for (std::size_t i = 0; i < len; ++i) out.push_back(out[src + i]);
    }
    if (out.size() > raw_size) {
      throw LogFormatError("spool codec: output exceeds declared size");
    }
  }
  if (out.size() != raw_size) {
    throw LogFormatError("spool codec: output shorter than declared size");
  }
  return out;
}

}  // namespace djvu::record
