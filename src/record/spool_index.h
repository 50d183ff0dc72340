// The DJVUSPL1 index footer: a per-chunk table written after the finish
// chunk at seal time, making sealed spools seekable and parallel-loadable.
//
// On-disk layout, appended after the final (finish) chunk:
//
//   footer  := magic "DJVUSIDX" (8) | version u16 | body
//   body    := data_end varint      -- file offset where the footer begins
//            | file_crc u32         -- CRC-32 of bytes [0, data_end)
//            | chunk_count varint
//            | entry*
//   entry   := stored_len varint | raw_len varint | codec u8
//            | flags u8 (bit0: has_gc)
//            | [min_gc varint | (max_gc - min_gc) varint]   when has_gc
//   trailer := footer_len u32 (magic..body) | footer_crc u32
//            | magic "DJVUSIDX" (8)
//
// An entry holds what its readers read: the frame facts the parallel
// loader checks each chunk against, and the gc range seek_to_gc searches.
//
// Chunk file offsets are not stored: chunks are contiguous from the 15-byte
// file header, so offsets are reconstructed as a running sum of frame +
// stored_len at decode time and cross-checked against data_end — a footer
// whose entries do not tile [header, data_end) exactly is rejected as torn.
//
// Backward compatibility is by construction: the footer's first four bytes
// ("DJVU" little-endian = 0x55564a44) exceed the reader's 64 MiB chunk-
// length ceiling, so a pre-index reader classifies the footer region as a
// torn tail and recovers to the data prefix — which is the whole file,
// finish marker included.  New readers recognize the magic, report a clean
// end with zero truncated bytes, and locate the footer in O(1) from the
// fixed-size trailer at EOF.  A missing or torn footer (CRC/structure
// mismatch), or one of another version, simply yields "no index": every
// loader falls back to the sequential scan.  (Version 1 entries also
// carried per-chunk item-kind bits, network counts and per-thread totals
// that no reader used; such spools load through that scan.)
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/ids.h"

namespace djvu::record {

/// Magic bytes opening and closing the footer region.  The leading four
/// bytes double as the backward-compat sentinel (see file comment).
inline constexpr char kSpoolIndexMagic[8] = {'D', 'J', 'V', 'U',
                                             'S', 'I', 'D', 'X'};
inline constexpr std::uint16_t kSpoolIndexVersion = 2;

/// Fixed-size trailer at EOF: footer_len u32 + footer_crc u32 + magic 8.
inline constexpr std::size_t kSpoolIndexTrailerBytes = 4 + 4 + 8;

/// DJVUSPL1 framing shared by the writer and the readers (grammar in
/// record/log_spool.h): the file magic and version, the file header size
/// (magic 8 + version u16 + vm_id u32 + flags u8) and the chunk frame size
/// (payload_len u32 + codec u8 + crc32 u32).
inline constexpr char kSpoolMagic[8] = {'D', 'J', 'V', 'U', 'S', 'P', 'L', '1'};
inline constexpr std::uint16_t kSpoolVersion = 1;
inline constexpr std::size_t kSpoolHeaderBytes = 8 + 2 + 4 + 1;
inline constexpr std::size_t kChunkFrameBytes = 4 + 1 + 4;

/// Everything the index records about one chunk.
struct SpoolChunkInfo {
  std::uint64_t offset = 0;     ///< file offset of the chunk frame
  std::uint32_t stored_len = 0; ///< on-disk payload bytes (post-compression)
  std::uint32_t raw_len = 0;    ///< decoded payload bytes
  std::uint8_t codec = 0;       ///< record::SpoolCodec value

  /// gc range covered by the chunk's schedule, trace and anchor items
  /// (absent for chunks holding only network/causal/finish items).
  bool has_gc = false;
  GlobalCount min_gc = 0;
  GlobalCount max_gc = 0;

  /// Widens the gc range to cover [lo, hi].
  void cover(GlobalCount lo, GlobalCount hi);

  friend bool operator==(const SpoolChunkInfo&,
                         const SpoolChunkInfo&) = default;
};

/// The decoded footer: one entry per chunk plus whole-file integrity data.
struct SpoolIndex {
  std::vector<SpoolChunkInfo> chunks;

  /// File offset where the footer begins == end of the last chunk.
  std::uint64_t data_end = 0;

  /// CRC-32 of bytes [0, data_end).
  std::uint32_t file_crc = 0;

  /// prefix_max_gc[i] = max over chunks [0, i] of max_gc, computed when
  /// the footer is read.  Per-chunk gc ranges are not monotone (threads
  /// interleave across chunks), but this prefix maximum is — it is what
  /// chunk_covering binary-searches.
  std::vector<GlobalCount> prefix_max_gc;

  /// The first chunk whose prefix-max gc reaches `gc`: every item covering
  /// a position >= gc lives in this chunk or later, so decoding forward
  /// from it sees the covering interval.  nullopt when gc lies beyond the
  /// whole recording.  O(log chunks).
  std::optional<std::size_t> chunk_covering(GlobalCount gc) const;
};

/// Encodes the complete footer region (magic, version, body, trailer),
/// ready to append verbatim after the finish chunk.
Bytes encode_spool_footer(const SpoolIndex& index);

/// Attempts to read a footer from an open spool file.  Preads the trailer
/// at EOF, validates magics, lengths and the footer CRC, decodes the body,
/// and cross-checks that the entries tile [header, data_end) exactly.  Any
/// mismatch — plain absence, another version, a flag bit other than
/// has_gc, a gc range past GlobalCount — returns nullopt (the caller falls
/// back to a sequential scan); nothing throws for a torn footer.  Restores
/// the file position before returning.
std::optional<SpoolIndex> read_spool_footer(std::FILE* file,
                                            std::uint64_t file_size);

}  // namespace djvu::record
