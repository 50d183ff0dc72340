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
//   entry   := stored_len varint | raw_len varint | codec u8 | kinds u8
//            | flags u8 (bit0: has_gc)
//            | [min_gc varint | (max_gc - min_gc) varint]   when has_gc
//            | thread_count varint
//            | { thread varint | intervals varint | sched_events varint
//              | causal_entries varint }*
//   trailer := footer_len u32 (magic..body) | footer_crc u32
//            | magic "DJVUSIDX" (8)
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
// mismatch) simply yields "no index": every loader falls back to the
// sequential scan.
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
inline constexpr std::uint16_t kSpoolIndexVersion = 1;

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

/// Bit for one item kind in a chunk's kind bitmap (kind is the DJVUSPL1
/// SpoolItemKind value, 1-based).
inline constexpr std::uint8_t spool_kind_bit(std::uint8_t kind) {
  return static_cast<std::uint8_t>(1u << (kind - 1));
}

/// Per-thread item totals within one chunk.
struct SpoolThreadCounts {
  ThreadNum thread = 0;
  std::uint64_t intervals = 0;       ///< schedule intervals
  std::uint64_t sched_events = 0;    ///< critical events those intervals span
  std::uint64_t causal_entries = 0;  ///< causal per-key seqs

  friend bool operator==(const SpoolThreadCounts&,
                         const SpoolThreadCounts&) = default;
};

/// Everything the index records about one chunk.
struct SpoolChunkInfo {
  std::uint64_t offset = 0;     ///< file offset of the chunk frame
  std::uint32_t stored_len = 0; ///< on-disk payload bytes (post-compression)
  std::uint32_t raw_len = 0;    ///< decoded payload bytes
  std::uint8_t codec = 0;       ///< record::SpoolCodec value
  std::uint8_t kinds = 0;       ///< OR of spool_kind_bit per item kind seen

  /// gc range covered by the chunk's schedule/trace items (absent for
  /// chunks holding only network/causal/finish items).
  bool has_gc = false;
  GlobalCount min_gc = 0;
  GlobalCount max_gc = 0;

  /// Non-schedule-relevant items (network entries) in this chunk.
  std::uint64_t network_items = 0;

  /// Per-thread totals, thread-ascending.
  std::vector<SpoolThreadCounts> threads;

  friend bool operator==(const SpoolChunkInfo&,
                         const SpoolChunkInfo&) = default;
};

/// What one spool item adds to its chunk's index entry.  The facts helpers
/// beside the item codecs (record/log_spool.h) build it: the spool writer
/// from the values its producers already hold, build_spool_index from the
/// decoded body.
struct SpoolItemFacts {
  /// Per-thread counts of schedule and causal items (their owning thread).
  std::optional<SpoolThreadCounts> thread;
  std::uint64_t network_items = 0;
  /// gc range of schedule, trace and anchor items.
  bool has_gc = false;
  GlobalCount min_gc = 0;
  GlobalCount max_gc = 0;
};

/// Folds item facts into one chunk's SpoolChunkInfo: the one derivation of
/// an index entry, shared by the spool writer and build_spool_index.
class SpoolChunkFolder {
 public:
  /// Adds one item of DJVUSPL1 kind `kind`.
  void add(std::uint8_t kind, const SpoolItemFacts& item);

  /// The entry folded so far, with the chunk's frame facts (offset left 0:
  /// the caller knows where the chunk lands).  Resets the folder.
  SpoolChunkInfo take(std::uint32_t stored_len, std::uint32_t raw_len,
                      std::uint8_t codec);

 private:
  SpoolChunkInfo info_;  ///< threads kept ascending as items fold in
};

/// The decoded index: one entry per chunk plus whole-file integrity data.
/// Obtained from the footer (from_footer) or rebuilt by a sequential scan
/// (record::build_spool_index) when the footer is missing or torn.
struct SpoolIndex {
  std::vector<SpoolChunkInfo> chunks;

  /// File offset where the footer begins == end of the last chunk.
  std::uint64_t data_end = 0;

  /// CRC-32 of bytes [0, data_end).  0 (unchecked) for rebuilt indexes.
  std::uint32_t file_crc = 0;

  /// True when decoded from an on-disk footer (file_crc is then
  /// authoritative); false for indexes rebuilt by scanning.
  bool from_footer = false;

  /// finalize() precomputes this: prefix_max_gc[i] = max over chunks
  /// [0, i] of max_gc.  Per-chunk gc ranges are not monotone (threads
  /// interleave across chunks), but this prefix maximum is — it is what
  /// chunk_covering binary-searches.
  std::vector<GlobalCount> prefix_max_gc;

  /// Recomputes prefix_max_gc; call after mutating chunks.
  void finalize();

  /// The first chunk whose prefix-max gc reaches `gc`: every item covering
  /// a position >= gc lives in this chunk or later, so decoding forward
  /// from it sees the covering interval.  nullopt when gc lies beyond the
  /// whole recording.  O(log chunks).
  std::optional<std::size_t> chunk_covering(GlobalCount gc) const;

  /// Aggregates per-thread totals across all chunks (thread-ascending).
  std::vector<SpoolThreadCounts> totals_by_thread() const;
};

/// Encodes the complete footer region (magic, version, body, trailer),
/// ready to append verbatim after the finish chunk.
Bytes encode_spool_footer(const SpoolIndex& index);

/// Attempts to read a footer from an open spool file.  Preads the trailer
/// at EOF, validates magics, lengths and the footer CRC, decodes the body,
/// and cross-checks that the entries tile [header, data_end) exactly.  Any
/// mismatch — including plain absence — returns nullopt (the caller falls
/// back to a sequential scan); nothing throws for a torn footer.  Restores
/// the file position before returning.
std::optional<SpoolIndex> read_spool_footer(std::FILE* file,
                                            std::uint64_t file_size);

}  // namespace djvu::record
