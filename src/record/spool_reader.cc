// The read side of DJVUSPL1 spools: LogSource, the loaders, anchor
// readback and post-mortem flight-tail assembly (the writer and the item
// codecs live in log_spool.cc).

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <thread>

#include "common/cpus.h"
#include "common/crc32.h"
#include "common/file_io.h"
#include "record/log_spool.h"
#include "record/spool_codec.h"

namespace djvu::record {
namespace {

/// A declared chunk length beyond this is treated as a torn tail, not an
/// allocation request (a torn length field can claim anything).
constexpr std::uint32_t kMaxChunkLen = 64u << 20;

}  // namespace

// --- DJVUSPL1 read checks ---------------------------------------------------
//
// Every reader of a spool — LogSource's sequential scan, the indexed
// loader's workers and the flight-tail assembly — validates the file header
// and each chunk through the two functions below, so the framing is checked
// in exactly one place.

namespace {

/// Parses the kSpoolHeaderBytes file header at `p` and returns its vm_id;
/// throws LogFormatError for a foreign magic or an unsupported version.
/// (The flags byte is informational: each chunk frame names its codec.)
DjvmId parse_spool_header(const std::uint8_t* p, const std::string& path) {
  if (std::memcmp(p, kSpoolMagic, 8) != 0) {
    throw LogFormatError("bad magic: not a DJVUSPL file: " + path);
  }
  ByteReader r(BytesView(p + 8, kSpoolHeaderBytes - 8));
  const std::uint16_t version = r.u16();
  if (version != kSpoolVersion) {
    throw LogFormatError("unsupported spool version " +
                         std::to_string(version));
  }
  return r.u32();
}

/// The payload length a chunk frame declares, or nullopt past kMaxChunkLen.
std::optional<std::uint32_t> chunk_payload_len(const std::uint8_t* frame) {
  const std::uint32_t len = ByteReader(BytesView(frame, 4)).u32();
  if (len > kMaxChunkLen) return std::nullopt;
  return len;
}

/// True for the item kinds a reader accepts.  Retired kind 5 is not one.
bool known_item_kind(std::uint8_t kind) {
  switch (static_cast<SpoolItemKind>(kind)) {
    case SpoolItemKind::kSchedule:
    case SpoolItemKind::kNetwork:
    case SpoolItemKind::kTrace:
    case SpoolItemKind::kFinish:
    case SpoolItemKind::kCausalDelta:
    case SpoolItemKind::kAnchor:
      return true;
  }
  return false;
}

/// One item of a checked chunk: its kind and a view of its body.
struct ItemView {
  SpoolItemKind kind = SpoolItemKind::kSchedule;
  BytesView body;
};

/// A chunk that passed check_chunk.  The item views point into `payload`,
/// whose buffer a move of the chunk keeps in place.
struct CheckedChunk {
  std::uint8_t codec = 0;
  /// CRC-32 of the stored payload, verified against the frame.  Callers
  /// extend a whole-file CRC with it instead of hashing the bytes again.
  std::uint32_t stored_crc = 0;
  Bytes payload;  ///< decoded payload bytes
  std::vector<ItemView> items;
};

/// Checks one framed chunk: the kChunkFrameBytes frame followed by exactly
/// its stored payload.  nullopt means torn — the buffer is short, or the
/// declared length or CRC disagrees with the bytes, which is all a crash
/// mid-write can leave.  Past the CRC the payload is certified, so a codec,
/// decompression or item-framing failure is a writer bug or version skew
/// and throws LogFormatError instead of passing for a tear.
std::optional<CheckedChunk> check_chunk(BytesView framed) {
  if (framed.size() < kChunkFrameBytes) return std::nullopt;
  const std::optional<std::uint32_t> len = chunk_payload_len(framed.data());
  const BytesView stored = framed.subspan(kChunkFrameBytes);
  ByteReader frame(framed.subspan(4, kChunkFrameBytes - 4));
  CheckedChunk chunk;
  chunk.codec = frame.u8();
  chunk.stored_crc = frame.u32();
  if (!len || *len != stored.size() || crc32(stored) != chunk.stored_crc) {
    return std::nullopt;
  }
  if (chunk.codec == static_cast<std::uint8_t>(SpoolCodec::kLz)) {
    chunk.payload = spool_decompress(stored);
  } else if (chunk.codec == static_cast<std::uint8_t>(SpoolCodec::kRaw)) {
    chunk.payload.assign(stored.begin(), stored.end());
  } else {
    throw LogFormatError("unknown spool chunk codec " +
                         std::to_string(chunk.codec));
  }
  const BytesView payload = chunk.payload;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    ByteReader r(payload.subspan(pos));
    const std::uint8_t kind = r.u8();
    if (!known_item_kind(kind)) {
      throw LogFormatError("unknown spool item kind " + std::to_string(kind));
    }
    const std::uint64_t body_len = r.varint();
    if (body_len > r.remaining()) {
      throw LogFormatError("spool item overruns its chunk");
    }
    pos += r.position();
    chunk.items.push_back({static_cast<SpoolItemKind>(kind),
                           payload.subspan(pos, body_len)});
    pos += body_len;
  }
  return chunk;
}

}  // namespace

// --- LogSource --------------------------------------------------------------

LogSource::LogSource(const std::string& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    throw Error("cannot open " + path + " for reading");
  }
  std::fseek(file_, 0, SEEK_END);
  file_size_ = static_cast<std::uint64_t>(std::ftell(file_));
  std::fseek(file_, 0, SEEK_SET);

  std::uint8_t header[kSpoolHeaderBytes];
  try {
    if (std::fread(header, 1, kSpoolHeaderBytes, file_) != kSpoolHeaderBytes) {
      throw LogFormatError("file too small to hold a spool header: " + path);
    }
    vm_id_ = parse_spool_header(header, path);
  } catch (...) {
    std::fclose(file_);
    file_ = nullptr;
    throw;
  }
  // Seed the whole-file CRC with the header exactly as it lies on disk.
  stream_crc_.update(BytesView(header, kSpoolHeaderBytes));
  header_crc_ = stream_crc_.value();
}

LogSource::~LogSource() {
  if (file_ != nullptr) std::fclose(file_);
}

const SpoolIndex* LogSource::index() {
  if (!tried_footer_) {
    tried_footer_ = true;
    index_ = read_spool_footer(file_, file_size_);
  }
  return index_ ? &*index_ : nullptr;
}

bool LogSource::seek_to_gc(GlobalCount gc) {
  const SpoolIndex* idx = index();
  const std::optional<std::size_t> chunk =
      idx != nullptr ? idx->chunk_covering(gc) : std::nullopt;
  items_.clear();
  item_pos_ = 0;
  if (!chunk) {
    done_ = true;
    return false;
  }
  std::clearerr(file_);
  if (std::fseek(file_, static_cast<long>(idx->chunks[*chunk].offset),
                 SEEK_SET) != 0) {
    throw Error("seek failed in " + path_);
  }
  done_ = false;
  clean_end_ = false;
  truncated_bytes_ = 0;
  chunks_read_ = *chunk;
  seeked_ = true;
  return true;
}

bool LogSource::read_chunk() {
  const auto start = static_cast<std::uint64_t>(std::ftell(file_));
  Bytes framed(kChunkFrameBytes);
  const std::size_t got = std::fread(framed.data(), 1, kChunkFrameBytes, file_);
  if (got == 0) return false;  // clean EOF at a chunk boundary
  if (got >= 8 && std::memcmp(framed.data(), kSpoolIndexMagic, 8) == 0) {
    // The index footer begins here: end of data, not a torn tail.  (A
    // pre-index reader meets an absurd length here instead — the footer's
    // leading bytes exceed kMaxChunkLen — and recovers to this same prefix.)
    footer_seen_ = true;
    return false;
  }
  std::optional<CheckedChunk> chunk;
  if (got == kChunkFrameBytes) {
    if (const std::optional<std::uint32_t> len =
            chunk_payload_len(framed.data())) {
      framed.resize(kChunkFrameBytes + *len);
      if (std::fread(framed.data() + kChunkFrameBytes, 1, *len, file_) ==
          *len) {
        chunk = check_chunk(framed);
      }
    }
  }
  if (!chunk) {
    truncated_bytes_ = file_size_ - start;
    return false;
  }
  // Accepted: feed the whole-file CRC (a seek breaks byte coverage, so
  // the stream CRC is only meaningful unseeked).  The payload enters by the
  // CRC check_chunk verified, not by a rehash.
  ++chunks_read_;
  if (!seeked_) {
    stream_crc_.update(BytesView(framed).first(kChunkFrameBytes));
    stream_crc_.append(chunk->stored_crc, framed.size() - kChunkFrameBytes);
  }
  items_.clear();
  for (const ItemView& item : chunk->items) {
    items_.push_back({item.kind, Bytes(item.body.begin(), item.body.end())});
  }
  item_pos_ = 0;
  return true;
}

std::optional<SpoolItem> LogSource::next() {
  if (done_) return std::nullopt;
  while (item_pos_ >= items_.size()) {
    if (!read_chunk()) {
      done_ = true;
      return std::nullopt;
    }
  }
  SpoolItem item = std::move(items_[item_pos_++]);
  if (item.kind == SpoolItemKind::kFinish) {
    // The finish marker is the last item of a recording.  A CRC-valid
    // chunk after it is corruption; a torn tail after it is appended
    // garbage the prefix semantics simply drop.
    if (item_pos_ < items_.size() || read_chunk()) {
      throw LogFormatError("spool data after finish marker in " + path_);
    }
    done_ = true;
    clean_end_ = true;
    if (footer_seen_ && !seeked_) {
      // An unseeked stream covered every data byte: check it against the
      // footer's whole-file CRC.  Per-chunk CRCs certify each payload;
      // this additionally certifies the header and the framing bytes.
      const SpoolIndex* idx = index();
      if (idx != nullptr && stream_crc_.value() != idx->file_crc) {
        throw LogFormatError("spool whole-file CRC mismatch in " + path_);
      }
    }
  }
  return item;
}

// --- loaders ----------------------------------------------------------------

namespace {

/// Grows `per_thread` to at least `count` slots.  64-bit arithmetic, so
/// thread 0xFFFFFFFF + 1 cannot wrap to 0.
template <class PerThread>
void grow_threads(PerThread& per_thread, std::uint64_t count) {
  if (count > kMaxLogThreads) {
    throw LogFormatError("spool names " + std::to_string(count) +
                         " threads, beyond any recording");
  }
  if (per_thread.size() < count) {
    per_thread.resize(static_cast<std::size_t>(count));
  }
}

/// Appends one batch to `thread`'s list.  Batches of one thread arrive in
/// program order (drained by the owning thread through a FIFO channel), so
/// appending reconstructs the recorder's list exactly.
template <class PerThread, class List>
void append_thread(PerThread& per_thread, std::uint64_t thread,
                   const List& list) {
  grow_threads(per_thread, thread + 1);
  auto& dst = per_thread[static_cast<std::size_t>(thread)];
  dst.insert(dst.end(), list.begin(), list.end());
}

/// The one place items become VmLog (and trace) state.
void fold_item(SpoolItemKind kind, BytesView body, VmLog& log,
               TraceFile* trace) {
  switch (kind) {
    case SpoolItemKind::kSchedule: {
      auto [thread, list] = decode_schedule_item(body);
      append_thread(log.schedule.per_thread, thread, list);
      break;
    }
    case SpoolItemKind::kNetwork: {
      auto [thread, entry] = decode_network_item(body);
      const EventNum event_num = entry.event_num;
      if (!log.network.insert(thread, std::move(entry))) {
        throw LogFormatError(duplicate_entry_message(thread, event_num));
      }
      break;
    }
    case SpoolItemKind::kTrace: {
      if (trace == nullptr) break;  // replay path: skip trace bodies
      decode_trace_item(body, trace->records);
      break;
    }
    case SpoolItemKind::kCausalDelta: {
      auto [thread, seqs] = decode_causal_delta_item(body);
      append_thread(log.causal.per_thread, thread, seqs);
      break;
    }
    case SpoolItemKind::kFinish: {
      const SpoolFinish finish = decode_finish_item(body);
      log.stats = finish.stats;
      grow_threads(log.schedule.per_thread, finish.thread_count);
      if (!log.causal.per_thread.empty()) {
        grow_threads(log.causal.per_thread, finish.thread_count);
      }
      break;
    }
    case SpoolItemKind::kAnchor:
      // Checkpoint anchors position the tail for Checkpointer-based resume
      // (read_spool_anchors); the VmLog itself carries no anchor state.
      break;
  }
}

/// One chunk's share of an indexed load: its items folded into a partial
/// log and trace, the items the driver folds itself, and the CRC and
/// length of the chunk's on-disk bytes for the whole-file check.
struct ChunkPart {
  VmLog log;
  TraceFile trace;
  /// Network and finish items, left for the driver to fold in chunk order:
  /// network entries land in a map that partial logs could only merge by
  /// inserting every entry a second time, and the finish item must fold
  /// last.  Empty when the chunk has neither.
  CheckedChunk deferred;
  std::uint32_t crc = 0;
  std::uint64_t len = 0;
};

/// Reads chunk `info` at its footer offset, checks it (check_chunk plus
/// agreement with the footer entry) and folds it into `part`.  A finish
/// item is accepted only as the last item of the last chunk, the place the
/// sequential reader insists on.  Throws on any disagreement; the driver
/// turns that into the sequential fallback, which reports the
/// authoritative error.
void load_chunk(std::FILE* file, const SpoolChunkInfo& info, bool last_chunk,
                bool want_trace, ChunkPart& part) {
  Bytes framed(kChunkFrameBytes + info.stored_len);
  if (std::fseek(file, static_cast<long>(info.offset), SEEK_SET) != 0 ||
      std::fread(framed.data(), 1, framed.size(), file) != framed.size()) {
    throw LogFormatError("chunk truncated under footer");
  }
  std::optional<CheckedChunk> chunk = check_chunk(framed);
  if (!chunk || chunk->codec != info.codec ||
      chunk->payload.size() != info.raw_len) {
    throw LogFormatError("chunk disagrees with footer");
  }
  Crc32 crc;
  crc.update(BytesView(framed).first(kChunkFrameBytes));
  crc.append(chunk->stored_crc, info.stored_len);
  part.crc = crc.value();
  part.len = framed.size();
  std::vector<ItemView> deferred;
  for (std::size_t i = 0; i < chunk->items.size(); ++i) {
    const ItemView& item = chunk->items[i];
    const bool finish = item.kind == SpoolItemKind::kFinish;
    if (finish && !(last_chunk && i + 1 == chunk->items.size())) {
      throw LogFormatError("finish marker before the end of the data");
    }
    if (finish || item.kind == SpoolItemKind::kNetwork) {
      deferred.push_back(item);
    } else {
      fold_item(item.kind, item.body, part.log,
                want_trace ? &part.trace : nullptr);
    }
  }
  if (!deferred.empty()) {
    chunk->items = std::move(deferred);
    part.deferred = std::move(*chunk);  // the views move with the payload
  }
}

/// The indexed load of a footer'd spool: workers (min(cores, 8, chunks),
/// each with its own FILE*) check and fold chunks into per-chunk parts,
/// the whole-file CRC is stitched from the parts' CRCs with crc32_combine,
/// and the parts are appended in chunk order, each followed by its
/// deferred items.  Every list and map then grows in the sequential
/// scan's order and the finish item folds last, so the result is
/// bit-identical to the sequential load.  The trace parts are gathered
/// straight into sort_by_gc's order (sched::gather_by_gc) in chunk order,
/// which is the order the sequential scan appends them in.  nullopt on any
/// anomaly; the caller falls back to the sequential scan.
std::optional<VmLog> load_indexed(const std::string& path,
                                  const LogSource& source,
                                  const SpoolIndex& index, TraceFile* trace) {
  const std::size_t n = index.chunks.size();
  std::vector<ChunkPart> parts(n);
  std::atomic<std::size_t> next_chunk{0};
  std::atomic<bool> failed{false};
  const auto work = [&] {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
      failed.store(true, std::memory_order_relaxed);
      return;
    }
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        load_chunk(file, index.chunks[i], i + 1 == n, trace != nullptr,
                   parts[i]);
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
      }
    }
    std::fclose(file);
  };
  const std::size_t workers = std::min<std::size_t>({usable_cpus(), 8, n});
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) {
    try {
      pool.emplace_back(work);
    } catch (const std::system_error&) {
      break;  // fewer workers; the ones running still take every chunk
    }
  }
  work();
  for (std::thread& t : pool) t.join();
  const std::vector<ItemView>& tail = parts.back().deferred.items;
  if (failed.load(std::memory_order_relaxed) || tail.empty() ||
      tail.back().kind != SpoolItemKind::kFinish) {
    return std::nullopt;
  }

  // Whole-file CRC without a second sequential pass: combine the per-chunk
  // CRCs onto the header's in file order (common/crc32.h crc32_combine).
  std::uint32_t crc = source.header_crc();
  for (const ChunkPart& part : parts) {
    crc = crc32_combine(crc, part.crc, part.len);
  }
  if (crc != index.file_crc) return std::nullopt;

  const auto append_lists = [](auto& per_thread, const auto& part_lists) {
    for (std::size_t t = 0; t < part_lists.size(); ++t) {
      append_thread(per_thread, t, part_lists[t]);
    }
  };
  VmLog log;
  log.vm_id = source.vm_id();
  std::vector<std::vector<sched::TraceRecord>> trace_parts;
  trace_parts.reserve(trace != nullptr ? n : 0);
  try {
    for (ChunkPart& part : parts) {
      append_lists(log.schedule.per_thread, part.log.schedule.per_thread);
      append_lists(log.causal.per_thread, part.log.causal.per_thread);
      if (trace != nullptr) {
        trace_parts.push_back(std::move(part.trace.records));
      }
      for (const ItemView& item : part.deferred.items) {
        fold_item(item.kind, item.body, log, nullptr);
      }
    }
  } catch (const Error&) {
    return std::nullopt;  // e.g. a network entry duplicated across chunks
  }
  if (trace != nullptr) trace->records = sched::gather_by_gc(trace_parts);
  return log;
}

VmLog stream_spool(const std::string& path, TraceFile* trace, bool* clean_end,
                   std::uint64_t* truncated_bytes) {
  LogSource source(path);
  if (trace != nullptr) trace->vm_id = source.vm_id();
  // The footer selects the indexed load.  It only succeeds for a
  // finish-marked, CRC-verified file: a clean end with nothing torn.
  const SpoolIndex* index = source.index();
  if (index != nullptr && !index->chunks.empty()) {
    if (std::optional<VmLog> log = load_indexed(path, source, *index, trace)) {
      if (clean_end != nullptr) *clean_end = true;
      if (truncated_bytes != nullptr) *truncated_bytes = 0;
      return std::move(*log);
    }
  }
  VmLog log;
  log.vm_id = source.vm_id();
  while (std::optional<SpoolItem> item = source.next()) {
    fold_item(item->kind, item->body, log, trace);
  }
  if (!source.clean_end()) {
    // Recovered prefix: no finish item.  The intervals are the exact set of
    // events replaying the prefix will execute, so their count is the
    // correct counter target; network_events is unknowable without the
    // trace and stays 0.
    log.stats.critical_events = log.schedule.event_count();
  }
  if (trace != nullptr) sched::sort_by_gc(trace->records);
  if (clean_end != nullptr) *clean_end = source.clean_end();
  if (truncated_bytes != nullptr) *truncated_bytes = source.truncated_bytes();
  return log;
}

}  // namespace

SpoolContents load_spool(const std::string& path) {
  SpoolContents contents;
  contents.log = stream_spool(path, &contents.trace, &contents.clean_end,
                              &contents.truncated_bytes);
  return contents;
}

VmLog load_spooled_log(const std::string& path, bool* clean_end,
                       std::uint64_t* truncated_bytes) {
  return stream_spool(path, nullptr, clean_end, truncated_bytes);
}

// --- flight-recorder retention ring (offline side) --------------------------

FlightTailInfo assemble_flight_tail(const std::string& spool_path) {
  namespace fs = std::filesystem;
  FlightTailInfo out;
  const std::string dir = flight_ring_dir(spool_path);
  const std::string header_path = dir + "/header";
  std::error_code ec;
  if (!fs::exists(header_path, ec)) return out;  // sealed normally (or never
                                                 // a flight spool)

  Bytes header = read_file(header_path);
  if (header.size() < kSpoolHeaderBytes) {
    throw LogFormatError("torn flight ring header: " + header_path);
  }
  header.resize(kSpoolHeaderBytes);
  parse_spool_header(header.data(), header_path);

  std::vector<std::pair<std::uint64_t, std::string>> chunks;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= 6 || name.substr(name.size() - 6) != ".chunk") continue;
    chunks.emplace_back(
        std::strtoull(name.c_str(), nullptr, 10), entry.path().string());
  }
  std::sort(chunks.begin(), chunks.end());

  std::FILE* outf = std::fopen(spool_path.c_str(), "wb");
  if (outf == nullptr) {
    throw Error("cannot open " + spool_path + " for writing");
  }
  bool ok = std::fwrite(header.data(), 1, header.size(), outf) ==
            header.size();
  bool torn = false;
  for (const auto& [seq, path] : chunks) {
    if (!ok) break;
    const std::uint64_t size = fs::file_size(path, ec);
    if (torn) {
      // Everything after the first torn chunk is dropped with it: the tail
      // must stay a contiguous prefix of sealed chunks.
      out.truncated_bytes += size;
      continue;
    }
    Bytes buf;
    bool valid = false;
    try {
      buf = read_file(path);
      valid = check_chunk(buf).has_value();
    } catch (const Error&) {
      // Unreadable, or certified but undecodable: no loader would take it.
    }
    if (!valid) {
      // A chunk file mid-fwrite at crash time: recover-to-prefix at chunk
      // granularity, surfaced (not silently absorbed) via truncated_bytes.
      torn = true;
      out.truncated_bytes += size;
      continue;
    }
    ok = std::fwrite(buf.data(), 1, buf.size(), outf) == buf.size();
    ++out.chunks;
  }
  ok = ok && std::fflush(outf) == 0;
  std::fclose(outf);
  if (!ok) throw Error("flight tail assembly write failed: " + spool_path);
  fs::remove_all(dir, ec);
  out.assembled = true;
  return out;
}

std::vector<SpoolAnchor> read_spool_anchors(const std::string& path) {
  LogSource source(path);
  std::vector<SpoolAnchor> anchors;
  while (std::optional<SpoolItem> item = source.next()) {
    if (item->kind == SpoolItemKind::kAnchor) {
      anchors.push_back(decode_anchor_item(item->body));
    }
  }
  return anchors;
}

}  // namespace djvu::record
