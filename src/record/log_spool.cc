#include "record/log_spool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "common/crc32.h"
#include "record/serializer.h"
#include "record/spool_codec.h"

namespace djvu::record {
namespace {

constexpr char kSpoolMagic[8] = {'D', 'J', 'V', 'U', 'S', 'P', 'L', '1'};
constexpr char kTraceMagic[8] = {'D', 'J', 'V', 'U', 'T', 'R', 'C', '1'};
constexpr std::uint16_t kSpoolVersion = 1;
constexpr std::uint16_t kTraceVersion = 1;

/// Queue accounting charge per item beyond its body (deque node, kind,
/// flags) — keeps the bounded-buffer arithmetic byte-honest.
constexpr std::size_t kItemOverhead = 16;

/// Chunk frame: payload_len u32 + codec u8 + crc32 u32.
constexpr std::size_t kChunkFrameBytes = 4 + 1 + 4;

/// Fixed file header: magic 8 + version 2 + vm_id 4 + flags 1.
constexpr std::size_t kSpoolHeaderBytes = 8 + 2 + 4 + 1;

/// A declared chunk length beyond this is treated as a torn tail, not an
/// allocation request (a torn length field can claim anything).
constexpr std::uint32_t kMaxChunkLen = 64u << 20;

/// Records per synthesized kTrace item when streaming a DJVUTRC1 file.
constexpr std::size_t kTraceFileBatch = 512;

std::uint32_t le32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
         (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}

void store_max_relaxed(std::atomic<std::uint64_t>& slot, std::uint64_t v) {
  // Single-writer slots only (updated under the queue lock): a plain
  // load/compare/store max, relaxed because readers only sample.
  if (v > slot.load(std::memory_order_relaxed)) {
    slot.store(v, std::memory_order_relaxed);
  }
}

}  // namespace

// --- item body codecs -------------------------------------------------------

Bytes encode_schedule_item(ThreadNum thread,
                           const sched::IntervalList& intervals) {
  ByteWriter w;
  w.varint(thread);
  w.varint(intervals.size());
  GlobalCount prev_end = 0;  // deltas restart per item (self-contained)
  for (const auto& lsi : intervals) {
    w.varint(lsi.first - prev_end);
    w.varint(lsi.last - lsi.first);
    prev_end = lsi.last;
  }
  return w.take();
}

std::pair<ThreadNum, sched::IntervalList> decode_schedule_item(BytesView body) {
  ByteReader r(body);
  const auto thread = static_cast<ThreadNum>(r.varint());
  const std::uint64_t n = r.varint();
  sched::IntervalList list;
  list.reserve(n);
  GlobalCount prev_end = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const GlobalCount first = prev_end + r.varint();
    const GlobalCount last = first + r.varint();
    list.push_back({first, last});
    prev_end = last;
  }
  if (!r.at_end()) throw LogFormatError("trailing bytes in schedule item");
  return {thread, std::move(list)};
}

Bytes encode_network_item(ThreadNum thread, const NetworkLogEntry& entry) {
  ByteWriter w;
  w.varint(thread);
  write_network_entry(w, entry);
  return w.take();
}

std::pair<ThreadNum, NetworkLogEntry> decode_network_item(BytesView body) {
  ByteReader r(body);
  const auto thread = static_cast<ThreadNum>(r.varint());
  NetworkLogEntry entry = read_network_entry(r);
  if (!r.at_end()) throw LogFormatError("trailing bytes in network item");
  return {thread, std::move(entry)};
}

Bytes encode_trace_item(const std::vector<sched::TraceRecord>& records) {
  // Writer-thread hot path (trace batches are serialized there): reserving
  // for the common small-delta case keeps it to a few ns per record where
  // the generic ByteWriter costs several times that in per-byte capacity
  // checks.
  Bytes out;
  out.reserve(records.size() * 14 + 10);
  auto put_varint = [&out](std::uint64_t v) {
    while (v >= 0x80) {
      out.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
  };
  put_varint(records.size());
  GlobalCount prev = 0;  // one thread's batch: gc ascending, deltas tight
  for (const auto& rec : records) {
    put_varint(rec.gc - prev);
    prev = rec.gc;
    put_varint(rec.thread);
    out.push_back(static_cast<std::uint8_t>(rec.kind));
    std::uint64_t aux = rec.aux;
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<std::uint8_t>(aux));
      aux >>= 8;
    }
  }
  return out;
}

std::vector<sched::TraceRecord> decode_trace_item(BytesView body) {
  ByteReader r(body);
  const std::uint64_t n = r.varint();
  std::vector<sched::TraceRecord> records;
  records.reserve(n);
  GlobalCount gc = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    sched::TraceRecord rec;
    gc += r.varint();
    rec.gc = gc;
    rec.thread = static_cast<ThreadNum>(r.varint());
    rec.kind = static_cast<sched::EventKind>(r.u8());
    rec.aux = r.u64();
    records.push_back(rec);
  }
  if (!r.at_end()) throw LogFormatError("trailing bytes in trace item");
  return records;
}

Bytes encode_finish_item(const SpoolFinish& finish) {
  ByteWriter w;
  w.varint(finish.stats.critical_events);
  w.varint(finish.stats.network_events);
  w.varint(finish.thread_count);
  return w.take();
}

SpoolFinish decode_finish_item(BytesView body) {
  ByteReader r(body);
  SpoolFinish finish;
  finish.stats.critical_events = r.varint();
  finish.stats.network_events = r.varint();
  finish.thread_count = static_cast<std::uint32_t>(r.varint());
  if (!r.at_end()) throw LogFormatError("trailing bytes in finish item");
  return finish;
}

Bytes encode_causal_item(ThreadNum thread,
                         const std::vector<std::uint64_t>& seqs) {
  // Raw varints, the pre-delta encoding: kept for byte-compatibility tests
  // and old spools; writers emit kCausalDelta now.
  ByteWriter w;
  w.varint(thread);
  w.varint(seqs.size());
  for (std::uint64_t s : seqs) w.varint(s);
  return w.take();
}

std::pair<ThreadNum, std::vector<std::uint64_t>> decode_causal_item(
    BytesView body) {
  ByteReader r(body);
  const auto thread = static_cast<ThreadNum>(r.varint());
  const std::uint64_t n = r.varint();
  std::vector<std::uint64_t> seqs;
  seqs.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) seqs.push_back(r.varint());
  if (!r.at_end()) throw LogFormatError("trailing bytes in causal item");
  return {thread, std::move(seqs)};
}

Bytes encode_causal_delta_item(ThreadNum thread,
                               const std::vector<std::uint64_t>& seqs) {
  // First seq absolute, the rest zigzag-encoded deltas: one thread's
  // stream interleaves keys, so deltas are small-but-signed — zigzag keeps
  // the occasional step backwards cheap instead of 10 bytes.
  ByteWriter w;
  w.varint(thread);
  w.varint(seqs.size());
  if (!seqs.empty()) {
    w.varint(seqs.front());
    for (std::size_t i = 1; i < seqs.size(); ++i) {
      w.varint(zigzag_encode(static_cast<std::int64_t>(seqs[i] - seqs[i - 1])));
    }
  }
  return w.take();
}

std::pair<ThreadNum, std::vector<std::uint64_t>> decode_causal_delta_item(
    BytesView body) {
  ByteReader r(body);
  const auto thread = static_cast<ThreadNum>(r.varint());
  const std::uint64_t n = r.varint();
  std::vector<std::uint64_t> seqs;
  seqs.reserve(n);
  if (n > 0) {
    std::uint64_t prev = r.varint();
    seqs.push_back(prev);
    for (std::uint64_t i = 1; i < n; ++i) {
      prev += static_cast<std::uint64_t>(zigzag_decode(r.varint()));
      seqs.push_back(prev);
    }
  }
  if (!r.at_end()) throw LogFormatError("trailing bytes in causal item");
  return {thread, std::move(seqs)};
}

Bytes encode_anchor_item(const SpoolAnchor& anchor) {
  ByteWriter w;
  w.varint(anchor.phase);
  w.varint(anchor.gc);
  w.varint(anchor.threads_created);
  w.varint(anchor.main_event_num);
  w.varint(anchor.state.size());
  for (const auto& [name, data] : anchor.state) {
    w.str(name);
    w.bytes(data);
  }
  return w.take();
}

SpoolAnchor decode_anchor_item(BytesView body) {
  ByteReader r(body);
  SpoolAnchor anchor;
  anchor.phase = static_cast<std::uint32_t>(r.varint());
  anchor.gc = r.varint();
  anchor.threads_created = static_cast<std::uint32_t>(r.varint());
  anchor.main_event_num = r.varint();
  const std::uint64_t entries = r.varint();
  for (std::uint64_t i = 0; i < entries; ++i) {
    std::string name = r.str();
    anchor.state.emplace(std::move(name), r.bytes());
  }
  if (!r.at_end()) throw LogFormatError("trailing bytes in anchor item");
  return anchor;
}

// --- LogSpooler -------------------------------------------------------------

LogSpooler::LogSpooler(DjvmId vm_id, Options options)
    : options_(std::move(options)) {
  ByteWriter header;
  header.raw(BytesView(reinterpret_cast<const std::uint8_t*>(kSpoolMagic), 8));
  header.u16(kSpoolVersion);
  header.u32(vm_id);
  header.u8(options_.compress ? 1 : 0);
  header_bytes_ = header.take();
  const BytesView hv = header_bytes_;
  if (options_.flight_recorder) {
    // Flight mode: chunks land as ring files; the final file only appears
    // at seal time.  Clear any leftovers of a previous crashed run at this
    // path first — a stale ring or half-sealed tail must not shadow or mix
    // with this run's data.
    ring_dir_ = flight_ring_dir(options_.path);
    std::error_code ec;
    std::filesystem::remove_all(ring_dir_, ec);
    std::filesystem::remove(options_.path, ec);
    std::filesystem::create_directories(ring_dir_, ec);
    if (ec) {
      throw Error("cannot create flight ring directory " + ring_dir_);
    }
    const std::string header_path = ring_dir_ + "/header";
    std::FILE* hf = std::fopen(header_path.c_str(), "wb");
    const bool wrote =
        hf != nullptr &&
        std::fwrite(hv.data(), 1, hv.size(), hf) == hv.size() &&
        std::fflush(hf) == 0;
    if (hf != nullptr) std::fclose(hf);
    if (!wrote) {
      throw Error("cannot write flight ring header to " + header_path);
    }
  } else {
    file_ = std::fopen(options_.path.c_str(), "wb");
    if (file_ == nullptr) {
      throw Error("cannot open spool file " + options_.path + " for writing");
    }
    if (std::fwrite(hv.data(), 1, hv.size(), file_) != hv.size() ||
        std::fflush(file_) != 0) {
      std::fclose(file_);
      file_ = nullptr;
      throw Error("cannot write spool header to " + options_.path);
    }
  }
  counters_.written_bytes.store(hv.size(), std::memory_order_relaxed);
  // Seed the index state with the header before the writer starts: the
  // whole-file CRC covers every byte up to the footer.  (Flight mode
  // reseeds both at seal-assembly time.)
  file_offset_ = hv.size();
  if (options_.index) file_crc_.update(hv);
  writer_ = std::thread([this] { writer_main(); });
}

LogSpooler::~LogSpooler() {
  try {
    close();
  } catch (...) {
    // Destructor path: the error was already latched for close() callers;
    // a throwing destructor would terminate instead of surfacing it.
  }
}

// --- producers (LogSink) ----------------------------------------------------

void LogSpooler::schedule_batch(ThreadNum thread,
                                const sched::IntervalList& intervals) {
  if (intervals.empty()) return;
  Item item{SpoolItemKind::kSchedule, encode_schedule_item(thread, intervals),
            /*records=*/{}, /*cost=*/0};
  if (options_.index) {
    item.meta.thread = thread;
    item.meta.has_thread = true;
    item.meta.intervals = intervals.size();
    for (const auto& lsi : intervals) {
      item.meta.sched_events += lsi.last - lsi.first + 1;
    }
    item.meta.has_gc = true;
    item.meta.min_gc = intervals.front().first;
    item.meta.max_gc = intervals.back().last;
  }
  enqueue(std::move(item));
}

void LogSpooler::network_entry(ThreadNum thread, const NetworkLogEntry& entry) {
  enqueue({SpoolItemKind::kNetwork, encode_network_item(thread, entry),
           /*records=*/{}, /*cost=*/0});
}

void LogSpooler::trace_batch(std::vector<sched::TraceRecord> records) {
  if (records.empty()) return;
  // Raw records ride the queue; the writer thread serializes them, so the
  // recording thread pays only for the vector handoff here.
  Item item{SpoolItemKind::kTrace, {}, std::move(records), /*cost=*/0};
  enqueue(std::move(item));
}

void LogSpooler::causal_batch(ThreadNum thread,
                              const std::vector<std::uint64_t>& seqs) {
  if (seqs.empty()) return;
  Item item{SpoolItemKind::kCausalDelta,
            encode_causal_delta_item(thread, seqs),
            /*records=*/{}, /*cost=*/0};
  if (options_.index) {
    item.meta.thread = thread;
    item.meta.has_thread = true;
    item.meta.causal_entries = seqs.size();
  }
  enqueue(std::move(item));
}

void LogSpooler::finish(const RecordStats& stats, std::uint32_t thread_count) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (finished_) throw UsageError("LogSpooler::finish called twice");
    finished_ = true;
  }
  // The writer stashes the finish item and seals it into its own final
  // chunk only once the queue has drained, so it is always the last item on
  // disk and a torn final chunk costs exactly the clean-end marker.
  try {
    enqueue({SpoolItemKind::kFinish, encode_finish_item({stats, thread_count}),
             /*records=*/{}, /*cost=*/0});
  } catch (...) {
    // finish() racing a writer failure: the marker never made it into the
    // queue, so un-latch finished_ — the recording stays an unfinished
    // prefix and close() reports the writer error rather than this call
    // silently claiming a clean end.
    std::lock_guard<std::mutex> lock(mutex_);
    finished_ = false;
    throw;
  }
}

void LogSpooler::anchor(const SpoolAnchor& anchor) {
  Item item{SpoolItemKind::kAnchor, encode_anchor_item(anchor),
            /*records=*/{}, /*cost=*/0};
  if (options_.index) {
    item.meta.has_gc = true;
    item.meta.min_gc = anchor.gc;
    item.meta.max_gc = anchor.gc;
  }
  enqueue(std::move(item));
}

void LogSpooler::enqueue(Item item) {
  item.cost = item.body.size() +
              item.records.size() * sizeof(sched::TraceRecord) + kItemOverhead;
  const std::size_t cost = item.cost;
  std::unique_lock<std::mutex> lock(mutex_);
  if (closing_) throw UsageError("LogSpooler used after close()");
  bool blocked = false;
  producer_cv_.wait(lock, [&] {
    if (writer_error_ || closing_) return true;
    // An item larger than the whole buffer is admitted alone into an empty
    // queue — backpressure bounds memory, it must never deadlock.
    if (pending_bytes_ + cost <= options_.buffer_bytes || queue_.empty()) {
      return true;
    }
    blocked = true;
    return false;
  });
  if (writer_error_) std::rethrow_exception(writer_error_);
  if (closing_) throw UsageError("LogSpooler used after close()");
  if (blocked) {
    counters_.producer_blocks.fetch_add(1, std::memory_order_relaxed);
  }
  pending_bytes_ += cost;
  store_max_relaxed(counters_.queue_high_water_bytes, pending_bytes_);
  counters_.items_enqueued.fetch_add(1, std::memory_order_relaxed);
  queue_.push_back(std::move(item));
  writer_cv_.notify_one();
}

// --- writer thread ----------------------------------------------------------

void LogSpooler::append_item(std::uint8_t kind, BytesView body) {
  append_item(kind, body, ItemMeta{});
}

void LogSpooler::append_item(std::uint8_t kind, BytesView body,
                             const ItemMeta& meta) {
  chunk_.u8(kind).varint(body.size()).raw(body);
  if (options_.index) {
    pending_meta_.kinds |= spool_kind_bit(kind);
    if (kind == static_cast<std::uint8_t>(SpoolItemKind::kNetwork)) {
      ++pending_meta_.network_items;
    }
    if (meta.has_gc) {
      if (!pending_meta_.has_gc) {
        pending_meta_.has_gc = true;
        pending_meta_.min_gc = meta.min_gc;
        pending_meta_.max_gc = meta.max_gc;
      } else {
        pending_meta_.min_gc = std::min(pending_meta_.min_gc, meta.min_gc);
        pending_meta_.max_gc = std::max(pending_meta_.max_gc, meta.max_gc);
      }
    }
    if (meta.has_thread) {
      SpoolThreadCounts& counts = pending_threads_[meta.thread];
      counts.thread = meta.thread;
      counts.intervals += meta.intervals;
      counts.sched_events += meta.sched_events;
      counts.causal_entries += meta.causal_entries;
    }
  }
  if (chunk_.size() >= options_.chunk_bytes) flush_chunk();
}

void LogSpooler::flush_chunk() {
  if (chunk_.size() == 0) return;
  write_chunk(chunk_.view());
  chunk_ = ByteWriter();
}

bool LogSpooler::drain_queue() {
  std::deque<Item> batch;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return false;
    batch.swap(queue_);
    pending_bytes_ = 0;
    producer_cv_.notify_all();
  }
  for (Item& item : batch) {
    if (item.kind == SpoolItemKind::kFinish) {
      finish_body_ = std::move(item.body);
      finish_pending_ = true;
      continue;
    }
    if (item.kind == SpoolItemKind::kAnchor) {
      // The anchor gets its own chunk so a chunk boundary lands exactly at
      // the checkpoint: seal whatever is assembling, then seal the anchor
      // alone.  write_ring_chunk consumes pending_anchor_chunk_ to mark the
      // new eviction horizon (a no-op outside flight mode).
      flush_chunk();
      pending_anchor_chunk_ = true;
      append_item(static_cast<std::uint8_t>(item.kind), item.body, item.meta);
      flush_chunk();
      continue;
    }
    if (!item.records.empty()) {
      // Deferred serialization: trace batches are encoded here, off the
      // producers' critical path.
      item.body = encode_trace_item(item.records);
      if (options_.index) {
        // One thread's batch in program order: gc ascending.
        item.meta.has_gc = true;
        item.meta.min_gc = item.records.front().gc;
        item.meta.max_gc = item.records.back().gc;
      }
      item.records.clear();
    }
    append_item(static_cast<std::uint8_t>(item.kind), item.body, item.meta);
  }
  return true;
}

void LogSpooler::seal_finish() {
  flush_chunk();
  // Flight mode: assemble the retained tail into the final file first, so
  // the finish chunk and footer below append to it through the normal path.
  if (options_.flight_recorder) begin_flight_seal();
  append_item(static_cast<std::uint8_t>(SpoolItemKind::kFinish), finish_body_);
  flush_chunk();
  finish_pending_ = false;
  // The footer rides only behind a finish chunk: an abnormal close leaves a
  // plain prefix, exactly like a crash, and loaders fall back to scanning.
  if (options_.index) write_footer();
}

void LogSpooler::writer_main() {
  try {
    for (;;) {
      if (drain_queue()) continue;
      // The queue is empty, so everything handed over before the finish
      // item is packed: seal it now and it is last on disk.
      if (finish_pending_) seal_finish();
      std::unique_lock<std::mutex> lock(mutex_);
      if (!queue_.empty()) continue;
      if (closing_) break;
      counters_.writer_parks.fetch_add(1, std::memory_order_relaxed);
      writer_cv_.wait(lock, [&] { return !queue_.empty() || closing_; });
    }
    // Abnormal close (no finish item): flush whatever was packed so the
    // file recovers as a prefix.  Flight mode additionally assembles the
    // retained tail into the final file (no finish chunk, no footer — the
    // same recover-to-prefix shape a crashed append-only spool has).
    flush_chunk();
    if (options_.flight_recorder && !sealing_) begin_flight_seal();
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      writer_error_ = std::current_exception();
      // Unblock producers: their next handoff rethrows the error.
      queue_.clear();
      pending_bytes_ = 0;
    }
    producer_cv_.notify_all();
  }
}

void LogSpooler::write_chunk(BytesView payload) {
  if (options_.fail_chunk != 0 &&
      counters_.chunks_written.load(std::memory_order_relaxed) + 1 >=
          options_.fail_chunk) {
    throw Error("injected spool writer fault: " + options_.path);
  }
  Bytes compressed;
  BytesView out = payload;
  SpoolCodec codec = SpoolCodec::kRaw;
  if (options_.compress) {
    compressed = spool_compress(payload);
    if (compressed.size() < payload.size()) {
      out = compressed;
      codec = SpoolCodec::kLz;
    }
  }
  ByteWriter frame;
  frame.u32(static_cast<std::uint32_t>(out.size()));
  frame.u8(static_cast<std::uint8_t>(codec));
  frame.u32(crc32(out));
  const BytesView fv = frame.view();
  if (options_.flight_recorder && !sealing_) {
    write_ring_chunk(fv, out, payload.size(),
                     static_cast<std::uint8_t>(codec));
    return;
  }
  if (std::fwrite(fv.data(), 1, fv.size(), file_) != fv.size() ||
      std::fwrite(out.data(), 1, out.size(), file_) != out.size() ||
      std::fflush(file_) != 0) {
    throw Error("spool write failed: " + options_.path);
  }
  if (options_.index) {
    file_crc_.update(fv);
    file_crc_.update(out);
    SpoolChunkInfo info = pending_meta_;
    info.offset = file_offset_;
    info.stored_len = static_cast<std::uint32_t>(out.size());
    info.raw_len = static_cast<std::uint32_t>(payload.size());
    info.codec = static_cast<std::uint8_t>(codec);
    info.threads.reserve(pending_threads_.size());
    for (const auto& [thread, counts] : pending_threads_) {
      info.threads.push_back(counts);
    }
    index_entries_.push_back(std::move(info));
  }
  pending_meta_ = SpoolChunkInfo{};
  pending_threads_.clear();
  file_offset_ += fv.size() + out.size();
  counters_.chunks_written.fetch_add(1, std::memory_order_relaxed);
  counters_.raw_bytes.fetch_add(payload.size(), std::memory_order_relaxed);
  counters_.written_bytes.fetch_add(fv.size() + out.size(),
                                    std::memory_order_relaxed);
  if (options_.flight_recorder) {
    // Sealing path: this chunk (the finish marker) lands directly in the
    // assembled tail, so it counts toward the retained totals — after
    // seal, retained_* describe the assembled file.
    counters_.retained_chunks.fetch_add(1, std::memory_order_relaxed);
    counters_.retained_bytes.fetch_add(fv.size() + out.size(),
                                       std::memory_order_relaxed);
  }
}

void LogSpooler::write_footer() {
  SpoolIndex index;
  index.chunks = std::move(index_entries_);
  index.data_end = file_offset_;
  index.file_crc = file_crc_.value();
  const Bytes footer = encode_spool_footer(index);
  if (std::fwrite(footer.data(), 1, footer.size(), file_) != footer.size() ||
      std::fflush(file_) != 0) {
    throw Error("spool footer write failed: " + options_.path);
  }
  index_entries_.clear();
  counters_.index_bytes.store(footer.size(), std::memory_order_relaxed);
  counters_.written_bytes.fetch_add(footer.size(), std::memory_order_relaxed);
}

// --- flight-recorder retention ring (writer side) ---------------------------

namespace {

std::string ring_chunk_name(std::uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%012llu.chunk",
                static_cast<unsigned long long>(seq));
  return buf;
}

}  // namespace

void LogSpooler::write_ring_chunk(BytesView frame, BytesView stored,
                                  std::size_t raw_len, std::uint8_t codec) {
  FlightChunk fc;
  fc.seq = next_chunk_seq_++;
  fc.bytes = frame.size() + stored.size();
  fc.anchor = pending_anchor_chunk_;
  const std::string path = ring_dir_ + "/" + ring_chunk_name(fc.seq);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const bool wrote =
      f != nullptr &&
      std::fwrite(frame.data(), 1, frame.size(), f) == frame.size() &&
      std::fwrite(stored.data(), 1, stored.size(), f) == stored.size() &&
      std::fflush(f) == 0;
  if (f != nullptr) std::fclose(f);
  if (!wrote) throw Error("flight ring chunk write failed: " + path);
  if (options_.index) {
    fc.info = pending_meta_;
    fc.info.stored_len = static_cast<std::uint32_t>(stored.size());
    fc.info.raw_len = static_cast<std::uint32_t>(raw_len);
    fc.info.codec = codec;
    fc.info.threads.reserve(pending_threads_.size());
    for (const auto& [thread, counts] : pending_threads_) {
      fc.info.threads.push_back(counts);
    }
  }
  pending_meta_ = SpoolChunkInfo{};
  pending_threads_.clear();
  pending_anchor_chunk_ = false;
  if (fc.anchor) {
    have_anchor_ = true;
    newest_anchor_seq_ = fc.seq;
    counters_.anchor_chunks.fetch_add(1, std::memory_order_relaxed);
  }
  retained_bytes_total_ += fc.bytes;
  retained_.push_back(std::move(fc));
  counters_.chunks_written.fetch_add(1, std::memory_order_relaxed);
  counters_.raw_bytes.fetch_add(raw_len, std::memory_order_relaxed);
  counters_.written_bytes.fetch_add(frame.size() + stored.size(),
                                    std::memory_order_relaxed);
  evict_over_budget();
  counters_.retained_chunks.store(retained_.size(),
                                  std::memory_order_relaxed);
  counters_.retained_bytes.store(retained_bytes_total_,
                                 std::memory_order_relaxed);
}

void LogSpooler::evict_over_budget() {
  const auto over = [&] {
    return (options_.retention_chunks != 0 &&
            retained_.size() > options_.retention_chunks) ||
           (options_.retention_bytes != 0 &&
            retained_bytes_total_ > options_.retention_bytes);
  };
  // Oldest-first, and never at or past the newest anchor chunk: the tail
  // must keep starting at a chunk boundary whose state is anchored (or at
  // chunk 0 when no anchor exists yet — then nothing may evict at all, so
  // staying over budget is the correct failure mode).
  while (over() && have_anchor_ && retained_.front().seq < newest_anchor_seq_) {
    const FlightChunk& victim = retained_.front();
    const std::string path = ring_dir_ + "/" + ring_chunk_name(victim.seq);
    std::error_code ec;
    std::filesystem::remove(path, ec);  // best effort; the ring dir goes
                                        // away wholesale at seal time
    retained_bytes_total_ -= victim.bytes;
    counters_.evicted_chunks.fetch_add(1, std::memory_order_relaxed);
    counters_.evicted_bytes.fetch_add(victim.bytes,
                                      std::memory_order_relaxed);
    retained_.pop_front();
  }
}

void LogSpooler::begin_flight_seal() {
  sealing_ = true;
  file_ = std::fopen(options_.path.c_str(), "wb");
  if (file_ == nullptr) {
    throw Error("cannot open spool file " + options_.path + " for sealing");
  }
  const BytesView hv = header_bytes_;
  if (std::fwrite(hv.data(), 1, hv.size(), file_) != hv.size()) {
    throw Error("spool header write failed: " + options_.path);
  }
  file_offset_ = hv.size();
  file_crc_ = Crc32();
  if (options_.index) file_crc_.update(hv);
  index_entries_.clear();
  Bytes buf;
  for (FlightChunk& fc : retained_) {
    const std::string path = ring_dir_ + "/" + ring_chunk_name(fc.seq);
    std::FILE* cf = std::fopen(path.c_str(), "rb");
    if (cf == nullptr) throw Error("flight ring chunk missing: " + path);
    buf.resize(fc.bytes);
    const bool read_ok =
        std::fread(buf.data(), 1, buf.size(), cf) == buf.size();
    std::fclose(cf);
    if (!read_ok) throw Error("flight ring chunk torn at seal: " + path);
    if (std::fwrite(buf.data(), 1, buf.size(), file_) != buf.size()) {
      throw Error("spool write failed: " + options_.path);
    }
    if (options_.index) {
      file_crc_.update(buf);
      fc.info.offset = file_offset_;
      index_entries_.push_back(std::move(fc.info));
    }
    file_offset_ += buf.size();
  }
  if (std::fflush(file_) != 0) {
    throw Error("spool write failed: " + options_.path);
  }
  // The tail now lives in the final file; the ring directory is redundant.
  std::error_code ec;
  std::filesystem::remove_all(ring_dir_, ec);
}

void LogSpooler::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closing_ && !writer_.joinable()) {
      if (writer_error_) std::rethrow_exception(writer_error_);
      return;
    }
    closing_ = true;
  }
  writer_cv_.notify_all();
  producer_cv_.notify_all();
  if (writer_.joinable()) writer_.join();
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (writer_error_) std::rethrow_exception(writer_error_);
}

SpoolStats LogSpooler::stats() const {
  SpoolStats s;
  s.items_enqueued = counters_.items_enqueued.load(std::memory_order_relaxed);
  s.chunks_written = counters_.chunks_written.load(std::memory_order_relaxed);
  s.raw_bytes = counters_.raw_bytes.load(std::memory_order_relaxed);
  s.written_bytes = counters_.written_bytes.load(std::memory_order_relaxed);
  s.queue_high_water_bytes =
      counters_.queue_high_water_bytes.load(std::memory_order_relaxed);
  s.producer_blocks =
      counters_.producer_blocks.load(std::memory_order_relaxed);
  s.writer_parks = counters_.writer_parks.load(std::memory_order_relaxed);
  s.index_bytes = counters_.index_bytes.load(std::memory_order_relaxed);
  s.retained_chunks =
      counters_.retained_chunks.load(std::memory_order_relaxed);
  s.retained_bytes = counters_.retained_bytes.load(std::memory_order_relaxed);
  s.evicted_chunks = counters_.evicted_chunks.load(std::memory_order_relaxed);
  s.evicted_bytes = counters_.evicted_bytes.load(std::memory_order_relaxed);
  s.anchor_chunks = counters_.anchor_chunks.load(std::memory_order_relaxed);
  return s;
}

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
  if (!read_exact(header, 8)) {
    std::fclose(file_);
    file_ = nullptr;
    throw LogFormatError("file too small to hold a spool/trace header: " +
                         path);
  }
  const bool spool = std::memcmp(header, kSpoolMagic, 8) == 0;
  const bool trace = std::memcmp(header, kTraceMagic, 8) == 0;
  try {
    if (!spool && !trace) {
      throw LogFormatError("bad magic: not a DJVUSPL/DJVUTRC file: " + path);
    }
    if (!read_exact(header, 2 + 4)) {
      throw LogFormatError("torn header in " + path);
    }
    const std::uint16_t version =
        static_cast<std::uint16_t>(header[0] | (header[1] << 8));
    vm_id_ = le32(header + 2);
    if (spool) {
      if (version != kSpoolVersion) {
        throw LogFormatError("unsupported spool version " +
                             std::to_string(version));
      }
      std::uint8_t flags;
      if (!read_exact(&flags, 1)) {
        throw LogFormatError("torn header in " + path);
      }
      compressed_ = (flags & 1) != 0;
      // Seed the whole-file CRC with the header exactly as it lies on disk
      // (the magic compared equal, so the constant is the file's bytes).
      stream_crc_.update(
          BytesView(reinterpret_cast<const std::uint8_t*>(kSpoolMagic), 8));
      stream_crc_.update(BytesView(header, 2 + 4));
      stream_crc_.update(BytesView(&flags, 1));
    } else {
      trace_backend_ = true;
      if (version != kTraceVersion) {
        throw LogFormatError("unsupported trace version " +
                             std::to_string(version));
      }
      // Everything from here to the 4-byte trailer feeds the stream CRC
      // (via read_exact), so the trailer can be verified at end of stream.
      stream_crc_.update(
          BytesView(reinterpret_cast<const std::uint8_t*>(kTraceMagic), 8));
      stream_crc_.update(BytesView(header, 2 + 4));
      hash_reads_ = true;
      trace_remaining_ = read_varint();
    }
  } catch (...) {
    std::fclose(file_);
    file_ = nullptr;
    throw;
  }
}

LogSource::~LogSource() {
  if (file_ != nullptr) std::fclose(file_);
}

bool LogSource::read_exact(std::uint8_t* out, std::size_t n) {
  if (std::fread(out, 1, n, file_) != n) return false;
  if (hash_reads_) stream_crc_.update(BytesView(out, n));
  return true;
}

std::uint64_t LogSource::read_varint() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    std::uint8_t b;
    if (!read_exact(&b, 1)) {
      throw LogFormatError("truncated varint in " + path_);
    }
    v |= std::uint64_t{b & 0x7f} << shift;
    if ((b & 0x80) == 0) return v;
  }
  throw LogFormatError("overlong varint in " + path_);
}

std::optional<SpoolItem> LogSource::next() {
  if (done_) return std::nullopt;
  return trace_backend_ ? next_trace_item() : next_spool_item();
}

const SpoolIndex* LogSource::index() {
  if (trace_backend_) return nullptr;
  if (!tried_footer_ && !index_) {
    tried_footer_ = true;
    index_ = read_spool_footer(file_, file_size_);
  }
  return (index_ && index_->from_footer) ? &*index_ : nullptr;
}

const SpoolIndex* LogSource::ensure_index() {
  if (const SpoolIndex* idx = index()) return idx;
  if (!index_) index_ = build_spool_index(path_);
  return &*index_;
}

bool LogSource::seek_to_gc(GlobalCount gc) {
  if (trace_backend_) {
    throw UsageError("seek_to_gc: trace files are not seekable");
  }
  const SpoolIndex* idx = ensure_index();
  const std::optional<std::size_t> chunk = idx->chunk_covering(gc);
  if (!chunk) {
    chunk_ = Bytes();
    chunk_pos_ = 0;
    done_ = true;
    return false;
  }
  seek_to_chunk(*chunk);
  return true;
}

void LogSource::seek_to_chunk(std::size_t i) {
  if (trace_backend_) {
    throw UsageError("seek_to_chunk: trace files are not seekable");
  }
  const SpoolIndex* idx = ensure_index();
  if (i >= idx->chunks.size()) {
    throw UsageError("seek_to_chunk: chunk " + std::to_string(i) +
                     " out of range");
  }
  std::clearerr(file_);
  if (std::fseek(file_, static_cast<long>(idx->chunks[i].offset), SEEK_SET) !=
      0) {
    throw Error("seek failed in " + path_);
  }
  chunk_ = Bytes();
  chunk_pos_ = 0;
  done_ = false;
  clean_end_ = false;
  truncated_bytes_ = 0;
  chunks_read_ = i;
  seeked_ = true;
}

bool LogSource::read_chunk() {
  const auto start = static_cast<std::uint64_t>(std::ftell(file_));
  const auto torn = [&] { truncated_bytes_ = file_size_ - start; };
  std::uint8_t frame[kChunkFrameBytes];
  const std::size_t got = std::fread(frame, 1, kChunkFrameBytes, file_);
  if (got == 0) return false;  // clean EOF at a chunk boundary
  if (got >= 8 && std::memcmp(frame, kSpoolIndexMagic, 8) == 0) {
    // The index footer begins here: end of data, not a torn tail.  (A
    // pre-index reader lands in the kMaxChunkLen branch below instead —
    // the footer's leading bytes decode as an absurd length — and recovers
    // to this same prefix.)
    footer_seen_ = true;
    return false;
  }
  if (got < kChunkFrameBytes) {
    torn();
    return false;
  }
  const std::uint32_t len = le32(frame);
  const std::uint8_t codec = frame[4];
  const std::uint32_t crc = le32(frame + 5);
  if (len > kMaxChunkLen) {  // a torn length field can claim anything
    torn();
    return false;
  }
  Bytes cpayload(len);
  if (!read_exact(cpayload.data(), len)) {
    torn();
    return false;
  }
  if (crc32(cpayload) != crc) {
    torn();
    return false;
  }
  // Accepted: record the frame facts and feed the whole-file CRC (a seek
  // breaks byte coverage, so the stream CRC is only meaningful unseeked).
  chunk_offset_ = start;
  chunk_stored_len_ = len;
  chunk_codec_ = codec;
  ++chunks_read_;
  if (!seeked_) {
    stream_crc_.update(BytesView(frame, kChunkFrameBytes));
    stream_crc_.update(cpayload);
  }
  // Past this point the chunk is CRC-certified: failures below are writer
  // bugs or version skew, not torn tails, and must be rejected loudly.
  if (codec == static_cast<std::uint8_t>(SpoolCodec::kLz)) {
    chunk_ = spool_decompress(cpayload);
  } else if (codec == static_cast<std::uint8_t>(SpoolCodec::kRaw)) {
    chunk_ = std::move(cpayload);
  } else {
    throw LogFormatError("unknown spool chunk codec " + std::to_string(codec));
  }
  chunk_pos_ = 0;
  return true;
}

std::optional<SpoolItem> LogSource::next_spool_item() {
  for (;;) {
    if (chunk_pos_ >= chunk_.size()) {
      if (!read_chunk()) {
        done_ = true;
        return std::nullopt;
      }
      continue;
    }
    ByteReader r(BytesView(chunk_).subspan(chunk_pos_));
    SpoolItem item;
    const std::uint8_t kind = r.u8();
    if (kind < static_cast<std::uint8_t>(SpoolItemKind::kSchedule) ||
        kind > static_cast<std::uint8_t>(SpoolItemKind::kAnchor)) {
      throw LogFormatError("unknown spool item kind " + std::to_string(kind));
    }
    item.kind = static_cast<SpoolItemKind>(kind);
    const std::uint64_t body_len = r.varint();
    item.body = r.raw(body_len);
    chunk_pos_ += r.position();
    if (item.kind == SpoolItemKind::kFinish) {
      // The finish marker is the last item of a recording.  A CRC-valid
      // chunk after it is corruption; a torn tail after it is appended
      // garbage the prefix semantics simply drop.
      if (chunk_pos_ < chunk_.size() || read_chunk()) {
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
}

std::optional<SpoolItem> LogSource::next_trace_item() {
  if (trace_remaining_ == 0) {
    // All declared records streamed: verify the trailing CRC against the
    // running stream CRC (everything since the magic fed it).  A reader
    // that exits early still skips the check — that is the documented
    // streaming trade — but one that consumes the stream gets the same
    // integrity guarantee as load_trace_from_file.
    hash_reads_ = false;
    std::uint8_t trailer[4];
    if (!read_exact(trailer, 4)) {
      throw LogFormatError("truncated trace CRC trailer in " + path_);
    }
    if (le32(trailer) != stream_crc_.value()) {
      throw LogFormatError("trace file CRC mismatch in " + path_);
    }
    done_ = true;
    clean_end_ = true;
    return std::nullopt;
  }
  std::vector<sched::TraceRecord> batch;
  const std::size_t n =
      static_cast<std::size_t>(std::min<std::uint64_t>(trace_remaining_,
                                                       kTraceFileBatch));
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sched::TraceRecord rec;
    trace_prev_gc_ += read_varint();
    rec.gc = trace_prev_gc_;
    rec.thread = static_cast<ThreadNum>(read_varint());
    std::uint8_t kind_and_aux[9];
    if (!read_exact(kind_and_aux, 9)) {
      throw LogFormatError("truncated trace record in " + path_);
    }
    rec.kind = static_cast<sched::EventKind>(kind_and_aux[0]);
    rec.aux = 0;
    for (int b = 0; b < 8; ++b) {
      rec.aux |= std::uint64_t{kind_and_aux[1 + b]} << (8 * b);
    }
    batch.push_back(rec);
  }
  trace_remaining_ -= n;
  return SpoolItem{SpoolItemKind::kTrace, encode_trace_item(batch)};
}

// --- TraceRecordStream ------------------------------------------------------

std::optional<sched::TraceRecord> TraceRecordStream::next() {
  while (pos_ >= batch_.size()) {
    std::optional<SpoolItem> item = source_.next();
    if (!item) return std::nullopt;
    if (item->kind != SpoolItemKind::kTrace) continue;
    batch_ = decode_trace_item(item->body);
    pos_ = 0;
  }
  return batch_[pos_++];
}

// --- loaders ----------------------------------------------------------------

namespace {

void append_causal(VmLog& log, ThreadNum thread,
                   const std::vector<std::uint64_t>& seqs) {
  auto& per_thread = log.causal.per_thread;
  if (per_thread.size() <= thread) per_thread.resize(thread + 1);
  auto& dst = per_thread[thread];
  // Same FIFO argument as schedule batches: one thread's causal batches
  // arrive in program order, so appending reconstructs its seq list.
  dst.insert(dst.end(), seqs.begin(), seqs.end());
}

void fold_item(const SpoolItem& item, VmLog& log, TraceFile* trace) {
  switch (item.kind) {
    case SpoolItemKind::kSchedule: {
      auto [thread, list] = decode_schedule_item(item.body);
      auto& per_thread = log.schedule.per_thread;
      if (per_thread.size() <= thread) per_thread.resize(thread + 1);
      auto& dst = per_thread[thread];
      // Batches of one thread arrive in schedule order (drained by the
      // owning thread through a FIFO channel), so appending reconstructs
      // the recorder's list exactly.
      dst.insert(dst.end(), list.begin(), list.end());
      break;
    }
    case SpoolItemKind::kNetwork: {
      auto [thread, entry] = decode_network_item(item.body);
      log.network.append(thread, std::move(entry));
      break;
    }
    case SpoolItemKind::kTrace: {
      if (trace == nullptr) break;  // replay path: skip trace bodies
      std::vector<sched::TraceRecord> records = decode_trace_item(item.body);
      trace->records.insert(trace->records.end(), records.begin(),
                            records.end());
      break;
    }
    case SpoolItemKind::kCausal: {
      auto [thread, seqs] = decode_causal_item(item.body);
      append_causal(log, thread, seqs);
      break;
    }
    case SpoolItemKind::kCausalDelta: {
      auto [thread, seqs] = decode_causal_delta_item(item.body);
      append_causal(log, thread, seqs);
      break;
    }
    case SpoolItemKind::kFinish: {
      const SpoolFinish finish = decode_finish_item(item.body);
      log.stats = finish.stats;
      if (log.schedule.per_thread.size() < finish.thread_count) {
        log.schedule.per_thread.resize(finish.thread_count);
      }
      if (!log.causal.per_thread.empty() &&
          log.causal.per_thread.size() < finish.thread_count) {
        log.causal.per_thread.resize(finish.thread_count);
      }
      break;
    }
    case SpoolItemKind::kAnchor:
      // Checkpoint anchors position the tail for Checkpointer-based resume
      // (read_spool_anchors); the VmLog itself carries no anchor state.
      break;
  }
}

/// gc-sorts a loaded trace.  Stable: distinct threads can log trace records
/// at the same gc (e.g. a thread-start handshake), and chunk order — which
/// both load paths reproduce — is the recorder's append order, so a stable
/// sort makes the loaded record order deterministic where an unstable one
/// left equal-gc runs to the allocator's whims.
void sort_trace(TraceFile& trace) {
  std::stable_sort(trace.records.begin(), trace.records.end(),
                   [](const sched::TraceRecord& a, const sched::TraceRecord& b) {
                     return a.gc < b.gc;
                   });
}

std::size_t resolve_load_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) return 1;
  return std::min<std::size_t>(hw, 8);
}

/// One chunk's decoded contribution to the parallel load, plus the facts
/// the driver needs to validate the whole: per-kind item payloads in chunk
/// item order, and the CRC/length of the chunk's on-disk bytes (frame +
/// stored payload) for the crc32_combine whole-file check.
struct ChunkFold {
  std::vector<std::pair<ThreadNum, sched::IntervalList>> schedule;
  std::vector<std::pair<ThreadNum, NetworkLogEntry>> network;
  std::vector<sched::TraceRecord> trace;
  std::vector<std::pair<ThreadNum, std::vector<std::uint64_t>>> causal;
  std::optional<SpoolFinish> finish;
  bool finish_last = false;  ///< finish was the chunk's final item
  std::uint32_t seg_crc = 0;
  std::uint64_t seg_len = 0;
};

/// Decodes one chunk at its footer-recorded offset into `out`, validating
/// the frame against the footer entry and the payload against the chunk
/// CRC.  Throws on any disagreement — the driver turns that into a
/// fall-back to the sequential scan, which reports the authoritative error.
void decode_chunk_at(std::FILE* file, const std::string& path,
                     const SpoolChunkInfo& info, bool want_trace,
                     ChunkFold& out) {
  if (std::fseek(file, static_cast<long>(info.offset), SEEK_SET) != 0) {
    throw Error("seek failed in " + path);
  }
  Bytes framed(kChunkFrameBytes + info.stored_len);
  if (std::fread(framed.data(), 1, framed.size(), file) != framed.size()) {
    throw LogFormatError("chunk truncated under footer in " + path);
  }
  const std::uint32_t len = le32(framed.data());
  const std::uint8_t codec = framed[4];
  const std::uint32_t crc = le32(framed.data() + 5);
  if (len != info.stored_len || codec != info.codec) {
    throw LogFormatError("chunk frame disagrees with footer in " + path);
  }
  const BytesView cpayload = BytesView(framed).subspan(kChunkFrameBytes);
  if (crc32(cpayload) != crc) {
    throw LogFormatError("chunk CRC mismatch in " + path);
  }
  out.seg_crc = crc32(framed);
  out.seg_len = framed.size();
  Bytes decoded;
  BytesView items = cpayload;
  if (codec == static_cast<std::uint8_t>(SpoolCodec::kLz)) {
    decoded = spool_decompress(cpayload);
    items = decoded;
  } else if (codec != static_cast<std::uint8_t>(SpoolCodec::kRaw)) {
    throw LogFormatError("unknown spool chunk codec " + std::to_string(codec));
  }
  if (items.size() != info.raw_len) {
    throw LogFormatError("chunk raw length disagrees with footer in " + path);
  }
  std::size_t pos = 0;
  while (pos < items.size()) {
    ByteReader r(items.subspan(pos));
    const std::uint8_t kind = r.u8();
    if (kind < static_cast<std::uint8_t>(SpoolItemKind::kSchedule) ||
        kind > static_cast<std::uint8_t>(SpoolItemKind::kAnchor)) {
      throw LogFormatError("unknown spool item kind " + std::to_string(kind));
    }
    const std::uint64_t body_len = r.varint();
    const Bytes body = r.raw(body_len);
    pos += r.position();
    switch (static_cast<SpoolItemKind>(kind)) {
      case SpoolItemKind::kSchedule:
        out.schedule.push_back(decode_schedule_item(body));
        break;
      case SpoolItemKind::kNetwork:
        out.network.push_back(decode_network_item(body));
        break;
      case SpoolItemKind::kTrace: {
        if (!want_trace) break;
        const std::vector<sched::TraceRecord> records =
            decode_trace_item(body);
        out.trace.insert(out.trace.end(), records.begin(), records.end());
        break;
      }
      case SpoolItemKind::kCausal:
        out.causal.push_back(decode_causal_item(body));
        break;
      case SpoolItemKind::kCausalDelta:
        out.causal.push_back(decode_causal_delta_item(body));
        break;
      case SpoolItemKind::kFinish:
        out.finish = decode_finish_item(body);
        out.finish_last = (pos == items.size());
        break;
      case SpoolItemKind::kAnchor:
        break;  // no VmLog contribution (see fold_item)
    }
  }
}

/// The indexed parallel load: preads and decodes chunks on `threads`
/// workers (each with its own FILE*), verifies the whole-file CRC by
/// combining per-chunk segment CRCs, and folds the decoded pieces in chunk
/// order — per-thread appends then see exactly the sequential scan's order,
/// so the result is bit-identical.  nullopt on any anomaly (no footer,
/// validation failure, I/O error): the caller falls back to the sequential
/// scan, which either succeeds with its usual semantics or reports the
/// authoritative error.
std::optional<VmLog> try_parallel_load(const std::string& path,
                                       std::size_t threads, TraceFile* trace) {
  std::FILE* probe = std::fopen(path.c_str(), "rb");
  if (probe == nullptr) return std::nullopt;
  std::uint8_t header[kSpoolHeaderBytes];
  std::optional<SpoolIndex> index;
  std::uint32_t header_crc = 0;
  DjvmId vm_id = 0;
  bool usable = false;
  do {
    if (std::fread(header, 1, sizeof header, probe) != sizeof header) break;
    if (std::memcmp(header, kSpoolMagic, 8) != 0) break;
    const std::uint16_t version =
        static_cast<std::uint16_t>(header[8] | (header[9] << 8));
    if (version != kSpoolVersion) break;
    vm_id = le32(header + 10);
    std::fseek(probe, 0, SEEK_END);
    index = read_spool_footer(
        probe, static_cast<std::uint64_t>(std::ftell(probe)));
    if (!index || index->chunks.empty()) break;
    header_crc = crc32(BytesView(header, sizeof header));
    usable = true;
  } while (false);
  std::fclose(probe);
  if (!usable) return std::nullopt;

  const std::size_t n = index->chunks.size();
  std::vector<ChunkFold> folds(n);
  std::atomic<std::size_t> next_chunk{0};
  std::atomic<bool> failed{false};
  const auto work = [&] {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
      failed.store(true, std::memory_order_relaxed);
      return;
    }
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) break;
      const std::size_t i = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        decode_chunk_at(file, path, index->chunks[i], trace != nullptr,
                        folds[i]);
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        break;
      }
    }
    std::fclose(file);
  };
  const std::size_t workers = std::min(threads, n);
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
  if (failed.load(std::memory_order_relaxed)) return std::nullopt;

  // Whole-file CRC without a second sequential pass: combine the per-chunk
  // segment CRCs in file order (common/crc32.h crc32_combine).
  std::uint32_t crc = header_crc;
  for (const ChunkFold& fold : folds) {
    crc = crc32_combine(crc, fold.seg_crc, fold.seg_len);
  }
  if (crc != index->file_crc) return std::nullopt;

  // Finish discipline identical to the sequential reader: exactly one
  // finish item, and it is the last item of the last chunk.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (folds[i].finish) return std::nullopt;
  }
  if (!folds[n - 1].finish || !folds[n - 1].finish_last) return std::nullopt;

  VmLog log;
  log.vm_id = vm_id;
  for (ChunkFold& fold : folds) {
    for (auto& [thread, list] : fold.schedule) {
      auto& per_thread = log.schedule.per_thread;
      if (per_thread.size() <= thread) per_thread.resize(thread + 1);
      auto& dst = per_thread[thread];
      dst.insert(dst.end(), list.begin(), list.end());
    }
    for (auto& [thread, entry] : fold.network) {
      log.network.append(thread, std::move(entry));
    }
    if (trace != nullptr) {
      trace->records.insert(trace->records.end(), fold.trace.begin(),
                            fold.trace.end());
    }
    for (auto& [thread, seqs] : fold.causal) {
      append_causal(log, thread, seqs);
    }
  }
  const SpoolFinish& finish = *folds[n - 1].finish;
  log.stats = finish.stats;
  if (log.schedule.per_thread.size() < finish.thread_count) {
    log.schedule.per_thread.resize(finish.thread_count);
  }
  if (!log.causal.per_thread.empty() &&
      log.causal.per_thread.size() < finish.thread_count) {
    log.causal.per_thread.resize(finish.thread_count);
  }
  return log;
}

VmLog stream_spool(const std::string& path, TraceFile* trace, bool* clean_end,
                   std::uint64_t* truncated_bytes,
                   const SpoolLoadOptions& options) {
  if (resolve_load_threads(options.threads) > 1) {
    std::optional<VmLog> log =
        try_parallel_load(path, resolve_load_threads(options.threads), trace);
    if (log) {
      // A parallel load only succeeds for a footer'd, finish-marked,
      // CRC-verified file: by construction a clean end with nothing torn.
      if (trace != nullptr) {
        trace->vm_id = log->vm_id;
        sort_trace(*trace);
      }
      if (clean_end != nullptr) *clean_end = true;
      if (truncated_bytes != nullptr) *truncated_bytes = 0;
      return std::move(*log);
    }
  }
  LogSource source(path);
  if (source.is_trace_file()) {
    throw LogFormatError("expected a DJVUSPL spool file, got a trace file: " +
                         path);
  }
  VmLog log;
  log.vm_id = source.vm_id();
  while (std::optional<SpoolItem> item = source.next()) {
    fold_item(*item, log, trace);
  }
  if (!source.clean_end()) {
    // Recovered prefix: no finish item.  The intervals are the exact set of
    // events replaying the prefix will execute, so their count is the
    // correct counter target; network_events is unknowable without the
    // trace and stays 0.
    log.stats.critical_events = log.schedule.event_count();
  }
  if (trace != nullptr) {
    trace->vm_id = source.vm_id();
    sort_trace(*trace);
  }
  if (clean_end != nullptr) *clean_end = source.clean_end();
  if (truncated_bytes != nullptr) *truncated_bytes = source.truncated_bytes();
  return log;
}

}  // namespace

SpoolContents load_spool(const std::string& path,
                         const SpoolLoadOptions& options) {
  SpoolContents contents;
  contents.log = stream_spool(path, &contents.trace, &contents.clean_end,
                              &contents.truncated_bytes, options);
  return contents;
}

VmLog load_spooled_log(const std::string& path, bool* clean_end,
                       const SpoolLoadOptions& options) {
  return stream_spool(path, nullptr, clean_end, nullptr, options);
}

SpoolIndex build_spool_index(const std::string& path) {
  LogSource source(path);
  if (source.is_trace_file()) {
    throw UsageError("build_spool_index: not a spool file: " + path);
  }
  SpoolIndex index;
  std::map<ThreadNum, SpoolThreadCounts> threads;
  const auto close_chunk = [&] {
    if (index.chunks.empty()) return;
    SpoolChunkInfo& c = index.chunks.back();
    c.threads.reserve(threads.size());
    for (const auto& [thread, counts] : threads) c.threads.push_back(counts);
    threads.clear();
  };
  while (std::optional<SpoolItem> item = source.next()) {
    if (source.chunk_ordinal() != index.chunks.size()) {
      close_chunk();
      SpoolChunkInfo c;
      c.offset = source.chunk_offset();
      c.stored_len = source.chunk_stored_len();
      c.raw_len = source.chunk_raw_len();
      c.codec = source.chunk_codec();
      index.chunks.push_back(std::move(c));
    }
    SpoolChunkInfo& c = index.chunks.back();
    c.kinds |= spool_kind_bit(static_cast<std::uint8_t>(item->kind));
    const auto fold_gc = [&c](GlobalCount lo, GlobalCount hi) {
      if (!c.has_gc) {
        c.has_gc = true;
        c.min_gc = lo;
        c.max_gc = hi;
      } else {
        c.min_gc = std::min(c.min_gc, lo);
        c.max_gc = std::max(c.max_gc, hi);
      }
    };
    switch (item->kind) {
      case SpoolItemKind::kSchedule: {
        auto [thread, list] = decode_schedule_item(item->body);
        SpoolThreadCounts& tc = threads[thread];
        tc.thread = thread;
        tc.intervals += list.size();
        for (const auto& lsi : list) tc.sched_events += lsi.length();
        if (!list.empty()) fold_gc(list.front().first, list.back().last);
        break;
      }
      case SpoolItemKind::kNetwork:
        ++c.network_items;
        break;
      case SpoolItemKind::kTrace: {
        const std::vector<sched::TraceRecord> records =
            decode_trace_item(item->body);
        if (!records.empty()) fold_gc(records.front().gc, records.back().gc);
        break;
      }
      case SpoolItemKind::kCausal: {
        auto [thread, seqs] = decode_causal_item(item->body);
        SpoolThreadCounts& tc = threads[thread];
        tc.thread = thread;
        tc.causal_entries += seqs.size();
        break;
      }
      case SpoolItemKind::kCausalDelta: {
        auto [thread, seqs] = decode_causal_delta_item(item->body);
        SpoolThreadCounts& tc = threads[thread];
        tc.thread = thread;
        tc.causal_entries += seqs.size();
        break;
      }
      case SpoolItemKind::kFinish:
        break;
      case SpoolItemKind::kAnchor: {
        // The anchor's gc feeds the chunk range so chunk_covering can land
        // a seek exactly on the anchor chunk (mirrors the writer-side
        // ItemMeta the spooler attaches).
        const SpoolAnchor anchor = decode_anchor_item(item->body);
        fold_gc(anchor.gc, anchor.gc);
        break;
      }
    }
  }
  close_chunk();
  index.data_end =
      index.chunks.empty()
          ? kSpoolHeaderBytes
          : index.chunks.back().offset + kChunkFrameBytes +
                index.chunks.back().stored_len;
  index.finalize();
  return index;
}

// --- flight-recorder retention ring (offline side) --------------------------

std::string flight_ring_dir(const std::string& spool_path) {
  return spool_path + ".d";
}

FlightTailInfo assemble_flight_tail(const std::string& spool_path) {
  namespace fs = std::filesystem;
  FlightTailInfo out;
  const std::string dir = flight_ring_dir(spool_path);
  const std::string header_path = dir + "/header";
  std::error_code ec;
  if (!fs::exists(header_path, ec)) return out;  // sealed normally (or never
                                                 // a flight spool)

  std::uint8_t header[kSpoolHeaderBytes];
  {
    std::FILE* hf = std::fopen(header_path.c_str(), "rb");
    if (hf == nullptr) throw Error("cannot open " + header_path);
    const bool ok = std::fread(header, 1, sizeof header, hf) == sizeof header;
    std::fclose(hf);
    if (!ok || std::memcmp(header, kSpoolMagic, 8) != 0) {
      throw LogFormatError("corrupt flight ring header: " + header_path);
    }
  }

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
  bool ok = std::fwrite(header, 1, sizeof header, outf) == sizeof header;
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
    Bytes buf(static_cast<std::size_t>(size));
    std::FILE* cf = std::fopen(path.c_str(), "rb");
    const bool read_ok =
        cf != nullptr && std::fread(buf.data(), 1, buf.size(), cf) == buf.size();
    if (cf != nullptr) std::fclose(cf);
    bool valid = read_ok && buf.size() >= kChunkFrameBytes;
    if (valid) {
      const std::uint32_t len = le32(buf.data());
      const std::uint32_t crc = le32(buf.data() + 5);
      valid = len <= kMaxChunkLen &&
              buf.size() == kChunkFrameBytes + len &&
              crc32(BytesView(buf).subspan(kChunkFrameBytes)) == crc;
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
  if (source.is_trace_file()) {
    throw UsageError("read_spool_anchors: not a spool file: " + path);
  }
  std::vector<SpoolAnchor> anchors;
  while (std::optional<SpoolItem> item = source.next()) {
    if (item->kind == SpoolItemKind::kAnchor) {
      anchors.push_back(decode_anchor_item(item->body));
    }
  }
  return anchors;
}

}  // namespace djvu::record
