#include "record/log_spool.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <utility>

#include "common/crc32.h"
#include "common/file_io.h"
#include "record/serializer.h"
#include "record/spool_codec.h"

namespace djvu::record {
namespace {

/// Queue accounting charge per item beyond its body (deque node, kind,
/// flags) — keeps the bounded-buffer arithmetic byte-honest.
constexpr std::size_t kItemOverhead = 16;

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
  list.reserve(std::min<std::uint64_t>(n, r.remaining()));
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

void decode_trace_item(BytesView body,
                       std::vector<sched::TraceRecord>& records) {
  // The smallest record encoding: one-byte gc delta and thread varints, the
  // kind byte and the 8-byte aux.  A count the body cannot hold reserves no
  // more than the body could.
  constexpr std::uint64_t kMinRecordBytes = 1 + 1 + 1 + 8;
  ByteReader r(body);
  const std::uint64_t n = r.varint();
  const std::size_t want =
      records.size() + std::min(n, r.remaining() / kMinRecordBytes);
  if (want > records.capacity()) {
    // Geometric, so a loader appending item after item stays linear.
    records.reserve(std::max(want, 2 * records.capacity()));
  }
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
}

std::vector<sched::TraceRecord> decode_trace_item(BytesView body) {
  std::vector<sched::TraceRecord> records;
  decode_trace_item(body, records);
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
  seqs.reserve(std::min<std::uint64_t>(n, r.remaining()));
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

void write_anchor(ByteWriter& w, const SpoolAnchor& anchor) {
  w.varint(anchor.phase);
  w.varint(anchor.gc);
  w.varint(anchor.threads_created);
  w.varint(anchor.main_event_num);
  w.varint(anchor.state.size());
  for (const auto& [name, data] : anchor.state) {
    w.str(name);
    w.bytes(data);
  }
}

SpoolAnchor read_anchor(ByteReader& r) {
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
  return anchor;
}

Bytes encode_anchor_item(const SpoolAnchor& anchor) {
  ByteWriter w;
  write_anchor(w, anchor);
  return w.take();
}

SpoolAnchor decode_anchor_item(BytesView body) {
  ByteReader r(body);
  SpoolAnchor anchor = read_anchor(r);
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
    write_file(ring_dir_ + "/header", hv);
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
  file_crc_.update(hv);
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

// --- producers -------------------------------------------------------------

void LogSpooler::schedule_batch(ThreadNum thread,
                                const sched::IntervalList& intervals) {
  if (intervals.empty()) return;
  enqueue({SpoolItemKind::kSchedule, encode_schedule_item(thread, intervals),
           /*records=*/{}, /*cost=*/0,
           GcRange{intervals.front().first, intervals.back().last}});
}

void LogSpooler::network_entry(ThreadNum thread, const NetworkLogEntry& entry) {
  enqueue({SpoolItemKind::kNetwork, encode_network_item(thread, entry),
           /*records=*/{}, /*cost=*/0});
}

void LogSpooler::trace_batch(std::vector<sched::TraceRecord> records) {
  if (records.empty()) return;
  // Raw records ride the queue; the writer thread serializes them, so the
  // recording thread pays only for the handoff: the copy it passed in (a
  // full recording keeps its batch), or a move (a flight recorder).
  Item item{SpoolItemKind::kTrace, {}, std::move(records), /*cost=*/0};
  enqueue(std::move(item));
}

void LogSpooler::causal_batch(ThreadNum thread,
                              const std::vector<std::uint64_t>& seqs) {
  if (seqs.empty()) return;
  enqueue({SpoolItemKind::kCausalDelta, encode_causal_delta_item(thread, seqs),
           /*records=*/{}, /*cost=*/0});
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
  // The anchor's gc is its chunk's whole range, so chunk_covering lands a
  // seek exactly on the anchor chunk.
  enqueue({SpoolItemKind::kAnchor, encode_anchor_item(anchor),
           /*records=*/{}, /*cost=*/0, GcRange{anchor.gc, anchor.gc}});
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

void LogSpooler::append_item(SpoolItemKind kind, BytesView body,
                             std::optional<GcRange> gc) {
  chunk_.u8(static_cast<std::uint8_t>(kind)).varint(body.size()).raw(body);
  if (gc) chunk_entry_.cover(gc->min, gc->max);
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
      append_item(item.kind, item.body, item.gc);
      flush_chunk();
      continue;
    }
    if (!item.records.empty()) {
      // Deferred serialization: trace batches are encoded here, off the
      // producers' critical path.  One thread's batch is gc ascending.
      item.body = encode_trace_item(item.records);
      item.gc = GcRange{item.records.front().gc, item.records.back().gc};
      item.records.clear();
    }
    append_item(item.kind, item.body, item.gc);
  }
  return true;
}

void LogSpooler::seal_finish() {
  flush_chunk();
  // Flight mode: assemble the retained tail into the final file first, so
  // the finish chunk and footer below append to it through the normal path.
  if (options_.flight_recorder) begin_flight_seal();
  append_item(SpoolItemKind::kFinish, finish_body_);
  flush_chunk();
  finish_pending_ = false;
  // The footer rides only behind a finish chunk: an abnormal close leaves a
  // plain prefix, exactly like a crash, and loaders fall back to scanning.
  write_footer();
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
  // The stored bytes are hashed once: the frame carries their CRC, and the
  // whole-file CRC is extended by it rather than by hashing them again.
  const std::uint32_t out_crc = crc32(out);
  ByteWriter frame;
  frame.u32(static_cast<std::uint32_t>(out.size()));
  frame.u8(static_cast<std::uint8_t>(codec));
  frame.u32(out_crc);
  const BytesView fv = frame.view();
  // The index entry: the gc range folded as items were appended plus the
  // frame facts (the file offset is set where the chunk lands).
  SpoolChunkInfo info = std::exchange(chunk_entry_, {});
  info.stored_len = static_cast<std::uint32_t>(out.size());
  info.raw_len = static_cast<std::uint32_t>(payload.size());
  info.codec = static_cast<std::uint8_t>(codec);
  if (options_.flight_recorder && !sealing_) {
    write_ring_chunk(fv, out, std::move(info));
    return;
  }
  if (std::fwrite(fv.data(), 1, fv.size(), file_) != fv.size() ||
      std::fwrite(out.data(), 1, out.size(), file_) != out.size() ||
      std::fflush(file_) != 0) {
    throw Error("spool write failed: " + options_.path);
  }
  file_crc_.update(fv);
  file_crc_.append(out_crc, out.size());
  info.offset = file_offset_;
  index_entries_.push_back(std::move(info));
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
                                  SpoolChunkInfo info) {
  const std::uint64_t raw_len = info.raw_len;
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
  fc.info = std::move(info);
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
  file_crc_.update(hv);
  index_entries_.clear();
  for (FlightChunk& fc : retained_) {
    const std::string path = ring_dir_ + "/" + ring_chunk_name(fc.seq);
    const Bytes buf = read_file(path);
    if (buf.size() != fc.bytes) {
      throw Error("flight ring chunk torn at seal: " + path);
    }
    if (std::fwrite(buf.data(), 1, buf.size(), file_) != buf.size()) {
      throw Error("spool write failed: " + options_.path);
    }
    file_crc_.update(buf);
    fc.info.offset = file_offset_;
    index_entries_.push_back(std::move(fc.info));
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

// --- flight-recorder retention ring directory --------------------------------

std::string flight_ring_dir(const std::string& spool_path) {
  return spool_path + ".d";
}

}  // namespace djvu::record
