// Streaming log spooler: bounded-memory record runs with crash-consistent
// chunked persistence.
//
// The in-memory record path accumulates the whole VmLog (schedule +
// network log) and every thread's trace buffer until the run ends — O(run
// length) resident memory, and a crash loses everything.  The spooler
// converts that to O(buffer): recording threads hand their batches to the
// background writer thread, which packs them into self-delimiting CRC'd
// chunks and appends them to one spool file per recording VM, flushing
// chunk by chunk.  Replay streams the file back through LogSource into the
// existing IntervalCursor / network-log machinery without ever
// materializing the serialized bundle or the trace.
//
// Every whole-recording reader goes through the two loaders at the end of
// this header, load_spool and load_spooled_log: replay, the replay doctor
// (replay/doctor.h) and trace-file loading and diffing (record/trace_io.h).
// LogSource's item stream is what those loaders scan when a spool has no
// footer; anchor readback and seek_to_gc also use it.
//
// One producer path feeds the writer: a mutex/condvar bounded byte queue
// behind LogSpooler's producer calls.  Batches, anchors and the finish
// marker all take it, network entries included: a recording thread stages
// its entries as framed items (append_network_item) and ships them as one
// batch per flush; a producer that finds the queue holding
// buffer_bytes blocks until the writer drains it (counted in
// producer_blocks), which is what bounds record-mode memory.  Trace
// batches ride the queue as raw records and are serialized on the writer
// thread, off the recording threads' critical path.  A full recording hands
// the spooler a copy of each batch and keeps the batch for its in-memory
// trace; only a flight recorder, which keeps no trace, moves it in.  The
// queue is the only
// producer path because it measured faster than per-thread lock-free rings
// on 4 cores (docs/INTERNALS.md §1c).
//
// On-disk format DJVUSPL1:
//
//   file   := header chunk*
//   header := magic "DJVUSPL1" (8) | version u16 | vm_id u32 | flags u8
//   chunk  := payload_len u32 | codec u8 | crc32 u32 | payload
//   payload (after optional decompression, see record/spool_codec.h)
//          := item*
//   item   := kind u8 | body_len varint | body
//
// Item bodies reuse the conventions of record/serializer.cc: delta-varint
// interval pairs, the shared network-entry encoding; trace records are
// delta-varint gc, thread varint, kind u8, aux u64.  Every chunk is
// independently decodable (deltas restart per item), so a reader needs
// only one chunk in memory at a time.  A trace file (record/trace_io.h) is
// a spool holding only trace items and a finish item.
//
// Crash consistency (recover-to-prefix): the CRC makes each chunk
// self-certifying, and the writer flushes after sealing each chunk, so a
// crash can only tear the final chunk.  LogSource drops a torn tail —
// short frame or CRC mismatch — and ends the stream at the last valid
// chunk boundary instead of rejecting the file; clean_end() distinguishes
// a finish-marked recording from a recovered prefix.  The finish item is
// always sealed into its own final chunk, after everything queued before
// it, so a torn tail costs at most the clean-end marker plus the final
// partial batch, never earlier data.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/ids.h"
#include "record/spool_index.h"
#include "record/trace_io.h"
#include "record/vm_log.h"
#include "sched/trace.h"

namespace djvu::record {

/// Kinds of self-describing items inside spool chunks.
enum class SpoolItemKind : std::uint8_t {
  kSchedule = 1,  ///< one thread's batch of closed logical intervals
  kNetwork = 2,   ///< one network log entry (thread + entry)
  kTrace = 3,     ///< one thread's batch of execution-trace records
  kFinish = 4,    ///< end-of-recording stats; marks a clean end
  // 5 is retired: the raw-varint causal batch that kCausalDelta replaced.
  // No writer emits it and readers reject it.
  /// One thread's batch of causal per-key seqs (order_mode = causal), in
  /// that thread's program order, zigzag-delta packed: consecutive seqs of
  /// one thread usually land near each other even though the stream
  /// interleaves keys, so signed deltas varint-encode tighter than absolute
  /// values.  Added after DJVUSPL1 shipped; the file version stays 1
  /// because total-order spools never contain this kind, so every
  /// pre-causal file remains readable.
  kCausalDelta = 6,
  /// A checkpoint anchor (flight-recorder mode): the serialized quiescent-
  /// point checkpoint — phase, gc, threads created, main event number,
  /// tracked state — sealed into its own chunk so the retention ring can
  /// evict everything before it and the surviving tail still replays via
  /// Checkpointer::resume_at.  Only flight-recorder spools contain this
  /// kind, so the compatibility argument of kCausalDelta applies unchanged.
  kAnchor = 7,
};

/// One decoded item streamed out of a spool file.
struct SpoolItem {
  SpoolItemKind kind = SpoolItemKind::kTrace;
  Bytes body;
};

/// End-of-recording marker payload.
struct SpoolFinish {
  RecordStats stats;
  std::uint32_t thread_count = 0;
};

/// One quiescent-point checkpoint (checkpoint::Checkpoint is this type): the
/// schedule position and tracked state a replay resumes from.  The same
/// record is a flight-recorder spool's kAnchor item body and an entry of a
/// DJVUCKP checkpoint log (record layer, so spools carry it without a
/// checkpoint-library dependency).
struct SpoolAnchor {
  /// Application-chosen phase id (must be distinct per barrier call).
  std::uint32_t phase = 0;

  /// Global counter value of the kCheckpoint event itself.
  GlobalCount gc = 0;

  /// Threads created before the checkpoint (registry size), so replay can
  /// keep later threadNums identical.
  std::uint32_t threads_created = 0;

  /// Main thread's next network event number at the checkpoint.
  EventNum main_event_num = 0;

  /// Registered state, by tracking name.
  std::map<std::string, Bytes> state;

  friend bool operator==(const SpoolAnchor&, const SpoolAnchor&) = default;
};

/// The one encoding of an anchor's fields: phase, gc, threads_created and
/// main_event_num as varints, then the state entry count and each entry as
/// a name string and a byte string.
void write_anchor(ByteWriter& w, const SpoolAnchor& anchor);
SpoolAnchor read_anchor(ByteReader& r);

// Item body codecs (shared by the spooler, LogSource, and tests).  Schedule
// and trace bodies delta-encode within the batch, starting absolute, so
// each item decodes without cross-item state.
Bytes encode_schedule_item(ThreadNum thread,
                           const sched::IntervalList& intervals);
std::pair<ThreadNum, sched::IntervalList> decode_schedule_item(BytesView body);
/// Appends one whole kNetwork item, framed as on disk (kind u8 | body_len
/// varint | body, the body being thread varint and the serializer's network
/// entry), to `out`.  A recording thread stages its entries this way and
/// ships them with LogSpooler::network_batch.
void append_network_item(Bytes& out, ThreadNum thread,
                         const NetworkLogEntry& entry);
std::pair<ThreadNum, NetworkLogEntry> decode_network_item(BytesView body);
Bytes encode_trace_item(const std::vector<sched::TraceRecord>& records);
std::vector<sched::TraceRecord> decode_trace_item(BytesView body);
/// Appends the item's records to `records` (a loader decodes each trace
/// item straight into the vector it is building).  On a throw `records`
/// may hold part of the item.
void decode_trace_item(BytesView body,
                       std::vector<sched::TraceRecord>& records);
Bytes encode_finish_item(const SpoolFinish& finish);
SpoolFinish decode_finish_item(BytesView body);
Bytes encode_causal_delta_item(ThreadNum thread,
                               const std::vector<std::uint64_t>& seqs);
std::pair<ThreadNum, std::vector<std::uint64_t>> decode_causal_delta_item(
    BytesView body);
Bytes encode_anchor_item(const SpoolAnchor& anchor);
SpoolAnchor decode_anchor_item(BytesView body);

/// Self-measurements of one spooler run.
///
/// Snapshot semantics: every field is maintained as an atomic counter and
/// sampled with relaxed loads (stats() never takes the queue lock and never
/// blocks the writer or a producer).  Each field is therefore exact
/// as of *some* recent moment, but the set is not a mutually consistent
/// cut — e.g. a snapshot taken mid-run may show a chunk counted whose
/// bytes are not yet in written_bytes.  After close() returns, all fields
/// are final and mutually consistent.
struct SpoolStats {
  std::uint64_t items_enqueued = 0;
  std::uint64_t chunks_written = 0;

  /// Payload bytes before compression / framing.
  std::uint64_t raw_bytes = 0;

  /// File bytes actually written (framing + possibly compressed payloads).
  std::uint64_t written_bytes = 0;

  /// High-water mark of bytes queued between producers and the writer —
  /// the bounded-memory witness: it never exceeds the configured buffer
  /// (plus one oversized item, which is admitted alone into an empty queue
  /// rather than deadlocking).
  std::uint64_t queue_high_water_bytes = 0;

  /// Producer handoffs that had to block on backpressure: the queue held
  /// buffer_bytes, so the producer waited for the writer to drain it.
  std::uint64_t producer_blocks = 0;

  /// Times the writer parked idle (queue empty).
  std::uint64_t writer_parks = 0;

  /// Bytes of the index footer appended at seal time (0 when the run ended
  /// without a finish item).  Included in written_bytes.
  std::uint64_t index_bytes = 0;

  // Flight-recorder retention ring (all 0 when flight_recorder is off).
  /// Sealed chunks currently retained in the ring (or, after seal, in the
  /// assembled tail).
  std::uint64_t retained_chunks = 0;
  /// On-disk bytes (frame + stored payload) of the retained chunks.
  std::uint64_t retained_bytes = 0;
  /// Chunks evicted from the front of the ring, cumulatively.
  std::uint64_t evicted_chunks = 0;
  /// On-disk bytes those evictions reclaimed, cumulatively.
  std::uint64_t evicted_bytes = 0;
  /// Checkpoint-anchor chunks sealed (each is an eviction horizon).
  std::uint64_t anchor_chunks = 0;
};

/// The streaming spooler: the record-side sink for log data (vm::Vm feeds
/// one when spooling is configured), backed by a bounded queue and a
/// background writer thread appending DJVUSPL1 chunks to one file.
class LogSpooler {
 public:
  struct Options {
    std::string path;
    std::size_t buffer_bytes = 1 << 20;
    std::size_t chunk_bytes = 64 << 10;
    bool compress = false;
    /// Flight-recorder mode: sealed chunks land as individual files in a
    /// bounded on-disk retention ring (`<path>.d/`) instead of one
    /// append-only file; the oldest are evicted as new ones seal, but never
    /// at or past the newest checkpoint-anchor chunk, so the retained tail
    /// always replays from its oldest surviving chunk boundary.  At seal
    /// time (finish or abnormal close) the surviving tail is assembled into
    /// a normal spool file at `path` — indexed and finish-marked on a clean
    /// finish, a recover-to-prefix file otherwise — and the ring directory
    /// is removed.  After a crash the ring directory survives;
    /// assemble_flight_tail() reassembles it post-mortem.
    bool flight_recorder = false;
    /// Retention bound in sealed chunks (0 = no count bound).  Soft against
    /// correctness: chunks at or after the newest anchor never evict.
    std::size_t retention_chunks = 64;
    /// Retention bound in stored chunk bytes (0 = no byte bound).
    std::uint64_t retention_bytes = 0;
    /// Fault injection for tests: when non-zero, the writer throws just
    /// before sealing its Nth chunk (1-based), exercising the
    /// writer-failure producer-wakeup path deterministically.
    std::uint64_t fail_chunk = 0;
  };

  /// Opens `options.path` for writing and starts the writer thread; throws
  /// Error when the file cannot be created.
  LogSpooler(DjvmId vm_id, Options options);

  /// Closes implicitly (without rethrowing writer errors — call close()
  /// first to surface them).
  ~LogSpooler();

  LogSpooler(const LogSpooler&) = delete;
  LogSpooler& operator=(const LogSpooler&) = delete;

  // Producer calls.  All of them apply backpressure: they block while the
  // queue holds buffer_bytes, which is what bounds record-mode memory.  A
  // writer I/O failure is rethrown to the next producer call (and to
  // close()), so a full disk surfaces in the recording run.

  /// A batch of `thread`'s closed logical intervals, in schedule order.
  /// Called only by the owning thread (periodic flush, thread end/detach)
  /// or by the finishing thread after all workers quiesced.
  void schedule_batch(ThreadNum thread, const sched::IntervalList& intervals);

  /// One thread's staged network-log entries: framed kNetwork items
  /// (append_network_item) in that thread's event order.  The bytes are
  /// copied into one queue item, so the caller clears its buffer and keeps
  /// the capacity.  The writer splices the items one at a time, so a chunk
  /// still seals at an item boundary once it reaches chunk_bytes; on disk
  /// each entry stays its own kNetwork item.  vm::Vm ships a thread's batch
  /// ahead of that thread's schedule batch, so a torn spool never holds an
  /// interval without the entries of the events it covers.
  void network_batch(BytesView items);

  /// One recorded network event outcome (any thread, its own events): a
  /// one-entry network_batch.
  void network_entry(ThreadNum thread, const NetworkLogEntry& entry);

  /// A batch of one thread's buffered trace records, in that thread's
  /// program (= gc) order.  By value: a producer that keeps no trace (a
  /// flight recorder) moves its buffer in, one that keeps its trace passes
  /// a copy.  Serialization happens off the producer's critical path, on
  /// the writer thread.
  void trace_batch(std::vector<sched::TraceRecord> records);

  /// A batch of `thread`'s causal per-key seqs in program order (causal
  /// order mode only; same caller discipline as schedule_batch).
  void causal_batch(ThreadNum thread, const std::vector<std::uint64_t>& seqs);

  /// End of recording: final stats and the number of threads created.
  void finish(const RecordStats& stats, std::uint32_t thread_count);

  /// Ships a checkpoint anchor (flight-recorder mode).  The writer seals
  /// the chunk currently assembling, then seals the anchor into its own
  /// chunk, which becomes the new eviction horizon.  Called from the
  /// checkpoint barrier's quiescent point (main thread, workers joined), so
  /// the queue handoff is off every hot path.  Outside flight mode the
  /// anchor is appended like any other item (harmless, but nothing evicts).
  void anchor(const SpoolAnchor& anchor);

  /// Drains the queue, seals the final chunk, joins the
  /// writer and closes the file.  Idempotent.  Rethrows any writer-thread
  /// error.
  void close();

  /// Relaxed-load snapshot (see SpoolStats for its semantics).
  SpoolStats stats() const;
  const std::string& path() const { return options_.path; }

 private:
  /// A closed gc range [min, max].
  struct GcRange {
    GlobalCount min = 0;
    GlobalCount max = 0;
  };

  struct Item {
    SpoolItemKind kind;
    /// The item body; for kNetwork, a run of whole framed items.
    Bytes body;
    /// Trace batches ride the queue raw (the producer's copy, or its moved
    /// buffer in a flight recorder) and are encoded by the writer thread —
    /// serialization overlaps with the recording threads instead of
    /// taxing their critical events.  Non-empty iff kind == kTrace.
    std::vector<sched::TraceRecord> records;
    /// Byte-accounting cost charged against buffer_bytes (set by enqueue).
    std::size_t cost = 0;
    /// The gc range a schedule or anchor item adds to its chunk's index
    /// entry, taken from the values the producer holds (the writer never
    /// re-decodes a body to index it).  The writer takes a trace batch's
    /// range from its raw records.
    std::optional<GcRange> gc{};
  };

  void enqueue(Item item);
  void writer_main();

  // Writer-side helpers.
  void append_item(SpoolItemKind kind, BytesView body,
                   std::optional<GcRange> gc = std::nullopt);
  /// Appends a run of framed items (a network batch) item by item.
  void splice_items(BytesView items);
  void flush_chunk();
  bool drain_queue();
  void seal_finish();
  /// Appends one framed chunk to the file and flushes; throws Error on I/O
  /// failure.  Writer thread only.  Flight mode routes to write_ring_chunk
  /// until the seal assembly opens the final file.
  void write_chunk(BytesView payload);
  /// Appends the index footer (record/spool_index.h) after the finish
  /// chunk, enabling seek_to_gc and the indexed load path.
  void write_footer();

  // Flight-recorder writer-side helpers (writer thread only).
  /// Seals one framed chunk as a ring file and evicts over-budget chunks
  /// from the front (never at or past the newest anchor chunk).  `info` is
  /// the chunk's index entry, its offset unset until the seal assembly.
  void write_ring_chunk(BytesView frame, BytesView stored,
                        SpoolChunkInfo info);
  void evict_over_budget();
  /// Opens the final spool file and copies the retained ring chunks into
  /// it in order, rebuilding index offsets; write_chunk appends normally
  /// afterwards.  Removes the ring directory on success.
  void begin_flight_seal();

  const Options options_;
  std::FILE* file_ = nullptr;

  mutable std::mutex mutex_;
  std::condition_variable producer_cv_;
  std::condition_variable writer_cv_;
  std::deque<Item> queue_;
  std::size_t pending_bytes_ = 0;
  bool closing_ = false;
  bool finished_ = false;  // finish() already enqueued
  std::exception_ptr writer_error_;

  /// All counters relaxed atomics: stats() samples them without stopping
  /// anyone (see SpoolStats).
  struct Counters {
    std::atomic<std::uint64_t> items_enqueued{0};
    std::atomic<std::uint64_t> chunks_written{0};
    std::atomic<std::uint64_t> raw_bytes{0};
    std::atomic<std::uint64_t> written_bytes{0};
    std::atomic<std::uint64_t> queue_high_water_bytes{0};
    std::atomic<std::uint64_t> producer_blocks{0};
    std::atomic<std::uint64_t> writer_parks{0};
    std::atomic<std::uint64_t> index_bytes{0};
    std::atomic<std::uint64_t> retained_chunks{0};
    std::atomic<std::uint64_t> retained_bytes{0};
    std::atomic<std::uint64_t> evicted_chunks{0};
    std::atomic<std::uint64_t> evicted_bytes{0};
    std::atomic<std::uint64_t> anchor_chunks{0};
  };
  mutable Counters counters_;

  // Writer-private chunk assembly state (members so drain helpers share
  // them without threading through every call).
  ByteWriter chunk_;
  Bytes finish_body_;
  bool finish_pending_ = false;

  // Writer-private index state: the entry table built as chunks seal, the
  // gc range of the chunk currently assembling, the running file offset,
  // and the whole-file CRC (all bytes written so far).  The constructor
  // seeds offset/CRC with the header before the writer starts.
  std::vector<SpoolChunkInfo> index_entries_;
  SpoolChunkInfo chunk_entry_;
  std::uint64_t file_offset_ = 0;
  Crc32 file_crc_;

  // Flight-recorder writer-private state.  retained_ is the on-disk ring's
  // in-memory mirror: one entry per surviving chunk file, front = oldest.
  struct FlightChunk {
    std::uint64_t seq = 0;
    std::uint64_t bytes = 0;  ///< on-disk frame + stored payload
    bool anchor = false;
    SpoolChunkInfo info;  ///< offset unset until the seal assembly
  };
  std::string ring_dir_;
  Bytes header_bytes_;
  std::deque<FlightChunk> retained_;
  std::uint64_t next_chunk_seq_ = 0;
  std::uint64_t retained_bytes_total_ = 0;
  std::uint64_t newest_anchor_seq_ = 0;
  bool have_anchor_ = false;
  /// Set by the drain loop just before sealing an anchor chunk; consumed
  /// by write_ring_chunk to mark the FlightChunk.
  bool pending_anchor_chunk_ = false;
  /// Flipped by begin_flight_seal: write_chunk appends to file_ from then
  /// on (the finish chunk and footer land in the assembled tail).
  bool sealing_ = false;

  std::thread writer_;
};

/// The spooler's old interface name, now LogSpooler itself: the
/// benchmark's writer arm (perfbench/perfbench.cc) still binds a spooler
/// through it.  Delete it with that binding.
using LogSink = LogSpooler;

/// Streaming reader over a DJVUSPL1 spool file — a recording's spool or a
/// trace file (record/trace_io.h).  Items stream chunk by chunk, at most
/// one chunk resident at a time; a torn tail is truncated to the last
/// valid chunk (recover-to-prefix).  A stream read from the start to its
/// finish item also checks the footer's whole-file CRC; a reader that
/// seeks or stops early has had only the chunks it read checked.
class LogSource {
 public:
  explicit LogSource(const std::string& path);
  ~LogSource();
  LogSource(const LogSource&) = delete;
  LogSource& operator=(const LogSource&) = delete;

  DjvmId vm_id() const { return vm_id_; }

  /// The next item, or nullopt at end of stream.  Mid-stream corruption
  /// that a chunk CRC certifies against (a writer bug, version skew) still
  /// throws LogFormatError; a torn tail does not.
  std::optional<SpoolItem> next();

  /// After next() returned nullopt: true when the stream ended with a
  /// finish item; false when a torn tail was dropped.
  bool clean_end() const { return clean_end_; }

  /// Bytes dropped from a torn tail (0 on a clean end).  The index footer
  /// is never counted: a new reader recognizes it and stops cleanly where
  /// a pre-index reader would have recovered-to-prefix past it.
  std::uint64_t truncated_bytes() const { return truncated_bytes_; }

  /// The spool's index footer, lazily read from the end of the file:
  /// nullptr for footerless (crashed) spools, torn footers and footers of
  /// another version (callers then fall back to sequential scans).
  /// Restores the stream position, so it is safe to call mid-stream.
  const SpoolIndex* index();

  /// Repositions the stream at the chunk covering `gc` — the first chunk
  /// whose prefix-max gc reaches it — so decoding forward sees every
  /// schedule/trace item at or beyond that position, in O(log chunks).
  /// Returns false (stream at end) when gc lies beyond the recording or
  /// the spool has no index.  After a seek the whole-file CRC check is
  /// disabled (the stream no longer covers every byte) and
  /// truncated_bytes resets.
  bool seek_to_gc(GlobalCount gc);

  /// Chunks consumed so far (valid once next() has yielded an item): the
  /// current item's chunk is chunk_ordinal() - 1.
  std::size_t chunk_ordinal() const { return chunks_read_; }

  /// CRC-32 of the spool file header: the seed of the whole-file CRC, onto
  /// which the indexed loader combines its per-chunk CRCs.
  std::uint32_t header_crc() const { return header_crc_; }

 private:
  /// Reads and checks the next chunk into items_/item_pos_; false at end
  /// of file, torn tail (sets truncated_bytes_), or index footer.
  bool read_chunk();

  std::FILE* file_ = nullptr;
  std::string path_;
  DjvmId vm_id_ = 0;
  bool done_ = false;
  bool clean_end_ = false;
  std::uint64_t truncated_bytes_ = 0;
  std::uint64_t file_size_ = 0;

  // The current chunk's items, split and checked.
  std::vector<SpoolItem> items_;
  std::size_t item_pos_ = 0;

  // Running stream state for the whole-file CRC (fed the header and every
  // accepted chunk's frame + stored payload; checked against the footer at
  // a clean, unseeked end).
  std::size_t chunks_read_ = 0;
  std::uint32_t header_crc_ = 0;
  Crc32 stream_crc_;
  bool seeked_ = false;
  bool footer_seen_ = false;  ///< read_chunk met the footer magic

  // Lazily read footer; tried_footer_ gates the one-time footer pread.
  std::optional<SpoolIndex> index_;
  bool tried_footer_ = false;
};

/// Everything one spool file holds, folded back into in-memory structures
/// (tests, offline inspection).  trace.records come out gc-sorted.
///
/// Both loaders below take the indexed path when the spool carries a
/// readable index footer: min(cores, 8, chunks) workers pread, check and
/// fold chunks concurrently (chunks are independently decodable — deltas
/// restart per item) and the parts are appended in chunk order, so the
/// VmLog / trace / digest are bit-identical to the sequential scan.  Any
/// disagreement with the footer falls back to that scan, which footerless
/// spools always take.
struct SpoolContents {
  VmLog log;
  TraceFile trace;
  bool clean_end = false;
  std::uint64_t truncated_bytes = 0;
};
SpoolContents load_spool(const std::string& path);

/// Streams just the replay-relevant items (schedule, network, finish) of a
/// spool file into a VmLog, skipping trace bodies entirely — resident
/// memory is O(schedule + network log), never O(trace) or O(file).  For a
/// recovered prefix (torn tail, no finish item) the stats are
/// reconstructed from the schedule: critical_events = the events the
/// intervals encode (every critical event lands in exactly one interval),
/// which is precisely what replaying the prefix will execute.  Sets
/// *clean_end and *truncated_bytes (the torn tail dropped, 0 on a clean
/// end) when non-null.
VmLog load_spooled_log(const std::string& path, bool* clean_end = nullptr,
                       std::uint64_t* truncated_bytes = nullptr);

// --- flight-recorder retention ring ------------------------------------------

/// The on-disk retention ring directory backing a flight-recorder spool:
/// `<spool_path>.d/`, holding `header` (the 15-byte DJVUSPL1 header),
/// `<seq>.chunk` files (one framed chunk each, zero-padded decimal seq),
/// and — after a fatal signal — the `INCIDENT` marker the async-signal-safe
/// handler writes (core/incident.h).
std::string flight_ring_dir(const std::string& spool_path);

/// What a post-mortem ring assembly found.
struct FlightTailInfo {
  /// A ring directory existed and was assembled into `spool_path`.
  bool assembled = false;
  /// Chunks accepted into the tail.
  std::size_t chunks = 0;
  /// Bytes dropped from the torn end of the ring (a chunk file mid-fwrite
  /// at crash time, plus anything after it) — recover-to-prefix at chunk
  /// granularity.  Recorded in incident manifests so the doctor can report
  /// the shortened tail instead of silently absorbing it.
  std::uint64_t truncated_bytes = 0;
};

/// Post-mortem assembly of a crashed flight-recorder ring: if
/// `<spool_path>.d/` exists, checks each chunk file in seq order the way
/// every spool reader does (frame, CRC, codec, item framing), writes
/// header + surviving chunks to `spool_path` (overwriting any half-sealed
/// file there — the ring is newer), stops at the first torn or
/// undecodable chunk counting it and everything later as truncated, and
/// removes the ring directory.  No finish item and no footer are
/// synthesized: the result is a recover-to-prefix file, exactly like a
/// crashed append-only spool.  Returns {assembled = false} when no ring
/// directory exists (the spool sealed normally); throws Error/LogFormatError
/// on I/O failure or a corrupt ring header.
FlightTailInfo assemble_flight_tail(const std::string& spool_path);

/// All checkpoint anchors in a spool file, in stream order.  A tail that
/// survived eviction starts at an anchor chunk, so front() is the resume
/// point for Checkpointer-based replay of the tail.
std::vector<SpoolAnchor> read_spool_anchors(const std::string& path);

}  // namespace djvu::record
