// The one home of every cross-cutting performance/behaviour knob.
//
// Both core::SessionConfig and vm::VmConfig embed a TuningConfig, and
// core/session.cc copies it across in a single assignment — adding a knob
// means adding a field here (plus its consumer), never editing a field-by-
// field copy in two structs.  Knobs that are *derived* per VM (chaos_seed,
// the concrete spool file path) stay in VmConfig: they are outputs of the
// session's conversion point, not user-facing tuning.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/ids.h"

namespace djvu {

/// Which order the record phase captures and the replay phase enforces.
///
///   kTotal  — the paper's scheme: one global counter totally orders every
///             critical event; replay is a single serialized turn protocol
///             (amortized by interval leasing).  The paper-faithful
///             baseline, and the only mode checkpoints support.
///   kCausal — causal partial-order mode: each conflict key additionally
///             keeps its own sequence number, logged per event; replay
///             blocks a thread only until its predecessor on that key has
///             published, so independent keys replay fully in parallel
///             (docs/INTERNALS.md §1d).  A causal recording still carries
///             the total order and replays under either mode; a total-order
///             recording cannot replay causally (no per-key data).
enum class OrderMode : std::uint8_t {
  kTotal = 0,
  kCausal = 1,
};

inline const char* order_mode_name(OrderMode m) {
  return m == OrderMode::kCausal ? "causal" : "total";
}

/// Shared record/replay tuning knobs (see vm::VmConfig for the semantics of
/// each; the doc comments there are authoritative for how the VM consumes
/// them).
struct TuningConfig {
  /// Replay stall detector window (vm::VmConfig docs).
  std::chrono::milliseconds stall_timeout{10000};

  /// Record-mode sharded GC-critical sections; off = the paper-faithful
  /// single section (ablation baseline).
  bool record_sharding = true;

  /// Stripes in the sharded record lock table (record_sharding only).
  std::size_t record_stripes = 64;

  /// Replay-mode interval leasing; off = the paper-faithful per-event
  /// await/tick protocol (ablation baseline).
  bool replay_leasing = true;

  /// Events between intra-lease counter publications (replay_leasing only).
  GlobalCount lease_publish_stride = 1024;

  /// Record/replay ordering scheme (see OrderMode above).  kCausal must be
  /// set on *both* sides: record logs per-key seqs, replay consumes them.
  OrderMode order_mode = OrderMode::kTotal;

  /// Record-phase schedule fuzzing probability; each VM derives its own
  /// chaos stream from the network seed and its id.
  double chaos_prob = 0.0;

  // --- streaming log spooler (record/log_spool.h) --------------------------

  /// When non-empty, record mode streams its log to
  /// `<spool_dir>/<vm name>.djvuspool` through a background writer thread
  /// instead of accumulating it in memory: resident log state stays O(spool
  /// buffer), the file is crash-consistent chunk by chunk, and replay can
  /// stream it back with Session::replay_from.  Empty = the in-memory
  /// VmLog path (the default, and the only option for plain VMs).
  std::string spool_dir;

  /// Bound on bytes queued between the recording threads and the spool
  /// writer.  Producers that would exceed it block (backpressure) — this is
  /// what makes record-mode memory O(buffer) instead of O(run length).
  std::size_t spool_buffer_bytes = 1 << 20;

  /// Target on-disk chunk size: items are packed into chunks of about this
  /// many bytes, each self-delimiting and CRC'd, flushed as a unit.  Smaller
  /// chunks = finer crash granularity, more framing overhead.
  std::size_t spool_chunk_bytes = 64 << 10;

  /// Compress chunk payloads (record::spool_codec, an LZ-style byte-pair
  /// scheme).  Interval and trace encodings are already delta-varint tight;
  /// compression mostly pays on open-world content chunks.
  bool spool_compress = false;

  /// Worker threads for loading spool files back (replay, trace readback,
  /// offline tools).  Applies only to spools carrying the index footer —
  /// chunks are independently decodable, so an indexed load preads and
  /// decodes them on a small pool and folds the results in chunk order,
  /// bit-identical to the sequential path.  0 = auto (min(cores, 8)),
  /// 1 = the sequential path (ablation baseline); footerless spools always
  /// load sequentially whatever this says.
  std::size_t spool_load_threads = 0;

  // --- flight recorder (bounded always-on recording) -----------------------

  /// Flight-recorder mode: instead of one append-only spool file, sealed
  /// chunks land in a bounded per-VM retention ring on disk
  /// (`<file>.djvuspool.d/`), oldest evicted as new ones seal, and the
  /// retained tail is assembled into a normal indexed spool file when the
  /// run seals (finish, crash cleanup, or post-mortem via
  /// record::assemble_flight_tail).  Eviction never crosses the newest
  /// checkpoint-anchor chunk, so the tail always replays from its oldest
  /// surviving chunk boundary (docs/INTERNALS.md §1g).  Requires spool_dir.
  bool flight_recorder = false;

  /// Flight-recorder retention bound, in sealed chunks (0 = no count bound).
  /// Both bounds are soft against correctness: chunks at or after the
  /// newest anchor are never evicted even when over budget.
  std::size_t retention_chunks = 64;

  /// Flight-recorder retention bound, in stored chunk bytes (0 = no byte
  /// bound).
  std::uint64_t retention_bytes = 0;

  /// When non-empty, Session seals an incident bundle — spool tail,
  /// DivergenceReport JSON, Perfetto trace, manifest — into a timestamped
  /// directory under this path when a run dies (replay divergence or a
  /// crash unwinding out of a VM main), and arms async-signal-safe
  /// SIGSEGV/SIGABRT marker handlers during flight-recorder record runs.
  /// Empty = incidents are not materialized (the default).
  std::string incident_dir;

  friend bool operator==(const TuningConfig&, const TuningConfig&) = default;
};

}  // namespace djvu
