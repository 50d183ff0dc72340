// Quiescent-point checkpointing — the paper's stated future work ("Future
// work includes integrating the system with checkpointing to bound the
// replay time", §8; see also Netzer et al. [7] / Wang & Fuchs [10] in §7).
//
// Model: the application registers the shared state it wants captured and
// calls `Checkpointer::barrier(phase)` at *quiescent points* — moments when
// only the calling (main) thread is live, all worker threads have been
// joined, and no sockets are open.  During record each barrier snapshots
// the registered state together with the schedule position (global counter,
// number of threads created so far, the main thread's network event
// number).  During replay the application can resume from any recorded
// checkpoint: the framework fast-forwards the global counter, the interval
// cursors and the thread numbering past the checkpoint, restores the
// registered state, and the application skips directly to the phases after
// the checkpoint — bounding replay time by the inter-checkpoint distance
// instead of the full execution length.
//
// The quiescence restriction is what makes in-process checkpointing honest:
// there is no thread stack or in-flight connection to capture.  (Full
// process checkpointing à la [10] is out of scope; the paper left it as
// future work too.)
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/errors.h"
#include "vm/shared_var.h"
#include "vm/vm.h"

namespace djvu::checkpoint {

/// One recorded checkpoint: the record a flight-recorder spool carries as
/// its kAnchor item (fields documented there).
using Checkpoint = record::SpoolAnchor;

/// The per-VM checkpoint log (persisted separately from the VmLog).  A
/// flight-recorder spool tail's anchors make one too:
/// `CheckpointLog{vm_id, record::read_spool_anchors(path)}`.
struct CheckpointLog {
  DjvmId vm_id = 0;
  std::vector<Checkpoint> checkpoints;

  /// Finds a checkpoint by phase; throws UsageError when absent.
  const Checkpoint& by_phase(std::uint32_t phase) const;

  friend bool operator==(const CheckpointLog&,
                         const CheckpointLog&) = default;
};

/// Binary round-trip (same conventions as record/serializer: magic,
/// version, CRC; corrupt input throws LogFormatError).
Bytes serialize(const CheckpointLog& log);
CheckpointLog deserialize(BytesView data);
void save_to_file(const CheckpointLog& log, const std::string& path);
CheckpointLog load_from_file(const std::string& path);

/// Snapshot/restore hooks for one piece of application state.
struct Tracked {
  std::function<Bytes()> save;
  std::function<void(BytesView)> load;
};

/// Orchestrates checkpoints for one Vm.
class Checkpointer {
 public:
  /// Record mode: barriers snapshot.  Replay mode: barriers consume their
  /// recorded kCheckpoint event; resume_at() enables fast-forward.
  explicit Checkpointer(vm::Vm& vm);

  /// Registers a named piece of state with explicit hooks.
  void track(std::string name, Tracked hooks);

  /// Convenience: tracks an integral SharedVar.
  template <typename T>
  void track_var(std::string name, vm::SharedVar<T>& var) {
    static_assert(std::is_integral_v<T>, "track_var supports integral T");
    track(std::move(name),
          Tracked{
              [&var] {
                ByteWriter w;
                w.u64(static_cast<std::uint64_t>(var.unsafe_peek()));
                return w.take();
              },
              [&var](BytesView data) {
                ByteReader r(data);
                var.set_for_restore(static_cast<T>(r.u64()));
              },
          });
  }

  /// Declares a quiescent point.  Must be called from the VM's main thread
  /// while no worker threads are live.  Record: snapshots.  Full replay:
  /// consumes the recorded event.  Resumed replay: the barrier whose phase
  /// matches the resume point restores state and fast-forwards; barriers
  /// for earlier phases must not be reached (the application skips them).
  void barrier(std::uint32_t phase);

  /// Replay mode only, before any events execute: selects the checkpoint
  /// to resume from.  The application must skip every phase up to and
  /// including `phase` and call barrier(phase) exactly once, first.
  void resume_at(std::uint32_t phase, const CheckpointLog& log);

  /// Checkpoints recorded so far (record mode).
  CheckpointLog log() const;

 private:
  vm::Vm& vm_;
  std::vector<std::pair<std::string, Tracked>> tracked_;
  CheckpointLog recorded_;
  bool resuming_ = false;
  Checkpoint resume_point_;
};

}  // namespace djvu::checkpoint
