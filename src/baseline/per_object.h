// A working per-object record/replay baseline — the related-work approach
// the paper positions itself against (§7).
//
// Levrouw, Audenaert & Van Campenhout's scheme "for event logging computes
// consecutive accesses for each object, using one counter for each shared
// object", in the Instant Replay [5] lineage where "each access of a shared
// variable ... is modeled after interprocess communication".  This module
// implements that strategy end-to-end (record AND replay) for
// shared-memory programs, so the ablation bench can compare real
// implementations instead of paper arguments:
//
//   * record: every object keeps its own access counter; the log stores,
//     per object, the run-length-encoded sequence of accessing threads
//     (<thread, run length> pairs — the per-object analogue of a logical
//     schedule interval);
//   * replay: every object counts its completed accesses, and each thread's
//     runs load as the access indices it owns (a sched::IntervalList per
//     thread), so an access waits — through the host's sched::TurnGate, the
//     same wait DJVM replay uses — until the object's count reaches the
//     thread's next index.  Accesses to different objects proceed
//     independently (the scheme's selling point on multiprocessors) but
//     each object serializes exactly as recorded.
//
// Scope matches the related work's: shared-memory programs on one node.
// No network events — §7's point is precisely that "neither of these
// addresses replaying distributed applications".
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/errors.h"
#include "common/ids.h"
#include "sched/interval.h"
#include "sched/turn_gate.h"

namespace djvu::baseline {

/// One run of consecutive accesses by a single thread to one object.
struct AccessRun {
  ThreadNum thread = 0;
  std::uint32_t count = 0;

  friend bool operator==(const AccessRun&, const AccessRun&) = default;
};

/// Per-object recorded access order.
using ObjectLog = std::vector<AccessRun>;

/// The whole recording: per-object logs indexed by object id.
struct PerObjectLog {
  std::vector<ObjectLog> objects;

  friend bool operator==(const PerObjectLog&, const PerObjectLog&) = default;

  /// Total <thread, count> pairs — the log's size in records.
  std::size_t run_count() const {
    std::size_t n = 0;
    for (const auto& obj : objects) n += obj.size();
    return n;
  }
};

/// Serialized form (varint pairs per object, CRC-checked like the other
/// log formats).  deserialize throws LogFormatError on any malformed input,
/// including counts the remaining bytes cannot hold.
Bytes serialize(const PerObjectLog& log);
PerObjectLog deserialize(BytesView data);

enum class Mode { kPassthrough, kRecord, kReplay };

class LvObject;

/// Minimal single-node host for the baseline scheme: registers threads
/// (creation order) and shared objects, and carries the mode + logs.
class LvHost {
 public:
  /// `stall_timeout` is the replay turn gate's stall window: a wait that
  /// sees no access published on any object for that long throws
  /// ReplayDivergenceError (a mismatched log must not deadlock).  The host
  /// registers no runners, so one quiet window is a stall (sched::TurnGate).
  explicit LvHost(Mode mode, const PerObjectLog* replay_log = nullptr,
                  std::chrono::milliseconds stall_timeout =
                      std::chrono::milliseconds(10000));
  ~LvHost();
  LvHost(const LvHost&) = delete;
  LvHost& operator=(const LvHost&) = delete;

  Mode mode() const { return mode_; }

  /// Binds the calling OS thread as the host's next thread (main first).
  void attach_main();
  void detach_current();

  /// Spawns a worker (creation-order numbering, like VmThread).  A worker
  /// that fails poisons the turn gate, so its siblings' replay waits unwind
  /// instead of waiting for accesses that will never come.
  void spawn(std::function<void()> fn);

  /// Joins every spawned worker; re-throws the first failure.
  void join_all();

  /// Record mode: assembles the per-object log after join_all().
  PerObjectLog finish_record();

  /// Calling thread's number.
  ThreadNum current_thread();

  /// Internal: registers an object, returning its id.
  std::uint32_t register_object(LvObject* obj);

 private:
  friend class LvObject;

  Mode mode_;
  const PerObjectLog* replay_log_;
  /// Every replay access waits here, on its object's completed-access count.
  sched::TurnGate gate_;
  std::mutex mutex_;
  std::vector<LvObject*> objects_;
  std::uint32_t next_thread_ = 0;
  std::vector<std::thread> workers_;
  std::vector<std::exception_ptr> errors_;
};

/// Record/replay machinery for one shared object.
class LvObject {
 public:
  explicit LvObject(LvHost& host);
  LvObject(const LvObject&) = delete;
  LvObject& operator=(const LvObject&) = delete;

  /// Runs `body` as one recorded access of this object: appends to the
  /// run-length log (record), waits for this thread's recorded per-object
  /// turn (replay), or just runs it (passthrough).
  ///
  /// A replay access is one wait on the host's turn gate until the
  /// object's completed-access count reaches the thread's next recorded
  /// index, the body, then one publication of the count (the gate wakes
  /// only the thread whose index that is).  A thread with no recorded
  /// access left throws ReplayDivergenceError (kBeyondSchedule).
  void access(const std::function<void()>& body);

  /// Record-side result.
  ObjectLog take_log();

 private:
  /// Replay-side setup: splits the recorded runs into each thread's access
  /// indices.
  void load_log(const ObjectLog& log);

  LvHost& host_;
  std::uint32_t id_;
  // Record and passthrough: accesses serialize on mutex_, which also
  // guards the run-length accumulation.
  std::mutex mutex_;
  ObjectLog log_;
  bool open_ = false;
  ThreadNum last_thread_ = 0;
  // Replay: accesses completed so far, and each thread's recorded access
  // indices.  The map is fixed after load_log; each cursor is advanced only
  // by its own thread.
  sched::TurnCell done_{0};
  std::map<ThreadNum, sched::IntervalCursor> cursors_;
};

/// A shared variable under the baseline scheme.
template <typename T>
class LvSharedVar {
 public:
  LvSharedVar(LvHost& host, T initial = T{})
      : object_(host), value_(std::move(initial)) {}

  T get() {
    T out{};
    object_.access([&] { out = value_; });
    return out;
  }

  void set(T v) {
    object_.access([&] { value_ = std::move(v); });
  }

  T unsafe_peek() const { return value_; }

  /// Internal: the underlying object (log plumbing).
  LvObject& object() { return object_; }

 private:
  LvObject object_;
  T value_;
};

}  // namespace djvu::baseline
