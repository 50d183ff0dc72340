// The DJVM: a virtual-machine runtime with record/replay interposition.
//
// One Vm hosts an application component (threads + shared state + sockets),
// the way one JVM hosts one component of the paper's distributed
// application.  A Vm runs in one of three modes:
//
//   kPassthrough — a plain JVM: no counter, no logs, no meta protocols.
//                  Used for the non-DJVM components of open/mixed worlds and
//                  as the baseline for overhead measurements.
//   kRecord      — DJVM record phase: every critical event ticks the global
//                  counter; logical intervals and network outcomes are
//                  logged (§2.2, §4).
//   kReplay      — DJVM replay phase: every critical event executes at its
//                  recorded global-counter value (§2.2).
//
// The "event gateway" methods at the bottom are the interposition points the
// rest of the vm library (SharedVar, Monitor, sockets) funnels through; they
// correspond to the paper's GC-critical section discipline:
//   * critical_event()  — non-blocking events: counter update + execution in
//     one atomic action (record), or turn-wait + execute + tick (replay);
//   * blocking events run their operation *outside* the section and then
//     mark_event() afterwards (record);
//   * in replay, read-like events use turn_begin()/turn_end() to execute at
//     exactly their recorded position (see DESIGN.md §5 on why this is the
//     safe rendering of Fig. 3), while connect/accept execute eagerly and
//     only their completion is turn-gated, as §4.1.3 specifies.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <set>

#include "common/ids.h"
#include "common/rng.h"
#include "common/tuning.h"
#include "net/network.h"
#include "record/log_spool.h"
#include "record/vm_log.h"
#include "sched/divergence.h"
#include "sched/global_counter.h"
#include "sched/thread_registry.h"
#include "sched/trace.h"

namespace djvu::vm {

/// Execution mode of a Vm.
enum class Mode {
  kPassthrough,
  kRecord,
  kReplay,
};

/// Events between intra-lease counter publications (replay_leasing): a long
/// interval publishes progress every this-many events so value() observers
/// (stall detector, checkpoint snapshots, SchedStats) never see a frozen
/// counter.
inline constexpr GlobalCount kLeasePublishStride = 1024;

/// Static configuration of one Vm.
///
/// Semantics of the shared tuning knobs (djvu::TuningConfig — the
/// authoritative field list lives there; these are the VM-side contracts):
///
///   * record_stripes — record-mode section layout: a `record_stripes`-way
///     lock table keyed by each event's conflict object, with the counter
///     value assigned by an atomic fetch_add while the object's stripe is
///     held — events on independent objects record in parallel.  1 = the
///     paper's single global section (the ablation baseline for
///     EXPERIMENTS.md); 0 is a UsageError.  Replay is unaffected: the log
///     format and the replayed total order are identical, so a recording
///     made in any layout replays under any setting.
///   * record_quantum — record-mode owner quantum of each section stripe
///     (sched::GlobalCounter::with_section with the thread's StripeHold):
///     a thread keeps the stripe it took for up to one quantum while
///     contenders wait outside the lock, so the recorded schedule holds
///     runs of one thread's events.  A thread gives its stripe up before it
///     blocks (yield_stripe: monitor enter and wait, every network and time
///     gateway, join, thread end).  0 = no quantum (the ablation baseline).
///     Replay ignores it: any recorded interleaving replays.
///   * replay_leasing — true = a thread whose next event opens a logical
///     schedule interval performs ONE await for the whole interval,
///     executes the interval's events with thread-local counter
///     bookkeeping (no atomics, no mutex, no wakeups), and publishes the
///     interval with a single counter jump at its end — ~(#intervals +
///     #events/kLeasePublishStride) atomic publications instead of
///     #events.  false = the paper-faithful per-event await/tick protocol
///     (the ablation baseline).  The replayed schedule, trace, and
///     divergence detection are identical in both modes.
///   * stall_timeout — replay stall detector window: a turn-wait that sees
///     no publication for this long — while every bound thread is itself
///     parked on a turn, so progress is impossible — aborts with
///     ReplayDivergenceError (a mismatched log can otherwise deadlock the
///     whole VM).  While some thread is off doing real work, waiters hold
///     off for up to sched::TurnGate::kStallGraceFactor quiet windows.
///     The counter is constructed with it, so no await() call site can
///     fall back to a hardcoded default.  Tests shrink it.
///   * chaos_prob — schedule fuzzing ("chaos mode", cf. rr): during
///     record, each critical event yields the CPU with this probability
///     (and occasionally sleeps a few microseconds), forcing interleavings
///     a quiet single-core scheduler would rarely produce.  Replay ignores
///     chaos entirely — the recorded schedule already pins the
///     interleaving.  0 disables.
///   * spool_* — the streaming log spooler (record/log_spool.h); the VM
///     consumes them only when `spool_path` below is set.
///   * order_mode — kTotal is the paper's scheme: replay enforces the one
///     recorded total order.  kCausal additionally records each event's
///     per-conflict-key sequence number and replays by waiting only for the
///     event's per-key predecessor (the key's Conflict cell), so events on
///     independent keys replay in parallel (docs/INTERNALS.md §1d).  A
///     causal recording carries both orders and replays under either mode
///     with identical traces; a total-order recording replays only under
///     kTotal (no per-key data — the Vm constructor rejects it).  Causal
///     mode refuses kGlobalConflict events and resume_replay (checkpoint
///     machinery needs the exact global counter); replay_leasing is ignored
///     in causal replay.
struct VmConfig {
  /// DJVM identity: assigned before record, logged, and reused in replay.
  DjvmId vm_id = 0;

  /// Simulated machine this Vm runs on.
  net::HostId host = 0;

  Mode mode = Mode::kPassthrough;

  /// World knowledge (§5): the set of hosts that run DJVMs, known before
  /// the application executes.  Peers on these hosts get the closed-world
  /// scheme; all other peers get the open-world content-logging scheme.
  std::set<net::HostId> djvm_hosts;

  /// Keep an execution trace for verification.  Off for overhead
  /// measurements (tracing is not part of the paper's record cost).
  bool keep_trace = true;

  /// Shared performance/behaviour knobs (one struct for SessionConfig and
  /// VmConfig; see the contract list above).
  TuningConfig tuning;

  /// Derived, not user tuning: when non-empty and mode == kRecord, the VM
  /// streams its log to this spool file through a record::LogSpooler
  /// (sized by tuning.spool_*) instead of accumulating a VmLog in memory.
  /// core/session.cc computes it from tuning.spool_dir + the VM name.
  std::string spool_path;

  /// Derived, not user tuning: seed for the chaos generator (per-VM
  /// stream; the session derives it from the network seed and the VM id).
  std::uint64_t chaos_seed = 1;
};

/// An object critical events conflict on, and its causal order: the base
/// of SharedVar, Monitor, Socket, ServerSocket and DatagramSocket, whose
/// gateways key their events on `this`.  Its one member counts the object's
/// events for order_mode = kCausal (docs/INTERNALS.md §1d): record hands
/// each event the cell's next value inside the object's GC-critical
/// section, and replay waits until the cell reaches the event's recorded
/// value, runs the event, then advances the cell.  The count lives and dies
/// with the object, so an object built in a dead one's storage starts at 0
/// in record and replay alike.  Total order never touches it.
class Conflict {
  friend class Vm;
  mutable sched::TurnCell order_{0};
};

/// Conflict key of a critical event: names the object the event conflicts
/// on.  Events with different keys may execute their GC-critical sections
/// concurrently; same-key events stay mutually exclusive with their counter
/// numbering, and in causal mode they share the object's order.
///   - a Conflict (SharedVar, Monitor, socket wrapper, the VM's spawn key):
///     conflicting accesses to that object serialize on its stripe;
///   - kThreadLocalConflict: the event touches no shared object — it is
///     keyed per-thread (the record stripe of an odd key derived from the
///     thread number, which can never collide with an aligned object
///     address; the causal order of ThreadState::local_order);
///   - kGlobalConflict: the event's body snapshots state owned by arbitrary
///     other objects (checkpoint barriers) and must exclude every
///     concurrent event — it takes the whole stripe table.  Causal mode
///     refuses it, so its order is never used.
using ConflictKey = const Conflict*;
inline constexpr ConflictKey kThreadLocalConflict = nullptr;
namespace internal {
inline Conflict kGlobalConflictObject;
}  // namespace internal
inline constexpr ConflictKey kGlobalConflict =
    &internal::kGlobalConflictObject;

/// One virtual machine.
class Vm {
 public:
  /// `replay_log` must be non-null iff mode == kReplay.
  Vm(std::shared_ptr<net::Network> network, VmConfig config,
     std::shared_ptr<const record::VmLog> replay_log = nullptr);
  ~Vm();
  Vm(const Vm&) = delete;
  Vm& operator=(const Vm&) = delete;

  // --- identity & environment ---------------------------------------------

  DjvmId vm_id() const { return config_.vm_id; }
  net::HostId host() const { return config_.host; }
  Mode mode() const { return config_.mode; }
  net::Network& network() { return *network_; }

  /// True when `host` runs a DJVM (closed-world scheme applies to it).
  bool is_djvm_host(net::HostId host) const {
    return config_.djvm_hosts.contains(host);
  }

  /// True when this Vm performs interposition (record or replay).
  bool instrumented() const { return config_.mode != Mode::kPassthrough; }

  // --- thread management ----------------------------------------------------

  /// Binds the calling OS thread as this Vm's main thread (threadNum 0).
  /// Must be called exactly once, before any other thread is spawned.
  void attach_main();

  /// Unbinds the calling OS thread (end of main).
  void detach_current();

  /// The calling thread's state; throws UsageError when the thread is not
  /// bound to this Vm.
  sched::ThreadState& current_state();

  // --- finishing a phase ------------------------------------------------------

  /// Record mode: closes all interval recorders and assembles the VmLog.
  /// Call after every application thread has finished.
  record::VmLog finish_record();

  /// Replay mode: verifies that every thread consumed its entire recorded
  /// schedule; throws ReplayDivergenceError otherwise.
  void finish_replay();

  // --- introspection -----------------------------------------------------------

  /// Execution trace (empty when keep_trace is false, and for a flight
  /// recorder, whose trace lives only in its bounded spool).  Non-const:
  /// records are buffered per thread on the hot path, so this first flushes
  /// the calling thread's buffer (when the caller is bound to this Vm) —
  /// other threads' buffers merge when those threads finish or detach.
  const sched::ExecutionTrace& trace();

  /// Critical events executed so far (the global counter).  When the
  /// calling thread holds a replay interval lease, its own unpublished
  /// progress is included — a thread must always see its own completed
  /// events (program order), even between stride publications.
  GlobalCount critical_events() const;

  /// Scheduler self-measurements (ticks, waits, targeted wakeups, stall
  /// detections — see sched/sched_stats.h).  Snapshot; it never blocks
  /// the scheduler (it sums the threads' tallies under the lock only
  /// thread registration takes).  The wait fields count causal per-key
  /// waits too: they share the counter's turn gate.
  sched::SchedStats sched_stats() const { return counter_.stats(); }

  /// Network critical events executed so far ("#nw events").
  std::uint64_t network_events() const {
    return nw_events_.load(std::memory_order_relaxed);
  }

  /// Threads created so far (including main).
  std::size_t thread_count() const { return registry_.size(); }

  /// Replay-side log access (nullptr outside replay).
  const record::VmLog* replay_log() const { return replay_log_.get(); }

  /// Every structured divergence report this VM's threads produced (replay
  /// forensics).  One failed replay typically yields one affirmative report
  /// plus one stall/poisoned victim report per sibling thread; the session
  /// selects the most blameworthy across VMs with sched::precedes.
  std::vector<sched::DivergenceReport> divergence_reports() const;

  /// Raises a divergence from a replay gateway outside the turn machinery
  /// (network outcomes irreconcilable with the log): builds the structured
  /// report from the calling thread's state, records it, and throws
  /// sched::ReportedDivergenceError.  Replay mode only.
  [[noreturn]] void replay_divergence(sched::EventKind kind,
                                      const std::string& what,
                                      ConflictKey conflict =
                                          kThreadLocalConflict);

  /// True when this record-mode Vm streams its log to a spool file instead
  /// of accumulating it in memory (VmConfig::spool_path set).
  bool spooling() const { return spooler_ != nullptr; }

  /// Spool file path ("" when not spooling).
  const std::string& spool_path() const { return config_.spool_path; }

  /// Spooler self-measurements (zeroes when not spooling).  The
  /// queue_high_water_bytes field is the bounded-memory witness asserted by
  /// tests/log_spool_test.cc.
  record::SpoolStats spool_stats() const {
    return spooler_ ? spooler_->stats() : record::SpoolStats{};
  }

  /// Ships a checkpoint anchor into the spool stream (record mode,
  /// flight-recorder spools only — a no-op otherwise).  Called by
  /// checkpoint::Checkpointer at each record-side barrier so the flight
  /// ring's eviction horizon advances: chunks older than the newest anchor
  /// chunk become evictable, and the retained tail stays replayable from
  /// the anchor's state (docs/INTERNALS.md §1g).
  void spool_anchor(const record::SpoolAnchor& anchor);

  /// Observer invoked after every critical event (any mode), with the
  /// event's trace record.  The hook behind the replay debugger
  /// (examples/replay_debugger): breakpoints, event printing, state
  /// inspection at exact schedule positions.  Set before threads start;
  /// the callback runs on application threads and must be thread-safe.
  using EventObserver = std::function<void(const sched::TraceRecord&)>;
  void set_event_observer(EventObserver observer) {
    observer_ = std::move(observer);
  }

  // --- event gateway (used by SharedVar / Monitor / sockets) -----------------

  /// Body of a critical event; receives the event's global counter value
  /// and returns the trace aux (a hash of whatever the event observed).
  using EventBody = std::function<std::uint64_t(GlobalCount)>;

  /// Non-blocking critical event: counter update + body as a single atomic
  /// action (record) / executed at its recorded turn (replay) / plain call
  /// (passthrough).  Returns the event's global counter value (0 in
  /// passthrough).  When `body` is null the event is a pure mark and
  /// `fixed_aux` is traced.  `conflict` is the event's conflict key (see
  /// ConflictKey): the record-sharding stripe key, the causal-mode per-key
  /// order, and — in causal replay — the key whose predecessor the event
  /// waits on.  Total-order replay ignores it (the recorded total order
  /// already serializes everything); gateways must still pass the same key
  /// in both modes so a causal replay waits on the object it recorded.
  GlobalCount critical_event(sched::EventKind kind,
                             const EventBody& body = nullptr,
                             std::uint64_t fixed_aux = 0,
                             ConflictKey conflict = kThreadLocalConflict);

  /// Marks an already-executed blocking event (the paper's marking
  /// strategy): equivalent to critical_event with an empty body.
  GlobalCount mark_event(sched::EventKind kind, std::uint64_t aux,
                         ConflictKey conflict = kThreadLocalConflict);

  /// Replay only: blocks until the calling thread's next critical event's
  /// turn and returns its global counter value (without ticking).  `kind`
  /// and `conflict` describe the event for divergence forensics and — in
  /// causal replay — name the key whose predecessor the turn waits on, so
  /// blocking-read gateways must pass the same key they mark with in
  /// record mode.
  GlobalCount replay_turn_begin(sched::EventKind kind =
                                    sched::EventKind::kSharedRead,
                                ConflictKey conflict = kThreadLocalConflict);

  /// Replay only: completes the event started by replay_turn_begin —
  /// ticks the counter, advances the thread's cursor, traces.
  void replay_turn_end(sched::EventKind kind, std::uint64_t aux);

  /// Record quantum: gives up the section stripe `state`'s thread holds, so
  /// a contender goes ahead at once instead of waiting out the quantum.
  /// Gateways call it on the calling thread before they block outside the
  /// scheduler (a native monitor lock, a condvar wait, a network call).  A
  /// no-op when the thread holds no stripe (replay, passthrough, quantum 0).
  void yield_stripe(sched::ThreadState& state) {
    counter_.yield_stripe(state.stripe_hold);
  }

  /// Spawns an application thread.  The spawn is a kThreadStart critical
  /// event of the *parent*, which makes threadNum assignment part of the
  /// enforced schedule ("threads are created in the same order in the
  /// record and replay phases").  Internal: used by VmThread.
  sched::ThreadState& register_child_thread();

  /// Abandons the run: poisons the global counter (sibling threads blocked
  /// on their turns unwind with ReplayDivergenceError) and shuts the
  /// network down (threads blocked in socket calls unwind with socket
  /// errors).  Called automatically when any VmThread body throws.
  void poison();

  /// Replay-from-checkpoint (src/checkpoint): fast-forwards the global
  /// counter past `checkpoint_gc`, pre-registers the `threads_created - 1`
  /// worker threads that completed before the checkpoint (their cursors
  /// must be exhausted by it — quiescence), and restores the main thread's
  /// cursor position and network event number.  Replay mode only; must run
  /// before any event executes, from the main thread.
  void resume_replay(GlobalCount checkpoint_gc, std::uint32_t threads_created,
                     EventNum main_event_num);

 private:
  friend class NetEvent;
  friend class VmThread;

  /// Records one network event outcome: appended to the in-memory network
  /// log, or streamed to the spool file when spooling.  Record mode only;
  /// the gateways log through NetEvent.
  void log_network_entry(ThreadNum thread, record::NetworkLogEntry entry);

  /// Binds/unbinds the calling OS thread (VmThread internals).
  static void bind_current(Vm* vm, sched::ThreadState* state);

  /// Stall-detector runner registry (sched::GlobalCounter::runner_*):
  /// attach/bind marks a thread as a runner; a thread blocked outside the
  /// scheduler (VmThread::join) deregisters for the duration so the
  /// detector knows whether counter progress is still possible.  Ending
  /// also gives up the calling thread's section stripe (yield_stripe):
  /// the thread is about to block in a join or to finish.
  void runner_began() { counter_.runner_began(); }
  void runner_ended();

  /// Record-mode chaos: maybe yield/sleep before an event (see
  /// VmConfig::chaos_prob).
  void maybe_chaos();

  /// Replay: waits for the calling thread's next event's turn and returns
  /// its counter value.  With leasing, a turn at the head of an interval
  /// performs the one await for the whole interval and takes the lease
  /// (when `leasable`); turns within an active lease return immediately —
  /// no atomics, no mutex.  `leasable` is false for events that need the
  /// published counter exact (kGlobalConflict), which run per-event.
  /// A ReplayDivergenceError from the cursor or counter is enriched here
  /// into a ReportedDivergenceError carrying the thread's DivergenceReport
  /// (`event_known`/`kind`/`conflict` describe the attempted event when the
  /// caller knows it).
  GlobalCount replay_turn_wait(sched::ThreadState& state, bool leasable,
                               bool event_known = false,
                               sched::EventKind kind =
                                   sched::EventKind::kSharedRead,
                               ConflictKey conflict = kThreadLocalConflict);

  /// Builds the structured report for a divergence of `state`'s thread from
  /// its thread-local replay position (cursor, lease, recent-event ring).
  sched::DivergenceReport make_divergence_report(
      const sched::ThreadState& state, DivergenceCause cause,
      const std::string& detail, bool event_known, sched::EventKind kind,
      ConflictKey conflict) const;

  /// Records `report` for session-level selection and throws it as a
  /// ReportedDivergenceError whose message starts with `detail`.
  [[noreturn]] void throw_divergence(sched::DivergenceReport report);

  /// Replay: completes event `g` — within a lease, thread-local
  /// bookkeeping with stride publication and a single interval-end
  /// completion; otherwise one tick.  Advances the cursor either way.
  void replay_turn_done(sched::ThreadState& state, GlobalCount g);

  /// Causal order mode: the cell that orders `conflict`'s events — the
  /// object's own, or `state`'s thread's for thread-local events.
  static sched::TurnCell& order_cell(sched::ThreadState& state,
                                     ConflictKey conflict) {
    return conflict == kThreadLocalConflict ? state.local_order
                                            : conflict->order_;
  }

  /// Replay: publishes and releases the calling thread's active lease (if
  /// any) so the counter is exact — used before kGlobalConflict events
  /// (checkpoint barriers snapshot arbitrary state against value()).
  void lease_quiesce(sched::ThreadState& state);

  void after_event(sched::ThreadState& state, sched::EventKind kind,
                   std::uint64_t aux, GlobalCount gc);

  /// Merges one thread's buffered trace records into trace_ and, when
  /// spooling, also streams them to the spool file as a kTrace item (a
  /// flight recorder streams them only).
  /// Called by the owning thread (thread end, detach, trace()) or at end of
  /// phase when all threads have quiesced.
  void flush_trace(sched::ThreadState& state);

  /// Merges every thread's buffer (end of phase; all threads finished).
  void flush_all_traces();

  /// Spooling record mode: called by the owning thread after each of its
  /// critical events; every spool_flush_events_ events it ships the
  /// thread's closed intervals and trace buffer to the spooler, keeping
  /// per-thread resident log state O(batch) instead of O(run length).
  void maybe_spool_flush(sched::ThreadState& state);

  std::shared_ptr<net::Network> network_;
  VmConfig config_;
  std::shared_ptr<const record::VmLog> replay_log_;

  sched::GlobalCounter counter_;

  /// True under order_mode = kCausal in record or replay.  Record: each
  /// event takes its key's next seq inside its GC-critical section.  Replay: the turn protocol waits on the key's cell instead of
  /// the counter (which still ticks, for value() observers and finish
  /// checks).
  const bool causal_;

  /// The conflict key every spawn shares (VmThread): thread numbering is
  /// global to the VM, so spawns must serialize with their counter order.
  Conflict spawns_;

  /// Structured reports of every divergence any of this VM's threads hit
  /// (replay).  Threads append at throw time — before unwinding can race
  /// with joins — so the session reads a complete set after joining.
  mutable std::mutex divergence_mutex_;
  std::vector<sched::DivergenceReport> divergences_;

  std::mutex chaos_mutex_;
  std::unique_ptr<Xoshiro256> chaos_rng_;
  sched::ThreadRegistry registry_;
  sched::ExecutionTrace trace_;
  record::NetworkLog network_log_;
  std::atomic<std::uint64_t> nw_events_{0};
  EventObserver observer_;

  /// Streaming spooler (record mode with VmConfig::spool_path; else null).
  std::unique_ptr<record::LogSpooler> spooler_;
  /// Events between per-thread spool flushes (derived from
  /// tuning.spool_chunk_bytes so one flush roughly fills a chunk).
  GlobalCount spool_flush_events_ = 0;
};

}  // namespace djvu::vm
