// The DejaVu session facade: one distributed application, runnable in
// native / record / replay modes, with log persistence and replay
// verification.
//
// A session describes the world (§1's closed / open / mixed cases fall out
// of which VMs are declared DJVMs): every VM is placed on a simulated host
// and flagged instrumented or plain.  The set of DJVM hosts is computed from
// the declarations and handed to every DJVM — the paper's "environment known
// before the application executes" (§5).
//
//   dejavu::Session s(cfg);
//   s.add_vm("server", /*host=*/1, /*djvm=*/true, server_main);
//   s.add_vm("client", /*host=*/2, /*djvm=*/true, client_main);
//   auto rec = s.record();
//   auto rep = s.replay(rec);        // re-executes only the DJVMs
//   dejavu::verify(rec, rep);        // throws on the first divergence
//
// The named phases are wrappers over one entry point, run(RunSpec): mode +
// seed + spool destination / replay source in a single struct.  With
// tuning.spool_dir set (or RunSpec::spool_dir), record runs stream their
// logs to disk in bounded memory and replay_from() replays them straight
// from the spool files — including recordings of crashed processes, which
// recover to their last intact chunk.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/tuning.h"
#include "net/fault_model.h"
#include "record/log_spool.h"
#include "record/vm_log.h"
#include "sched/divergence.h"
#include "sched/trace.h"
#include "vm/vm.h"

namespace djvu::core {

/// Per-session configuration.
struct SessionConfig {
  /// Simulated network behaviour (delays, loss, segmentation, seed).
  net::NetworkConfig net{};

  /// Keep execution traces for verification (disable for overhead
  /// benchmarks).  A spooled record run keeps its trace in memory too, so
  /// its memory is bounded only with this off (or as a flight recorder).
  bool keep_trace = true;

  /// Shared performance/behaviour knobs — stall detector, record sharding,
  /// replay leasing, chaos fuzzing, log spooling.  The same struct is
  /// embedded in vm::VmConfig (whose doc comments are authoritative for
  /// each knob's semantics) and copied across in one assignment in
  /// session.cc; per-VM derived values (chaos seed, the concrete spool
  /// file path) are computed there, not configured here.
  TuningConfig tuning;
};

/// Outcome of one VM in one run.
struct VmRunInfo {
  std::string name;
  DjvmId vm_id = 0;
  bool djvm = false;

  /// gc-sorted critical-event trace, as the run kept it in memory — a
  /// spooled record run included, whose spool is never read back for it.
  /// Empty when tracing is off, the VM is plain, or the VM recorded as a
  /// flight recorder (its trace lives only in the bounded spool tail).
  std::vector<sched::TraceRecord> trace;

  /// Trace digest (0 whenever `trace` is empty).
  std::uint64_t trace_digest = 0;

  /// Complete log bundle (record runs of DJVMs only; empty when the run
  /// spooled — the data lives in the file at `spool_path` instead).
  std::optional<record::VmLog> log;

  /// Spool file this VM recorded into ("" when the run kept its log in
  /// memory).  Replay and export_chrome_trace() of this RunResult stream
  /// the file back, once per call.
  std::string spool_path;

  /// Spooler self-measurements (all zero when not spooled).
  /// spool.queue_high_water_bytes is the bounded-memory witness: it never
  /// exceeds tuning.spool_buffer_bytes (+ one oversized item).
  record::SpoolStats spool{};

  GlobalCount critical_events = 0;
  std::uint64_t network_events = 0;

  /// Scheduler self-measurements for this VM's run (ticks, turn waits,
  /// targeted wakeups, stall detections — see sched/sched_stats.h).  All
  /// zero for plain (passthrough) VMs, which never touch the counter.
  sched::SchedStats sched{};

  /// Wall-clock seconds of this VM's main (its component's execution time;
  /// the per-component "rec ovhd" rows divide record by native per VM).
  double wall_seconds = 0;
};

/// Handle to a spooled recording on disk: the directory holding one
/// <name>.djvuspool file per DJVM.  Obtained from RunResult::recording()
/// after a spooled record run, or constructed directly to replay a
/// recording made by an earlier process (including one that crashed —
/// spool files recover to their last valid chunk).
struct RecordingRef {
  std::string dir;
};

/// Outcome of one whole-application run.
struct RunResult {
  std::vector<VmRunInfo> vms;

  /// Wall-clock seconds for the whole run (drives "rec ovhd" rows).
  double wall_seconds = 0;

  /// Directory the run spooled into ("" for in-memory runs).
  std::string spool_dir;

  /// Handle for replaying this run's on-disk spool files (possibly from
  /// another process); throws UsageError when the run did not spool.
  RecordingRef recording() const;

  /// Finds a VM's info by name; throws UsageError when absent.
  const VmRunInfo& vm(const std::string& name) const;
};

/// What Session::run should do — the one entry point behind which the
/// run_native()/record()/replay() trio are thin wrappers.
struct RunSpec {
  enum class Mode {
    kNative,  ///< everything uninstrumented (baseline "unmodified JVM")
    kRecord,  ///< DJVMs record, plain VMs run raw
    kReplay,  ///< re-execute only the DJVMs against recorded logs
  };

  Mode mode = Mode::kNative;

  /// Replaces the configured network seed for this run (sweeps).
  std::optional<std::uint64_t> seed;

  /// kRecord: overrides tuning.spool_dir for this run — set to a directory
  /// to spool this recording there, or to "" to force the in-memory path.
  std::optional<std::string> spool_dir;

  // --- kReplay log source: set exactly one -------------------------------
  /// A record() result from this process (in-memory or spooled).
  const RunResult* recorded = nullptr;
  /// Explicit log bundles (e.g. loaded from disk with load_logs).
  const std::vector<record::VmLog>* logs = nullptr;
  /// A spooled recording on disk (streams each file back; tolerates torn
  /// tails by replaying the recovered prefix).
  std::optional<RecordingRef> recording;
};

/// One distributed application, runnable repeatedly.
class Session {
 public:
  explicit Session(SessionConfig config = {});

  /// Declares a VM: its name, host placement, whether it runs a DJVM, and
  /// its main function.  Call before the first run.
  void add_vm(std::string name, net::HostId host, bool djvm,
              std::function<void(vm::Vm&)> main);

  /// The one run entry point: mode, seed, spool destination and replay
  /// source in a single spec.  The named methods below are thin wrappers
  /// over this.
  RunResult run(const RunSpec& spec);

  /// Runs everything uninstrumented (the baseline "unmodified JVM").
  /// Equivalent to run({.mode = RunSpec::Mode::kNative}).
  RunResult run_native();

  /// Record phase: DJVMs record, plain VMs run raw.  `seed_override`
  /// replaces the configured network seed (sweeps).  Spools when
  /// tuning.spool_dir is set.  Equivalent to run({.mode = kRecord, ...}).
  RunResult record(std::optional<std::uint64_t> seed_override = {});

  /// Replay phase: re-executes only the DJVMs against the recorded logs
  /// (streamed from spool files when `recorded` spooled).  The network
  /// seed may differ — replay must be immune to replay-time network
  /// behaviour (invariants I2/I5).  Equivalent to run({.mode = kReplay,
  /// .recorded = &recorded, ...}).
  RunResult replay(const RunResult& recorded,
                   std::optional<std::uint64_t> seed_override = {});

  /// Replay from explicitly supplied logs (e.g. loaded from disk).
  /// Equivalent to run({.mode = kReplay, .logs = &logs, ...}).
  RunResult replay_logs(const std::vector<record::VmLog>& logs,
                        std::optional<std::uint64_t> seed_override = {});

  /// Replay a spooled recording straight from disk: streams each
  /// <name>.djvuspool in `rec.dir` (or the bare directory-path overload)
  /// through record::LogSource.  A torn tail — the recording process
  /// crashed mid-run — replays the recovered prefix instead of failing.
  /// Equivalent to run({.mode = kReplay, .recording = rec, ...}).
  RunResult replay_from(const RecordingRef& rec,
                        std::optional<std::uint64_t> seed_override = {});
  RunResult replay_from(const std::string& spool_dir,
                        std::optional<std::uint64_t> seed_override = {});

  /// The bug-hunting loop: records repeatedly (a fresh seed per attempt)
  /// until `caught` returns true for a recording, then returns it — ready
  /// to replay as many times as the investigation needs.  Returns nullopt
  /// when max_attempts executions never manifest the condition.
  std::optional<RunResult> record_until(
      const std::function<bool(const RunResult&)>& caught,
      int max_attempts = 100, std::uint64_t seed_base = 1);

  /// Saves every DJVM's log bundle under `dir` as <name>.djvulog.
  static void save_logs(const RunResult& recorded, const std::string& dir);

  /// Loads log bundles previously saved with save_logs.
  std::vector<record::VmLog> load_logs(const std::string& dir) const;

  /// Saves every DJVM's execution trace under `dir` as <name>.djvutrace
  /// (offline diffing; see record/trace_io.h).  Requires keep_trace.
  static void save_traces(const RunResult& run, const std::string& dir);

  /// The incident bundle sealed by the most recent failed run ("" when no
  /// run has sealed one).  Populated only with tuning.incident_dir set: a
  /// replay divergence or a crash unwinding out of a spooled run seals the
  /// spool tails + forensics into a timestamped directory (core/incident.h)
  /// before the error propagates to the caller.
  const std::string& last_incident_dir() const { return last_incident_dir_; }

 private:
  struct VmSpec {
    std::string name;
    net::HostId host;
    bool djvm;
    std::function<void(vm::Vm&)> main;
    DjvmId vm_id;  // assigned in declaration order (DJVMs only)
  };

  /// run() minus incident sealing: resolves the spec's log source and
  /// dispatches to run_impl.  run() wraps this in the incident try/catch
  /// when tuning.incident_dir is set.
  RunResult run_spec(const RunSpec& spec);

  /// The spool directory a failed `spec` would have been using (record
  /// destination or replay source); "" when the run had no disk footprint.
  std::string incident_spool_dir(const RunSpec& spec) const;

  /// `logs` (replay only) are ready to consume as-is: run() has already
  /// serializer-roundtripped in-memory bundles / loaded each spool exactly
  /// once, so this layer never re-reads a file or re-serializes a log.
  RunResult run_impl(
      vm::Mode djvm_mode,
      const std::vector<std::shared_ptr<const record::VmLog>>* logs,
      std::optional<std::uint64_t> seed_override,
      const std::string& spool_dir);

  SessionConfig config_;
  std::vector<VmSpec> specs_;
  std::string last_incident_dir_;
};

/// Compares record and replay results; throws a
/// sched::ReportedDivergenceError (a ReplayDivergenceError carrying a
/// structured DivergenceReport with cause kTraceMismatch) naming the first
/// differing event when the executions are not identical.
void verify(const RunResult& recorded, const RunResult& replayed);

/// Exports a run's recorded schedules — and per-event traces when
/// keep_trace was on — as a Chrome trace_event JSON file at `path`,
/// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing: one process
/// track per DJVM, one thread track per recorded thread, one slice per
/// logical schedule interval on a global-counter timeline.  Spooled
/// recordings are streamed back from their spool files.  When `divergence`
/// is supplied (from a failed replay), an instant marker is drawn at the
/// divergence position on the blamed VM's track.
void export_chrome_trace(const RunResult& run, const std::string& path,
                         const sched::DivergenceReport* divergence = nullptr);

}  // namespace djvu::core
