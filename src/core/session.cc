#include "core/session.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <filesystem>
#include <set>
#include <thread>

#include "common/log.h"
#include "core/incident.h"
#include "record/chrome_trace.h"
#include "record/log_spool.h"
#include "record/run_manifest.h"
#include "record/serializer.h"
#include "record/trace_io.h"
#include "sched/divergence.h"
#include "vm/thread.h"

namespace djvu::core {
namespace {

/// Renders the session-level divergence message: the selected report's
/// detail first (callers grep for it), then the blame coordinates.
std::string divergence_message(const sched::DivergenceReport& r) {
  std::string who = r.vm_name.empty() ? std::to_string(r.vm_id)
                                      : (r.vm_name + " (id " +
                                         std::to_string(r.vm_id) + ")");
  return r.detail + " [vm " + who + ", thread " + std::to_string(r.thread) +
         ", cause " + divergence_cause_name(r.cause) + ", at gc " +
         std::to_string(r.divergence_gc()) + "]";
}

/// Sorts reports into blame order and throws the first as a
/// ReportedDivergenceError carrying the whole set.  Precondition:
/// `reports` is non-empty.
[[noreturn]] void throw_blamed(std::vector<sched::DivergenceReport> reports) {
  std::stable_sort(reports.begin(), reports.end(),
                   [](const sched::DivergenceReport& a,
                      const sched::DivergenceReport& b) {
                     return sched::precedes(a, b);
                   });
  sched::DivergenceReport best = reports.front();
  // Build the message before the throw expression: argument evaluation
  // order is unspecified, so a std::move(best) in the same call could gut
  // the report's strings before divergence_message reads them.
  std::string msg = divergence_message(best);
  throw sched::ReportedDivergenceError(std::move(msg), std::move(best),
                                       std::move(reports));
}

}  // namespace

const VmRunInfo& RunResult::vm(const std::string& name) const {
  for (const auto& info : vms) {
    if (info.name == name) return info;
  }
  throw UsageError("no VM named '" + name + "' in this run");
}

RecordingRef RunResult::recording() const {
  if (spool_dir.empty()) {
    throw UsageError(
        "RunResult::recording(): this run did not spool (set "
        "tuning.spool_dir or RunSpec::spool_dir to record to disk)");
  }
  return RecordingRef{spool_dir};
}

Session::Session(SessionConfig config) : config_(std::move(config)) {}

void Session::add_vm(std::string name, net::HostId host, bool djvm,
                     std::function<void(vm::Vm&)> main) {
  for (const auto& spec : specs_) {
    if (spec.name == name) {
      throw UsageError("duplicate VM name '" + name + "'");
    }
  }
  DjvmId next_id = 1;
  for (const auto& spec : specs_) {
    if (spec.djvm) ++next_id;
  }
  specs_.push_back(VmSpec{std::move(name), host, djvm, std::move(main),
                          djvm ? next_id : 0});
}

RunResult Session::run(const RunSpec& spec) {
  if (config_.tuning.incident_dir.empty()) return run_spec(spec);
  try {
    return run_spec(spec);
  } catch (const sched::ReportedDivergenceError& e) {
    const std::string dir = incident_spool_dir(spec);
    if (!dir.empty()) {
      try {
        last_incident_dir_ =
            seal_incident(config_.tuning.incident_dir, dir, "divergence",
                          &e.report(), &e.all_reports())
                .dir;
      } catch (const Error& seal_err) {
        DJVU_LOG(kWarn) << "incident bundle failed to seal: "
                        << seal_err.what();
      }
    }
    throw;
  } catch (const UsageError&) {
    // Misuse is not an incident: nothing about the recording is evidence.
    throw;
  } catch (const std::exception& e) {
    // A crash unwinding out of a run: capture whatever spool state the VM
    // destructors just sealed (flight rings assemble recover-to-prefix).
    const std::string dir = incident_spool_dir(spec);
    std::error_code ec;
    if (!dir.empty() && std::filesystem::is_directory(dir, ec)) {
      try {
        last_incident_dir_ =
            seal_incident(config_.tuning.incident_dir, dir, "crash").dir;
      } catch (const Error& seal_err) {
        DJVU_LOG(kWarn) << "incident bundle failed to seal: "
                        << seal_err.what();
      }
    }
    (void)e;
    throw;
  }
}

std::string Session::incident_spool_dir(const RunSpec& spec) const {
  switch (spec.mode) {
    case RunSpec::Mode::kNative:
      return "";
    case RunSpec::Mode::kRecord:
      return spec.spool_dir ? *spec.spool_dir : config_.tuning.spool_dir;
    case RunSpec::Mode::kReplay:
      if (spec.recording) return spec.recording->dir;
      if (spec.recorded != nullptr) return spec.recorded->spool_dir;
      return "";
  }
  return "";
}

RunResult Session::run_spec(const RunSpec& spec) {
  switch (spec.mode) {
    case RunSpec::Mode::kNative:
      return run_impl(vm::Mode::kPassthrough, nullptr, spec.seed, "");
    case RunSpec::Mode::kRecord:
      return run_impl(vm::Mode::kRecord, nullptr, spec.seed,
                      spec.spool_dir ? *spec.spool_dir
                                     : config_.tuning.spool_dir);
    case RunSpec::Mode::kReplay: {
      const int sources = (spec.recorded != nullptr) + (spec.logs != nullptr) +
                          spec.recording.has_value();
      if (sources != 1) {
        throw UsageError(
            "RunSpec replay needs exactly one log source (recorded / logs / "
            "recording), got " +
            std::to_string(sources));
      }
      // Every log is resolved here, exactly once per run: in-memory bundles
      // round-trip through the serializer (replay consumes exactly what a
      // log file would contain, never in-memory state the file lacks),
      // disk sources are streamed back once — run_impl shares the loaded
      // logs by pointer instead of re-reading per VM.
      std::vector<std::shared_ptr<const record::VmLog>> logs;
      if (spec.logs != nullptr) {
        for (const auto& log : *spec.logs) {
          logs.push_back(std::make_shared<const record::VmLog>(
              record::deserialize(record::serialize(log))));
        }
      } else if (spec.recorded != nullptr) {
        for (const auto& info : spec.recorded->vms) {
          if (!info.spool_path.empty()) {
            logs.push_back(std::make_shared<const record::VmLog>(
                record::load_spooled_log(info.spool_path)));
          } else if (info.log) {
            logs.push_back(std::make_shared<const record::VmLog>(
                record::deserialize(record::serialize(*info.log))));
          }
        }
      } else {
        // Prefer the run manifest when the directory carries one: it names
        // exactly the files of the recorded run, so stale spools from an
        // earlier (pre-manifest) recording in the same directory can never
        // be picked up by name coincidence.
        std::optional<record::RunManifest> manifest;
        if (record::run_manifest_exists(spec.recording->dir)) {
          manifest = record::load_run_manifest(spec.recording->dir);
        }
        for (const auto& s : specs_) {
          if (!s.djvm) continue;
          std::string file =
              spec.recording->dir + "/" + s.name + ".djvuspool";
          if (manifest) {
            const record::RunManifestVm* vm = manifest->by_name(s.name);
            if (vm == nullptr) {
              throw UsageError(
                  "recording manifest in '" + spec.recording->dir +
                  "' lists no VM named '" + s.name +
                  "' — the recording was made with a different VM set");
            }
            file = vm->spool_path(spec.recording->dir);
          }
          logs.push_back(std::make_shared<const record::VmLog>(
              record::load_spooled_log(file)));
        }
      }
      return run_impl(vm::Mode::kReplay, &logs, spec.seed, "");
    }
  }
  throw UsageError("unreachable");
}

RunResult Session::run_native() {
  return run(RunSpec{});
}

RunResult Session::record(std::optional<std::uint64_t> seed_override) {
  RunSpec spec;
  spec.mode = RunSpec::Mode::kRecord;
  spec.seed = seed_override;
  return run(spec);
}

RunResult Session::replay(const RunResult& recorded,
                          std::optional<std::uint64_t> seed_override) {
  RunSpec spec;
  spec.mode = RunSpec::Mode::kReplay;
  spec.seed = seed_override;
  spec.recorded = &recorded;
  return run(spec);
}

RunResult Session::replay_logs(const std::vector<record::VmLog>& logs,
                               std::optional<std::uint64_t> seed_override) {
  RunSpec spec;
  spec.mode = RunSpec::Mode::kReplay;
  spec.seed = seed_override;
  spec.logs = &logs;
  return run(spec);
}

RunResult Session::replay_from(const RecordingRef& rec,
                               std::optional<std::uint64_t> seed_override) {
  RunSpec spec;
  spec.mode = RunSpec::Mode::kReplay;
  spec.seed = seed_override;
  spec.recording = rec;
  return run(spec);
}

RunResult Session::replay_from(const std::string& spool_dir,
                               std::optional<std::uint64_t> seed_override) {
  return replay_from(RecordingRef{spool_dir}, seed_override);
}

std::optional<RunResult> Session::record_until(
    const std::function<bool(const RunResult&)>& caught, int max_attempts,
    std::uint64_t seed_base) {
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    RunResult rec =
        record(seed_base + static_cast<std::uint64_t>(attempt) * 7919);
    if (caught(rec)) return rec;
  }
  return std::nullopt;
}

RunResult Session::run_impl(
    vm::Mode djvm_mode,
    const std::vector<std::shared_ptr<const record::VmLog>>* logs,
    std::optional<std::uint64_t> seed_override,
    const std::string& spool_dir) {
  if (specs_.empty()) throw UsageError("Session has no VMs");

  net::NetworkConfig net_config = config_.net;
  if (seed_override) net_config.seed = *seed_override;
  auto network = std::make_shared<net::Network>(net_config);

  const bool spooling = djvm_mode == vm::Mode::kRecord && !spool_dir.empty();
  if (spooling) {
    // Stale-spool lifecycle (bugfix): a reused directory may hold
    // .djvuspool files from a previous run with a *different* VM set —
    // replay_from()/diagnose_spool would pick those orphans up.  A
    // directory our own manifest claims is cleared wholesale before the
    // new run; spool files of unknown provenance (no manifest — a
    // pre-manifest recording or someone else's data) are refused with a
    // clear error rather than silently deleted.
    namespace fs = std::filesystem;
    fs::create_directories(spool_dir);
    bool has_spools = false;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(spool_dir, ec)) {
      const fs::path& p = entry.path();
      if (p.extension() == ".djvuspool" ||
          (p.extension() == ".d" &&
           fs::path(p.stem()).extension() == ".djvuspool")) {
        has_spools = true;
        break;
      }
    }
    if (has_spools) {
      if (!record::run_manifest_exists(spool_dir)) {
        throw UsageError(
            "spool directory '" + spool_dir +
            "' contains .djvuspool files without a run manifest (" +
            std::string(record::kRunManifestFile) +
            ") — not produced by this framework's record mode, or older "
            "than the manifest scheme; delete them or record into a fresh "
            "directory");
      }
      for (const auto& entry : fs::directory_iterator(spool_dir, ec)) {
        const fs::path& p = entry.path();
        if (p.extension() == ".djvuspool") {
          fs::remove(p, ec);
        } else if (p.extension() == ".d" &&
                   fs::path(p.stem()).extension() == ".djvuspool") {
          fs::remove_all(p, ec);
        }
      }
    }
    record::RunManifest manifest;
    manifest.unix_time = static_cast<std::int64_t>(std::time(nullptr));
    manifest.order_mode = config_.tuning.order_mode;
    manifest.flight_recorder = config_.tuning.flight_recorder;
    for (const auto& spec : specs_) {
      if (spec.djvm) {
        manifest.vms.push_back(record::RunManifestVm{spec.vm_id, spec.name});
      }
    }
    record::save_run_manifest(manifest, spool_dir);
  }

  // World knowledge: the hosts that run DJVMs.
  std::set<net::HostId> djvm_hosts;
  for (const auto& spec : specs_) {
    if (spec.djvm) djvm_hosts.insert(spec.host);
  }

  struct Running {
    const VmSpec* spec;
    std::unique_ptr<vm::Vm> machine;
    std::thread thread;
    std::exception_ptr error;
    double wall_seconds = 0;
  };
  std::vector<Running> running;

  for (const auto& spec : specs_) {
    const bool instrumented =
        spec.djvm && djvm_mode != vm::Mode::kPassthrough;
    if (djvm_mode == vm::Mode::kReplay && !spec.djvm) {
      // "any message sent to a non-DJVM thread during the record phase need
      // not be sent again" — plain components do not run during replay.
      continue;
    }
    vm::VmConfig cfg;
    cfg.vm_id = spec.vm_id;
    cfg.host = spec.host;
    cfg.mode = instrumented ? djvm_mode : vm::Mode::kPassthrough;
    cfg.djvm_hosts = djvm_hosts;
    cfg.keep_trace = config_.keep_trace;
    // The single conversion point between session and VM configuration:
    // shared knobs cross in one assignment, then the per-VM derived values.
    cfg.tuning = config_.tuning;
    cfg.chaos_seed = net_config.seed * 1000003 + spec.vm_id;
    if (spooling && instrumented) {
      cfg.spool_path = spool_dir + "/" + spec.name + ".djvuspool";
    }

    std::shared_ptr<const record::VmLog> replay_log;
    if (cfg.mode == vm::Mode::kReplay) {
      for (const auto& log : *logs) {
        if (log->vm_id == spec.vm_id) {
          replay_log = log;  // run() already roundtripped/loaded it
          break;
        }
      }
      if (!replay_log) {
        throw UsageError("no recorded log for DJVM '" + spec.name + "' (id " +
                         std::to_string(spec.vm_id) + ")");
      }
    }
    running.push_back(Running{
        &spec,
        std::make_unique<vm::Vm>(network, std::move(cfg), std::move(replay_log)),
        {}, nullptr});
  }

  // Flight-recorder runs with an incident destination arm the fatal-signal
  // markers for the duration of the run: SIGSEGV/SIGABRT drop an INCIDENT
  // marker into each live retention ring (async-signal-safe) before
  // re-raising, so a post-mortem seal_incident knows the tails ended in a
  // signal.  RAII so every exit path disarms.
  struct SignalGuard {
    bool armed = false;
    ~SignalGuard() {
      if (armed) disarm_incident_signals();
    }
  } signal_guard;
  if (spooling && config_.tuning.flight_recorder &&
      !config_.tuning.incident_dir.empty()) {
    std::vector<std::string> rings;
    for (auto& r : running) {
      if (r.machine->spooling()) {
        rings.push_back(record::flight_ring_dir(r.machine->spool_path()));
      }
    }
    arm_incident_signals(rings);
    signal_guard.armed = true;
  }

  const auto start = std::chrono::steady_clock::now();
  for (auto& r : running) {
    r.thread = std::thread([&r, network] {
      const auto vm_start = std::chrono::steady_clock::now();
      try {
        r.machine->attach_main();
        r.spec->main(*r.machine);
        r.machine->detach_current();
        r.wall_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - vm_start)
                             .count();
      } catch (...) {
        r.error = std::current_exception();
        // Unblock peers stuck in network calls so the whole run terminates
        // and the real error surfaces.
        network->shutdown();
      }
    });
  }
  for (auto& r : running) r.thread.join();
  const auto stop = std::chrono::steady_clock::now();

  // Deterministic failure selection instead of first-exception-wins:
  // non-divergence errors (usage/setup problems) still win in declaration
  // order, but when every failure is a replay divergence the per-VM
  // structured reports are pooled and blame order (sched::precedes —
  // affirmative causes before waiting victims, then lowest gc) picks the
  // report that names the root cause, independent of which VM thread
  // happened to unwind first.
  bool any_error = false;
  for (auto& r : running) any_error = any_error || (r.error != nullptr);
  if (any_error) {
    for (auto& r : running) {
      if (!r.error) continue;
      try {
        std::rethrow_exception(r.error);
      } catch (const ReplayDivergenceError&) {
        // Divergences are selected below.
      } catch (...) {
        throw;
      }
    }
    std::vector<sched::DivergenceReport> reports;
    for (auto& r : running) {
      for (sched::DivergenceReport rep : r.machine->divergence_reports()) {
        rep.vm_name = r.spec->name;
        reports.push_back(std::move(rep));
      }
      if (!r.error) continue;
      // A plain (report-less) divergence still contributes a minimal entry
      // so the failing VM is represented even without forensics.
      try {
        std::rethrow_exception(r.error);
      } catch (const sched::ReportedDivergenceError&) {
        // Already present: Vm::throw_divergence records before throwing.
      } catch (const ReplayDivergenceError& e) {
        sched::DivergenceReport rep;
        rep.vm_id = r.spec->vm_id;
        rep.vm_name = r.spec->name;
        rep.cause = e.cause();
        rep.detail = e.what();
        reports.push_back(std::move(rep));
      }
    }
    if (reports.empty()) {
      for (auto& r : running) {
        if (r.error) std::rethrow_exception(r.error);
      }
    }
    throw_blamed(std::move(reports));
  }

  RunResult result;
  result.wall_seconds = std::chrono::duration<double>(stop - start).count();
  if (spooling) result.spool_dir = spool_dir;
  // End-of-replay verification failures (incomplete replay) are collected
  // across every VM and blame-selected like run-time divergences, so a
  // multi-VM run reports the lowest-gc divergence rather than whichever VM
  // the result loop visited first (satellite: deterministic multi-VM
  // failure reporting).
  std::vector<sched::DivergenceReport> finish_reports;
  for (auto& r : running) {
    VmRunInfo info;
    info.name = r.spec->name;
    info.vm_id = r.spec->vm_id;
    info.djvm = r.spec->djvm && djvm_mode != vm::Mode::kPassthrough;
    info.critical_events = r.machine->critical_events();
    info.network_events = r.machine->network_events();
    info.sched = r.machine->sched_stats();
    info.wall_seconds = r.wall_seconds;
    if (r.machine->mode() == vm::Mode::kRecord) {
      record::VmLog log = r.machine->finish_record();
      if (r.machine->spooling()) {
        // The log lives on disk; the in-memory result carries only the
        // pointer and the spooler's self-measurements.
        info.spool_path = r.machine->spool_path();
        info.spool = r.machine->spool_stats();
      } else {
        info.log = std::move(log);
      }
    } else if (r.machine->mode() == vm::Mode::kReplay) {
      try {
        r.machine->finish_replay();
      } catch (const sched::ReportedDivergenceError& e) {
        sched::DivergenceReport rep = e.report();
        rep.vm_name = r.spec->name;
        finish_reports.push_back(std::move(rep));
      }
    }
    if (config_.keep_trace) {
      // Spooled or not, the trace is the one the run kept in memory (a
      // flight recorder keeps none); a spool is never read back for it.
      // finish_record/finish_replay above flushed every thread's buffer.
      info.trace = r.machine->trace().sorted();
      info.trace_digest = sched::trace_digest(info.trace);
    }
    result.vms.push_back(std::move(info));
  }
  if (!finish_reports.empty()) {
    network->shutdown();
    throw_blamed(std::move(finish_reports));
  }
  network->shutdown();
  return result;
}

void Session::save_logs(const RunResult& recorded, const std::string& dir) {
  for (const auto& info : recorded.vms) {
    if (!info.log) continue;
    record::save_to_file(*info.log, dir + "/" + info.name + ".djvulog");
  }
}

void Session::save_traces(const RunResult& run, const std::string& dir) {
  for (const auto& info : run.vms) {
    if (!info.djvm) continue;
    record::TraceFile trace;
    trace.vm_id = info.vm_id;
    trace.records = info.trace;
    record::save_trace_to_file(trace, dir + "/" + info.name + ".djvutrace");
  }
}

std::vector<record::VmLog> Session::load_logs(const std::string& dir) const {
  std::vector<record::VmLog> logs;
  for (const auto& spec : specs_) {
    if (!spec.djvm) continue;
    logs.push_back(record::load_from_file(dir + "/" + spec.name + ".djvulog"));
  }
  return logs;
}

void verify(const RunResult& recorded, const RunResult& replayed) {
  for (const auto& rec : recorded.vms) {
    if (!rec.djvm) continue;
    const VmRunInfo* rep = nullptr;
    for (const auto& r : replayed.vms) {
      if (r.name == rec.name) rep = &r;
    }
    // Trace mismatches throw ReportedDivergenceError so the doctor and
    // timeline export get coordinates even for divergences only visible in
    // the post-hoc diff (identical schedules, different payloads).
    sched::DivergenceReport d;
    d.vm_id = rec.vm_id;
    d.vm_name = rec.name;
    d.cause = DivergenceCause::kTraceMismatch;
    if (rep == nullptr) {
      d.detail = "VM '" + rec.name + "' missing from the replay run";
      // Copy the message out first: evaluation order of the what-string and
      // std::move(d) within one call is unspecified.
      std::string msg = d.detail;
      throw sched::ReportedDivergenceError(std::move(msg), std::move(d));
    }
    if (rec.trace_digest == rep->trace_digest &&
        rec.trace.size() == rep->trace.size()) {
      continue;
    }
    // Locate the first difference for a useful diagnostic.
    std::size_t n = std::min(rec.trace.size(), rep->trace.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (rec.trace[i] == rep->trace[i]) continue;
      const auto& a = rec.trace[i];
      const auto& b = rep->trace[i];
      d.thread = b.thread;
      d.gc = b.gc;
      d.has_expected = true;
      d.expected_gc = a.gc;
      d.event_known = true;
      d.event = b.kind;
      d.detail =
          "VM '" + rec.name + "' diverged at trace position " +
          std::to_string(i) + ": recorded {gc=" + std::to_string(a.gc) +
          " t" + std::to_string(a.thread) + " " +
          sched::event_kind_name(a.kind) + "} vs replayed {gc=" +
          std::to_string(b.gc) + " t" + std::to_string(b.thread) + " " +
          sched::event_kind_name(b.kind) + "}";
      std::string msg = d.detail;
      throw sched::ReportedDivergenceError(std::move(msg), std::move(d));
    }
    d.gc = n > 0 ? rec.trace[n - 1].gc : 0;
    d.detail = "VM '" + rec.name + "' trace length differs: recorded " +
               std::to_string(rec.trace.size()) + " vs replayed " +
               std::to_string(rep->trace.size());
    std::string msg = d.detail;
    throw sched::ReportedDivergenceError(std::move(msg), std::move(d));
  }
}

void export_chrome_trace(const RunResult& run, const std::string& path,
                         const sched::DivergenceReport* divergence) {
  // Spooled logs are loaded here and kept alive for the export call; the
  // ChromeTraceVm entries only borrow.
  std::vector<std::unique_ptr<record::VmLog>> loaded;
  std::vector<record::ChromeTraceVm> vms;
  for (const auto& info : run.vms) {
    if (!info.djvm) continue;
    record::ChromeTraceVm vm;
    vm.name = info.name;
    vm.vm_id = info.vm_id;
    if (info.log) {
      vm.log = &*info.log;
    } else if (!info.spool_path.empty()) {
      loaded.push_back(std::make_unique<record::VmLog>(
          record::load_spooled_log(info.spool_path)));
      vm.log = loaded.back().get();
    }
    if (!info.trace.empty()) vm.trace = &info.trace;
    if (divergence != nullptr && divergence->vm_id == info.vm_id) {
      vm.divergence = divergence;
    }
    vms.push_back(std::move(vm));
  }
  record::save_chrome_trace(path, vms);
}

}  // namespace djvu::core
