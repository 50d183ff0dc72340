#include "replay/doctor.h"

#include <algorithm>
#include <filesystem>

#include "common/strutil.h"
#include "record/log_spool.h"
#include "record/run_manifest.h"

namespace djvu::replay {
namespace {

/// Half-width of the context window around the divergence position.
constexpr GlobalCount kContextWindow = 16;

/// All spool files that could belong to the diverged VM.  A name match is
/// authoritative (one candidate); the vm-id header scan is not — ids repeat
/// across runs sharing a spool dir, so every match is returned and the
/// caller reports >1 as an ambiguity instead of silently picking one.
std::vector<std::string> locate_spool_files(const sched::DivergenceReport& d,
                                            const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(path, ec)) {
    if (fs::exists(path, ec)) return {path};
    return {};
  }
  // A run manifest, when present, is authoritative: it names exactly the
  // files of the recorded run, so stale spools sharing the directory can
  // never create an N-way vm-id ambiguity.
  if (record::run_manifest_exists(path)) {
    try {
      const record::RunManifest manifest = record::load_run_manifest(path);
      const record::RunManifestVm* vm =
          d.vm_name.empty() ? nullptr : manifest.by_name(d.vm_name);
      if (vm == nullptr) vm = manifest.by_id(d.vm_id);
      if (vm != nullptr) {
        const std::string file = vm->spool_path(path);
        if (fs::exists(file, ec)) return {file};
        return {};
      }
    } catch (const Error&) {
      // Unreadable manifest — fall through to the name/header scan.
    }
  }
  if (!d.vm_name.empty()) {
    const std::string named = path + "/" + d.vm_name + ".djvuspool";
    if (fs::exists(named, ec)) return {named};
  }
  // Fall back to matching the VM id in each spool header (one header read
  // per candidate — LogSource decodes lazily).
  std::vector<std::string> matches;
  for (const auto& entry : fs::directory_iterator(path, ec)) {
    if (entry.path().extension() != ".djvuspool") continue;
    try {
      record::LogSource source(entry.path().string());
      if (source.vm_id() == d.vm_id) matches.push_back(entry.path().string());
    } catch (const Error&) {
      // Unreadable candidate — keep scanning.
    }
  }
  // directory_iterator order is filesystem-dependent; make reports stable.
  std::sort(matches.begin(), matches.end());
  return matches;
}

void note(DoctorReport& rep, std::string text) {
  rep.notes.push_back(std::move(text));
}

void sort_context(std::vector<ContextInterval>& context) {
  std::sort(context.begin(), context.end(),
            [](const ContextInterval& a, const ContextInterval& b) {
              if (a.interval.first != b.interval.first) {
                return a.interval.first < b.interval.first;
              }
              return a.thread < b.thread;
            });
}

void derive_notes(DoctorReport& rep, GlobalCount recorded_critical_events) {
  const sched::DivergenceReport& d = rep.divergence;
  const GlobalCount pos = d.divergence_gc();
  switch (d.cause) {
    case DivergenceCause::kBeyondSchedule:
      note(rep, str_format(
                    "thread %u exhausted its recorded schedule after %llu "
                    "event(s) and attempted at least one more critical "
                    "event — the replayed execution does more work than "
                    "the recording (code or input likely differs)",
                    d.thread,
                    static_cast<unsigned long long>(d.thread_events_replayed)));
      break;
    case DivergenceCause::kIncompleteReplay:
      note(rep,
           "the replayed execution performed fewer critical events than "
           "the recording — a thread finished (or was never created) with "
           "recorded schedule still pending");
      break;
    case DivergenceCause::kNetworkMismatch:
      note(rep,
           "a network outcome differed from the recorded one — the replay "
           "environment does not reproduce the recorded network world");
      break;
    case DivergenceCause::kTraceMismatch:
      note(rep,
           "schedules matched but an event payload differed — "
           "nondeterminism outside the intercepted API surface");
      break;
    case DivergenceCause::kStall:
    case DivergenceCause::kPoisoned:
      note(rep,
           "this thread is a waiting victim, not the root cause; the "
           "affirmative report with the lowest gc names the culprit");
      break;
    case DivergenceCause::kCounterPassed:
    case DivergenceCause::kUnknown:
      break;
  }
  if (rep.owner_known && rep.recorded_owner_thread != d.thread) {
    note(rep, str_format(
                  "at gc %llu the recorded schedule grants the turn to "
                  "thread %u (interval [%llu, %llu]), not thread %u",
                  static_cast<unsigned long long>(pos),
                  rep.recorded_owner_thread,
                  static_cast<unsigned long long>(
                      rep.recorded_owner_interval.first),
                  static_cast<unsigned long long>(
                      rep.recorded_owner_interval.last),
                  d.thread));
  }
  if (!rep.owner_known && pos >= recorded_critical_events) {
    note(rep, str_format(
                  "the divergence position (gc %llu) lies beyond the last "
                  "recorded critical event (%llu total) — the replayed run "
                  "outgrew the recording",
                  static_cast<unsigned long long>(pos),
                  static_cast<unsigned long long>(
                      recorded_critical_events)));
  }
  if (!rep.clean_end) {
    note(rep, str_format(
                  "the spool file has a torn tail (%llu byte(s) dropped): "
                  "the recording process likely crashed mid-run; replay "
                  "covers only the recovered prefix",
                  static_cast<unsigned long long>(rep.truncated_bytes)));
  }
}

}  // namespace

void diagnose(DoctorReport& rep, const record::VmLog& log) {
  rep.loaded = true;
  rep.stats = record::compute_stats(log);
  const sched::DivergenceReport& d = rep.divergence;
  const GlobalCount pos = d.divergence_gc();
  const GlobalCount lo = pos > kContextWindow ? pos - kContextWindow : 0;
  const GlobalCount hi = pos + kContextWindow;

  const auto& per_thread = log.schedule.per_thread;
  for (ThreadNum t = 0; t < per_thread.size(); ++t) {
    for (const sched::LogicalInterval& iv : per_thread[t]) {
      const bool owns = iv.first <= pos && pos <= iv.last;
      if (owns) {
        rep.owner_known = true;
        rep.recorded_owner_thread = t;
        rep.recorded_owner_interval = iv;
      }
      if (iv.last >= lo && iv.first <= hi) {
        rep.context.push_back({t, iv, owns});
      }
    }
  }
  sort_context(rep.context);
  if (d.thread < per_thread.size()) {
    rep.thread_recorded_intervals = per_thread[d.thread].size();
    for (const sched::LogicalInterval& iv : per_thread[d.thread]) {
      rep.thread_recorded_events += iv.length();
    }
  }
  derive_notes(rep, log.stats.critical_events);
}

DoctorReport diagnose_spool(const sched::DivergenceReport& divergence,
                            const std::string& path) {
  DoctorReport rep;
  rep.divergence = divergence;
  const std::vector<std::string> candidates =
      locate_spool_files(divergence, path);
  if (candidates.empty()) {
    note(rep, "no spool file for vm " + std::to_string(divergence.vm_id) +
                  " under '" + path + "' — recorded-side context unavailable");
    return rep;
  }
  if (candidates.size() > 1) {
    std::string which;
    for (const auto& c : candidates) {
      if (!which.empty()) which += ", ";
      which += "'" + c + "'";
    }
    note(rep, str_format("%zu spool files under '%s' carry vm id %u (",
                         candidates.size(), path.c_str(), divergence.vm_id) +
                  which +
                  ") — likely leftovers from earlier runs sharing the spool "
                  "dir; refusing to guess, pass the exact file (or set "
                  "vm_name) to disambiguate");
    return rep;
  }
  const std::string& file = candidates.front();
  rep.log_found = true;
  rep.log_path = file;
  // One load serves both halves of the diagnosis: the crash-consistency
  // verdict (a torn tail is diagnostic: the recording may simply be shorter
  // than the replayed run expected) and the cross-reference.
  record::VmLog log;
  try {
    log = record::load_spooled_log(file, &rep.clean_end, &rep.truncated_bytes);
  } catch (const Error& e) {
    // Damage beyond a torn tail (a foreign header, a certified chunk that
    // does not decode) is a finding about the recording, not a doctor
    // failure.
    note(rep, "the spool file could not be loaded (" + std::string(e.what()) +
                  ") — it is damaged beyond a torn tail; recorded-side "
                  "context unavailable");
    return rep;
  }
  diagnose(rep, log);
  return rep;
}

std::string to_text(const DoctorReport& rep) {
  std::string out = "replay doctor\n=============\n";
  out += sched::to_text(rep.divergence);
  if (rep.all.size() > 1) {
    out += str_format("%zu report(s) collected; blame order:\n",
                      rep.all.size());
    for (const auto& r : rep.all) {
      out += str_format("  vm %u thread %u: %s at gc %llu%s\n", r.vm_id,
                        r.thread, divergence_cause_name(r.cause),
                        static_cast<unsigned long long>(r.divergence_gc()),
                        r.affirmative() ? "" : " (victim)");
    }
  }
  if (!rep.log_found) {
    out += "recorded log: not found\n";
  } else if (!rep.loaded) {
    out += "recorded log: " + rep.log_path + " (not loaded)\n";
  } else {
    out += "recorded log: " + rep.log_path + "\n";
    if (!rep.clean_end) {
      out += str_format("  TORN TAIL: %llu byte(s) dropped after the last "
                        "valid chunk\n",
                        static_cast<unsigned long long>(rep.truncated_bytes));
    }
    if (rep.owner_known) {
      out += str_format(
          "recorded owner of gc %llu: thread %u, interval [%llu, %llu]\n",
          static_cast<unsigned long long>(rep.divergence.divergence_gc()),
          rep.recorded_owner_thread,
          static_cast<unsigned long long>(rep.recorded_owner_interval.first),
          static_cast<unsigned long long>(rep.recorded_owner_interval.last));
    }
    out += str_format(
        "thread %u recorded: %llu event(s) in %zu interval(s)\n",
        rep.divergence.thread,
        static_cast<unsigned long long>(rep.thread_recorded_events),
        rep.thread_recorded_intervals);
    if (!rep.context.empty()) {
      out += "recorded schedule around the divergence:\n";
      for (const auto& c : rep.context) {
        out += str_format("  thread %u  [%llu, %llu]%s\n", c.thread,
                          static_cast<unsigned long long>(c.interval.first),
                          static_cast<unsigned long long>(c.interval.last),
                          c.owns_divergence ? "  <-- divergence here" : "");
      }
    }
    out += "log shape:\n";
    out += record::to_text(rep.stats);
  }
  if (!rep.notes.empty()) {
    out += "findings:\n";
    for (const auto& n : rep.notes) out += "  - " + n + "\n";
  }
  return out;
}

std::string to_json(const DoctorReport& rep) {
  std::string out = "{";
  out += "\"divergence\": " + sched::to_json(rep.divergence) + ", ";
  out += "\"all\": [";
  for (std::size_t i = 0; i < rep.all.size(); ++i) {
    if (i != 0) out += ", ";
    out += sched::to_json(rep.all[i]);
  }
  out += "], ";
  out += str_format("\"log_found\": %s, ", rep.log_found ? "true" : "false");
  out += "\"log_path\": \"" + sched::json_escape(rep.log_path) + "\", ";
  out += str_format("\"loaded\": %s, ", rep.loaded ? "true" : "false");
  if (rep.loaded) {
    out += str_format("\"clean_end\": %s, ", rep.clean_end ? "true" : "false");
    out += str_format("\"truncated_bytes\": %llu, ",
                      static_cast<unsigned long long>(rep.truncated_bytes));
    out += "\"stats\": " + record::to_json(rep.stats) + ", ";
  }
  out += str_format("\"owner_known\": %s, ",
                    rep.owner_known ? "true" : "false");
  if (rep.owner_known) {
    out += str_format("\"recorded_owner_thread\": %u, ",
                      rep.recorded_owner_thread);
    out += str_format(
        "\"recorded_owner_interval\": {\"first\": %llu, \"last\": %llu}, ",
        static_cast<unsigned long long>(rep.recorded_owner_interval.first),
        static_cast<unsigned long long>(rep.recorded_owner_interval.last));
  }
  if (rep.loaded) {
    out += str_format("\"thread_recorded_events\": %llu, ",
                      static_cast<unsigned long long>(
                          rep.thread_recorded_events));
    out += str_format("\"thread_recorded_intervals\": %zu, ",
                      rep.thread_recorded_intervals);
  }
  out += "\"context\": [";
  for (std::size_t i = 0; i < rep.context.size(); ++i) {
    const auto& c = rep.context[i];
    if (i != 0) out += ", ";
    out += str_format("{\"thread\": %u, \"first\": %llu, \"last\": %llu, "
                      "\"owns_divergence\": %s}",
                      c.thread,
                      static_cast<unsigned long long>(c.interval.first),
                      static_cast<unsigned long long>(c.interval.last),
                      c.owns_divergence ? "true" : "false");
  }
  out += "], ";
  out += "\"notes\": [";
  for (std::size_t i = 0; i < rep.notes.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + sched::json_escape(rep.notes[i]) + "\"";
  }
  out += "]}";
  return out;
}

}  // namespace djvu::replay
