#include "core/incident.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <memory>
#include <sstream>

#include "common/errors.h"
#include "common/file_io.h"
#include "record/chrome_trace.h"
#include "record/log_spool.h"
#include "record/run_manifest.h"
#include "replay/doctor.h"

namespace djvu::core {
namespace {

namespace fs = std::filesystem;

constexpr const char* kManifestMagic = "DJVUINC1";
constexpr const char* kMarkerName = "INCIDENT";

std::string single_line(std::string text) {
  for (char& c : text) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return text;
}

/// Picks a fresh `incident-<YYYYMMDD-HHMMSS>[-N]` directory under root and
/// creates it.  The -N suffix disambiguates two incidents in one second.
std::string create_bundle_dir(const std::string& root) {
  fs::create_directories(root);
  std::time_t now = std::time(nullptr);
  std::tm tm{};
#if defined(_WIN32)
  localtime_s(&tm, &now);
#else
  localtime_r(&now, &tm);
#endif
  char stamp[80];
  std::snprintf(stamp, sizeof stamp, "incident-%04d%02d%02d-%02d%02d%02d",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec);
  std::string base = root + "/" + stamp;
  std::string dir = base;
  for (int n = 1; fs::exists(dir); ++n) {
    dir = base + "-" + std::to_string(n);
  }
  fs::create_directories(dir);
  return dir;
}

/// Reads the signal number out of a ring dir's INCIDENT marker ("signal
/// <n>"); 0 when absent or unparseable.
int read_marker_signal(const std::string& ring_dir) {
  const std::string path = ring_dir + "/" + kMarkerName;
  std::error_code ec;
  if (!fs::exists(path, ec)) return 0;
  try {
    const std::string text = to_string(read_file(path));
    constexpr const char* kPrefix = "signal ";
    if (text.rfind(kPrefix, 0) == 0) {
      return std::atoi(text.c_str() + std::strlen(kPrefix));
    }
  } catch (const Error&) {
  }
  return 0;
}

// --- fatal-signal markers --------------------------------------------------
//
// Everything the handler touches is pre-formatted at arm time: fixed-size
// path buffers, a count published with release ordering.  The handler uses
// only async-signal-safe calls (open/write/close, signal, raise).

constexpr int kMaxMarkerDirs = 16;
constexpr int kMarkerPathMax = 3500;
char g_marker_paths[kMaxMarkerDirs][kMarkerPathMax + 64];
std::atomic<int> g_marker_count{0};
struct sigaction g_prev_segv;
struct sigaction g_prev_abrt;
bool g_armed = false;

extern "C" void incident_signal_handler(int sig) {
  const int n = g_marker_count.load(std::memory_order_acquire);
  // "signal <n>\n", formatted without snprintf (not async-signal-safe
  // everywhere).
  char msg[24];
  int len = 0;
  for (const char* p = "signal "; *p != '\0'; ++p) msg[len++] = *p;
  char digits[12];
  int nd = 0;
  int v = sig;
  do {
    digits[nd++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v > 0 && nd < 11);
  while (nd > 0) msg[len++] = digits[--nd];
  msg[len++] = '\n';
  for (int i = 0; i < n && i < kMaxMarkerDirs; ++i) {
    int fd = ::open(g_marker_paths[i], O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) continue;
    // Best-effort: a failed write still leaves the marker file itself.
    [[maybe_unused]] ssize_t unused = ::write(fd, msg, len);
    ::close(fd);
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

std::uint64_t IncidentBundle::truncated_bytes() const {
  std::uint64_t total = 0;
  for (const IncidentTail& t : tails) total += t.truncated_bytes;
  return total;
}

void arm_incident_signals(const std::vector<std::string>& ring_dirs) {
  int count = 0;
  for (const std::string& dir : ring_dirs) {
    if (count >= kMaxMarkerDirs) break;
    if (dir.size() > kMarkerPathMax) continue;
    std::snprintf(g_marker_paths[count], sizeof g_marker_paths[count],
                  "%s/%s", dir.c_str(), kMarkerName);
    ++count;
  }
  g_marker_count.store(count, std::memory_order_release);
  if (!g_armed) {
    struct sigaction sa{};
    sa.sa_handler = &incident_signal_handler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    sigaction(SIGSEGV, &sa, &g_prev_segv);
    sigaction(SIGABRT, &sa, &g_prev_abrt);
    g_armed = true;
  }
}

void disarm_incident_signals() {
  if (!g_armed) return;
  sigaction(SIGSEGV, &g_prev_segv, nullptr);
  sigaction(SIGABRT, &g_prev_abrt, nullptr);
  g_marker_count.store(0, std::memory_order_release);
  g_armed = false;
}

IncidentBundle seal_incident(const std::string& incident_dir,
                             const std::string& spool_dir,
                             const std::string& kind,
                             const sched::DivergenceReport* divergence,
                             const std::vector<sched::DivergenceReport>* all) {
  if (incident_dir.empty()) throw UsageError("seal_incident: empty dir");
  std::error_code ec;
  if (!fs::is_directory(spool_dir, ec)) {
    throw UsageError("seal_incident: '" + spool_dir +
                     "' is not a spool directory");
  }

  IncidentBundle bundle;
  bundle.kind = kind;
  bundle.dir = create_bundle_dir(incident_dir);
  const std::string spool_out = bundle.dir + "/spool";
  fs::create_directories(spool_out);
  std::vector<std::string> notes;

  // Leftover flight rings first: a crash or fatal signal left the retained
  // chunks as a ring directory; assemble each into a normal (footerless)
  // tail in place, recover-to-prefix, so the copy below captures it.  The
  // ring's INCIDENT marker (fatal-signal handler) is read before assembly
  // removes the directory.
  for (const auto& entry : fs::directory_iterator(spool_dir, ec)) {
    if (entry.path().extension() != ".d") continue;
    const std::string spool_path =
        (entry.path().parent_path() / entry.path().stem()).string();
    if (fs::path(spool_path).extension() != ".djvuspool") continue;
    const int sig = read_marker_signal(entry.path().string());
    try {
      record::FlightTailInfo info = record::assemble_flight_tail(spool_path);
      if (info.assembled) {
        IncidentTail tail;
        tail.name = fs::path(spool_path).filename().string();
        tail.truncated_bytes = info.truncated_bytes;
        tail.from_ring = true;
        tail.marker_signal = sig;
        bundle.tails.push_back(std::move(tail));
      }
    } catch (const Error& e) {
      notes.push_back("ring " + entry.path().filename().string() +
                      " did not assemble: " + single_line(e.what()));
    }
  }

  // Copy every sealed tail (and the run manifest) out of the live
  // directory.
  for (const auto& entry : fs::directory_iterator(spool_dir, ec)) {
    if (entry.path().extension() != ".djvuspool") continue;
    const std::string name = entry.path().filename().string();
    fs::copy_file(entry.path(), spool_out + "/" + name,
                  fs::copy_options::overwrite_existing);
    bool known = false;
    for (IncidentTail& t : bundle.tails) known = known || t.name == name;
    if (!known) {
      IncidentTail tail;
      tail.name = name;
      // A sealed file that still ends torn (e.g. the process died between
      // chunk fwrites before flight mode existed) is reported by the
      // doctor's LogSource recovery; rings above already carry their own
      // counts.
      bundle.tails.push_back(std::move(tail));
    }
  }
  if (record::run_manifest_exists(spool_dir)) {
    fs::copy_file(record::run_manifest_path(spool_dir),
                  spool_out + "/" + record::kRunManifestFile,
                  fs::copy_options::overwrite_existing);
  }
  if (bundle.tails.empty()) {
    notes.push_back("no spool tails found in " + spool_dir);
  }

  // divergence.json: the blame-ordered report set.
  if (divergence != nullptr) {
    std::ostringstream out;
    out << "[";
    if (all != nullptr && !all->empty()) {
      for (std::size_t i = 0; i < all->size(); ++i) {
        if (i > 0) out << ",";
        out << "\n  " << sched::to_json((*all)[i]);
      }
    } else {
      out << "\n  " << sched::to_json(*divergence);
    }
    out << "\n]\n";
    write_file(bundle.dir + "/divergence.json", to_bytes(out.str()));
  }

  // Doctor cross-reference against the *captured* tails (diagnosing the
  // copy keeps the report reproducible even if the live dir is re-recorded
  // over).
  if (divergence != nullptr) {
    try {
      replay::DoctorReport report = replay::diagnose_spool(*divergence,
                                                           spool_out);
      if (all != nullptr) report.all = *all;
      // Ring-assembled tails are clean *after* recover-to-prefix, so the
      // doctor's own torn-tail detection cannot see what assembly dropped;
      // surface the manifest's counts as findings instead of silently
      // diagnosing against a shortened tail.
      for (const IncidentTail& t : bundle.tails) {
        if (t.truncated_bytes > 0) {
          report.notes.push_back(
              "tail " + t.name + " was assembled from a flight ring by "
              "recover-to-prefix: " + std::to_string(t.truncated_bytes) +
              " byte(s) of torn chunk data were dropped before diagnosis");
        }
        if (t.marker_signal != 0) {
          report.notes.push_back(
              "tail " + t.name + " ended in fatal signal " +
              std::to_string(t.marker_signal) +
              " (INCIDENT marker left by the recording process)");
        }
      }
      write_file(bundle.dir + "/report.txt",
                 to_bytes(replay::to_text(report)));
      write_file(bundle.dir + "/report.json",
                 to_bytes(replay::to_json(report)));
    } catch (const Error& e) {
      notes.push_back("doctor diagnosis failed: " + single_line(e.what()));
    }
  }

  // Perfetto timeline of the captured tails, with the divergence marker on
  // the blamed VM's track.
  try {
    std::vector<std::unique_ptr<record::VmLog>> loaded;
    std::vector<record::ChromeTraceVm> vms;
    for (const IncidentTail& t : bundle.tails) {
      auto log = std::make_unique<record::VmLog>(
          record::load_spooled_log(spool_out + "/" + t.name));
      record::ChromeTraceVm vm;
      vm.name = fs::path(t.name).stem().string();
      vm.vm_id = log->vm_id;
      vm.log = log.get();
      if (divergence != nullptr && divergence->vm_id == log->vm_id) {
        vm.divergence = divergence;
      }
      loaded.push_back(std::move(log));
      vms.push_back(std::move(vm));
    }
    if (!vms.empty()) {
      record::save_chrome_trace(bundle.dir + "/trace.json", vms);
    }
  } catch (const Error& e) {
    notes.push_back("trace export failed: " + single_line(e.what()));
  }

  // manifest.txt last: it names everything that made it into the bundle.
  std::ostringstream m;
  m << kManifestMagic << "\n";
  m << "kind " << kind << "\n";
  m << "time " << static_cast<long long>(std::time(nullptr)) << "\n";
  m << "origin " << single_line(spool_dir) << "\n";
  for (const IncidentTail& t : bundle.tails) {
    m << "tail " << t.truncated_bytes << " " << (t.from_ring ? 1 : 0) << " "
      << t.marker_signal << " " << t.name << "\n";
  }
  for (const std::string& n : notes) m << "note " << n << "\n";
  write_file(bundle.dir + "/manifest.txt", to_bytes(m.str()));
  return bundle;
}

IncidentBundle read_incident_manifest(const std::string& bundle_dir) {
  const std::string text = to_string(read_file(bundle_dir + "/manifest.txt"));
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kManifestMagic) {
    throw LogFormatError("bad magic in " + bundle_dir +
                         "/manifest.txt: not a DJVUINC bundle");
  }
  IncidentBundle bundle;
  bundle.dir = bundle_dir;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t sp = line.find(' ');
    const std::string key = line.substr(0, sp);
    const std::string rest =
        sp == std::string::npos ? std::string() : line.substr(sp + 1);
    if (key == "kind") {
      bundle.kind = rest;
    } else if (key == "tail") {
      // "tail <truncated_bytes> <from_ring> <signal> <name>"
      std::istringstream fields(rest);
      IncidentTail tail;
      int from_ring = 0;
      if (!(fields >> tail.truncated_bytes >> from_ring >>
            tail.marker_signal)) {
        throw LogFormatError("malformed tail line '" + line + "'");
      }
      tail.from_ring = from_ring != 0;
      std::getline(fields, tail.name);
      if (!tail.name.empty() && tail.name.front() == ' ') {
        tail.name.erase(tail.name.begin());
      }
      if (tail.name.empty()) {
        throw LogFormatError("malformed tail line '" + line + "'");
      }
      bundle.tails.push_back(std::move(tail));
    }
    // kind/time/origin/note and unknown keys: carried in the file; only
    // the fields IncidentBundle models are parsed back.
  }
  return bundle;
}

}  // namespace djvu::core
