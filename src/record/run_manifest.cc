#include "record/run_manifest.h"

#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "common/file_io.h"

namespace djvu::record {
namespace {

constexpr const char* kMagicLine = "DJVURUN1";

}  // namespace

const RunManifestVm* RunManifest::by_name(const std::string& name) const {
  for (const RunManifestVm& vm : vms) {
    if (vm.name == name) return &vm;
  }
  return nullptr;
}

const RunManifestVm* RunManifest::by_id(DjvmId vm_id) const {
  const RunManifestVm* found = nullptr;
  for (const RunManifestVm& vm : vms) {
    if (vm.vm_id != vm_id) continue;
    if (found != nullptr) return nullptr;  // ambiguous
    found = &vm;
  }
  return found;
}

std::string run_manifest_path(const std::string& dir) {
  return dir + "/" + kRunManifestFile;
}

bool run_manifest_exists(const std::string& dir) {
  std::error_code ec;
  return std::filesystem::exists(run_manifest_path(dir), ec);
}

void save_run_manifest(const RunManifest& manifest, const std::string& dir) {
  std::ostringstream out;
  out << kMagicLine << "\n";
  out << "time " << manifest.unix_time << "\n";
  out << "order " << order_mode_name(manifest.order_mode) << "\n";
  out << "flight " << (manifest.flight_recorder ? 1 : 0) << "\n";
  for (const RunManifestVm& vm : manifest.vms) {
    if (vm.name.find('\n') != std::string::npos) {
      throw UsageError("VM name contains a newline: '" + vm.name + "'");
    }
    out << "vm " << vm.vm_id << " " << vm.name << "\n";
  }
  write_file(run_manifest_path(dir), to_bytes(out.str()));
}

RunManifest load_run_manifest(const std::string& dir) {
  const std::string path = run_manifest_path(dir);
  std::istringstream in(to_string(read_file(path)));
  std::string line;
  if (!std::getline(in, line) || line != kMagicLine) {
    throw LogFormatError("bad magic in " + path + ": not a DJVURUN manifest");
  }
  RunManifest manifest;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t sp = line.find(' ');
    const std::string key = line.substr(0, sp);
    const std::string rest =
        sp == std::string::npos ? std::string() : line.substr(sp + 1);
    if (key == "time") {
      manifest.unix_time = std::strtoll(rest.c_str(), nullptr, 10);
    } else if (key == "order") {
      if (rest == "causal") {
        manifest.order_mode = OrderMode::kCausal;
      } else if (rest == "total") {
        manifest.order_mode = OrderMode::kTotal;
      } else {
        throw LogFormatError("unknown order mode '" + rest + "' in " + path);
      }
    } else if (key == "flight") {
      manifest.flight_recorder = rest == "1";
    } else if (key == "vm") {
      // "vm <id> <name>"; the name is the rest of the line (may contain
      // spaces).
      const std::size_t sp2 = rest.find(' ');
      if (sp2 == std::string::npos || sp2 == 0 || sp2 + 1 >= rest.size()) {
        throw LogFormatError("malformed vm line '" + line + "' in " + path);
      }
      RunManifestVm vm;
      char* end = nullptr;
      vm.vm_id = static_cast<DjvmId>(std::strtoul(rest.c_str(), &end, 10));
      if (end != rest.c_str() + sp2) {
        throw LogFormatError("malformed vm id in '" + line + "' in " + path);
      }
      vm.name = rest.substr(sp2 + 1);
      manifest.vms.push_back(std::move(vm));
    }
    // Unknown keys: ignored (forward compatibility).
  }
  return manifest;
}

}  // namespace djvu::record
