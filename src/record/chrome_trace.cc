#include "record/chrome_trace.h"

#include "common/file_io.h"
#include "common/strutil.h"

namespace djvu::record {
namespace {

void append_event(std::string& out, bool& first, const std::string& event) {
  if (!first) out += ",\n";
  first = false;
  out += "  ";
  out += event;
}

std::string meta_event(DjvmId pid, const char* name_key,
                       const std::string& name_value, long long tid) {
  std::string ev = str_format("{\"ph\": \"M\", \"pid\": %u, ", pid);
  if (tid >= 0) ev += str_format("\"tid\": %lld, ", tid);
  ev += str_format("\"name\": \"%s\", \"args\": {\"name\": \"%s\"}}",
                   name_key, sched::json_escape(name_value).c_str());
  return ev;
}

}  // namespace

std::string chrome_trace_json(const std::vector<ChromeTraceVm>& vms) {
  std::string out = "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  bool first = true;
  for (const ChromeTraceVm& vm : vms) {
    const std::string label =
        vm.name.empty() ? str_format("vm %u", vm.vm_id) : vm.name;
    append_event(out, first, meta_event(vm.vm_id, "process_name", label, -1));
    if (vm.log != nullptr) {
      const auto& per_thread = vm.log->schedule.per_thread;
      for (std::size_t t = 0; t < per_thread.size(); ++t) {
        append_event(out, first,
                     meta_event(vm.vm_id, "thread_name",
                                str_format("thread %zu", t),
                                static_cast<long long>(t)));
        for (const sched::LogicalInterval& iv : per_thread[t]) {
          append_event(
              out, first,
              str_format("{\"ph\": \"X\", \"cat\": \"schedule\", "
                         "\"name\": \"interval [%llu, %llu]\", "
                         "\"pid\": %u, \"tid\": %zu, \"ts\": %llu, "
                         "\"dur\": %llu, \"args\": {\"events\": %llu}}",
                         static_cast<unsigned long long>(iv.first),
                         static_cast<unsigned long long>(iv.last), vm.vm_id,
                         t, static_cast<unsigned long long>(iv.first),
                         static_cast<unsigned long long>(iv.length()),
                         static_cast<unsigned long long>(iv.length())));
        }
      }
    }
    if (vm.trace != nullptr) {
      for (const sched::TraceRecord& rec : *vm.trace) {
        append_event(
            out, first,
            str_format("{\"ph\": \"X\", \"cat\": \"event\", "
                       "\"name\": \"%s\", \"pid\": %u, \"tid\": %u, "
                       "\"ts\": %llu, \"dur\": 1, "
                       "\"args\": {\"gc\": %llu, \"aux\": %llu}}",
                       event_kind_name(rec.kind), vm.vm_id, rec.thread,
                       static_cast<unsigned long long>(rec.gc),
                       static_cast<unsigned long long>(rec.gc),
                       static_cast<unsigned long long>(rec.aux)));
      }
    }
    if (vm.divergence != nullptr) {
      const sched::DivergenceReport& r = *vm.divergence;
      append_event(
          out, first,
          str_format("{\"ph\": \"i\", \"s\": \"p\", \"cat\": \"divergence\", "
                     "\"name\": \"divergence: %s\", \"pid\": %u, "
                     "\"tid\": %u, \"ts\": %llu, "
                     "\"args\": {\"detail\": \"%s\"}}",
                     divergence_cause_name(r.cause), vm.vm_id, r.thread,
                     static_cast<unsigned long long>(r.divergence_gc()),
                     sched::json_escape(r.detail).c_str()));
    }
  }
  out += "\n]}\n";
  return out;
}

void save_chrome_trace(const std::string& path,
                       const std::vector<ChromeTraceVm>& vms) {
  write_file(path, to_bytes(chrome_trace_json(vms)));
}

}  // namespace djvu::record
