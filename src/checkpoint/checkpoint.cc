#include "checkpoint/checkpoint.h"

#include <algorithm>

#include "common/crc32.h"
#include "common/file_io.h"

namespace djvu::checkpoint {
namespace {

constexpr char kMagic[8] = {'D', 'J', 'V', 'U', 'C', 'K', 'P', '1'};
constexpr std::uint16_t kVersion = 1;

}  // namespace

const Checkpoint& CheckpointLog::by_phase(std::uint32_t phase) const {
  for (const Checkpoint& cp : checkpoints) {
    if (cp.phase == phase) return cp;
  }
  throw UsageError("no checkpoint recorded for phase " +
                   std::to_string(phase));
}

Bytes serialize(const CheckpointLog& log) {
  ByteWriter w;
  w.raw(BytesView(reinterpret_cast<const std::uint8_t*>(kMagic), 8));
  w.u16(kVersion);
  w.u32(log.vm_id);
  w.varint(log.checkpoints.size());
  for (const Checkpoint& cp : log.checkpoints) record::write_anchor(w, cp);
  w.u32(crc32(w.view()));
  return w.take();
}

CheckpointLog deserialize(BytesView data) {
  if (data.size() < 8 + 2 + 4 + 4) {
    throw LogFormatError("checkpoint log too small");
  }
  BytesView body = data.first(data.size() - 4);
  ByteReader crc_reader(data.subspan(data.size() - 4));
  if (crc32(body) != crc_reader.u32()) {
    throw LogFormatError("checkpoint log CRC mismatch: file is corrupt");
  }
  ByteReader r(body);
  Bytes magic = r.raw(8);
  if (!std::equal(magic.begin(), magic.end(),
                  reinterpret_cast<const std::uint8_t*>(kMagic))) {
    throw LogFormatError("bad magic: not a DJVUCKP bundle");
  }
  if (std::uint16_t v = r.u16(); v != kVersion) {
    throw LogFormatError("unsupported checkpoint log version " +
                         std::to_string(v));
  }
  CheckpointLog log;
  log.vm_id = r.u32();
  const std::uint64_t n = r.varint();
  // Every entry takes at least five bytes, so an absurd count from a
  // corrupt file must not become the reserve().
  log.checkpoints.reserve(std::min<std::uint64_t>(n, r.remaining()));
  for (std::uint64_t i = 0; i < n; ++i) {
    log.checkpoints.push_back(record::read_anchor(r));
  }
  if (!r.at_end()) {
    throw LogFormatError("trailing garbage in checkpoint log");
  }
  return log;
}

void save_to_file(const CheckpointLog& log, const std::string& path) {
  write_file(path, serialize(log));
}

CheckpointLog load_from_file(const std::string& path) {
  return deserialize(read_file(path));
}

Checkpointer::Checkpointer(vm::Vm& vm) : vm_(vm) {
  recorded_.vm_id = vm.vm_id();
}

void Checkpointer::track(std::string name, Tracked hooks) {
  for (const auto& [existing, unused] : tracked_) {
    if (existing == name) {
      throw UsageError("duplicate tracked state '" + name + "'");
    }
  }
  tracked_.emplace_back(std::move(name), std::move(hooks));
}

void Checkpointer::barrier(std::uint32_t phase) {
  if (vm_.mode() == vm::Mode::kPassthrough) return;

  if (vm_.mode() == vm::Mode::kRecord) {
    Checkpoint cp;
    cp.phase = phase;
    // Snapshot inside the kCheckpoint critical event: state capture and
    // counter position are one atomic action.  kGlobalConflict: the save
    // hooks read state owned by arbitrary objects, so under sharding this
    // event must exclude every stripe, not just its own.
    vm_.critical_event(
        sched::EventKind::kCheckpoint,
        [&](GlobalCount gc) {
          cp.gc = gc;
          for (const auto& [name, hooks] : tracked_) {
            cp.state.emplace(name, hooks.save());
          }
          return std::uint64_t{phase};
        },
        0, vm::kGlobalConflict);
    sched::ThreadState& main = vm_.current_state();
    if (main.num != 0) {
      throw UsageError("checkpoint barrier must run on the main thread");
    }
    cp.threads_created = static_cast<std::uint32_t>(vm_.thread_count());
    cp.main_event_num = main.next_network_event;
    // Flight-recorder spools additionally carry the checkpoint inline as a
    // kAnchor item (its own chunk), advancing the retention ring's eviction
    // horizon — a no-op for plain spools and in-memory logs.
    vm_.spool_anchor(cp);
    recorded_.checkpoints.push_back(std::move(cp));
    return;
  }

  // Replay.
  if (resuming_ && phase == resume_point_.phase) {
    // The resume barrier: restore state and fast-forward instead of
    // consuming the event (it is part of the skipped prefix).
    resuming_ = false;
    vm_.resume_replay(resume_point_.gc, resume_point_.threads_created,
                      resume_point_.main_event_num);
    for (const auto& [name, hooks] : tracked_) {
      auto it = resume_point_.state.find(name);
      if (it == resume_point_.state.end()) {
        throw UsageError("checkpoint has no state for '" + name + "'");
      }
      hooks.load(it->second);
    }
    return;
  }
  // Full replay (or a post-resume barrier): an ordinary critical event,
  // except that kGlobalConflict makes it quiesce any active interval lease
  // first — a barrier must observe the exact counter value on both sides,
  // matching the recorded Checkpoint::gc (a stride-lagged value() would
  // desynchronize re-snapshotting against the record-phase log).
  vm_.mark_event(sched::EventKind::kCheckpoint, phase, vm::kGlobalConflict);
}

void Checkpointer::resume_at(std::uint32_t phase, const CheckpointLog& log) {
  if (vm_.mode() != vm::Mode::kReplay) {
    throw UsageError("resume_at outside replay mode");
  }
  if (log.vm_id != vm_.vm_id()) {
    throw UsageError("checkpoint log belongs to a different VM");
  }
  resume_point_ = log.by_phase(phase);
  resuming_ = true;
}

CheckpointLog Checkpointer::log() const { return recorded_; }

}  // namespace djvu::checkpoint
