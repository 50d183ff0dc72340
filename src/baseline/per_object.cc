#include "baseline/per_object.h"

#include <algorithm>
#include <limits>
#include <string>

#include "common/crc32.h"

namespace djvu::baseline {
namespace {

constexpr char kMagic[8] = {'D', 'J', 'V', 'U', 'L', 'V', 'R', '1'};

/// Counts come from the file: each is bounded by the bytes left before
/// anything is sized by it, so an impossible count is a format error, not
/// bad_alloc.  `min_bytes` is the smallest encoding of one item.
void check_count(std::uint64_t n, std::uint64_t min_bytes, const char* what,
                 const ByteReader& r) {
  if (n > r.remaining() / min_bytes) {
    throw LogFormatError("per-object log claims " + std::to_string(n) + " " +
                         what + " in " + std::to_string(r.remaining()) +
                         " bytes");
  }
}

std::uint32_t read_u32_varint(ByteReader& r, const char* what) {
  const std::uint64_t v = r.varint();
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    throw LogFormatError(std::string("per-object log ") + what + " " +
                         std::to_string(v) + " does not fit 32 bits");
  }
  return static_cast<std::uint32_t>(v);
}

struct Binding {
  LvHost* host = nullptr;
  ThreadNum thread = 0;
  /// The thread's tally from the host's turn gate (TurnGate::tally).
  sched::TurnTally* tally = nullptr;
};
thread_local Binding t_binding;

}  // namespace

Bytes serialize(const PerObjectLog& log) {
  ByteWriter w;
  w.raw(BytesView(reinterpret_cast<const std::uint8_t*>(kMagic), 8));
  w.varint(log.objects.size());
  for (const ObjectLog& obj : log.objects) {
    w.varint(obj.size());
    for (const AccessRun& run : obj) {
      w.varint(run.thread);
      w.varint(run.count);
    }
  }
  w.u32(crc32(w.view()));
  return w.take();
}

PerObjectLog deserialize(BytesView data) {
  if (data.size() < 12) throw LogFormatError("per-object log too small");
  BytesView body = data.first(data.size() - 4);
  ByteReader crc_reader(data.subspan(data.size() - 4));
  if (crc32(body) != crc_reader.u32()) {
    throw LogFormatError("per-object log CRC mismatch");
  }
  ByteReader r(body);
  Bytes magic = r.raw(8);
  if (!std::equal(magic.begin(), magic.end(),
                  reinterpret_cast<const std::uint8_t*>(kMagic))) {
    throw LogFormatError("bad magic: not a per-object log");
  }
  PerObjectLog log;
  const std::uint64_t objects = r.varint();
  check_count(objects, 1, "objects", r);  // each: its run count
  log.objects.resize(objects);
  for (auto& obj : log.objects) {
    const std::uint64_t runs = r.varint();
    check_count(runs, 2, "runs", r);  // each: thread and count
    obj.reserve(runs);
    for (std::uint64_t i = 0; i < runs; ++i) {
      AccessRun run;
      run.thread = read_u32_varint(r, "thread");
      run.count = read_u32_varint(r, "count");
      obj.push_back(run);
    }
  }
  if (!r.at_end()) throw LogFormatError("trailing garbage in per-object log");
  return log;
}

LvHost::LvHost(Mode mode, const PerObjectLog* replay_log,
               std::chrono::milliseconds stall_timeout)
    : mode_(mode), replay_log_(replay_log), gate_(stall_timeout) {
  if ((mode_ == Mode::kReplay) != (replay_log_ != nullptr)) {
    throw UsageError("per-object replay log required exactly in replay mode");
  }
}

LvHost::~LvHost() {
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void LvHost::attach_main() {
  std::lock_guard<std::mutex> lock(mutex_);
  t_binding = {this, next_thread_++, &gate_.tally()};
}

void LvHost::detach_current() { t_binding = {}; }

ThreadNum LvHost::current_thread() {
  if (t_binding.host != this) {
    throw UsageError("thread not bound to this LvHost");
  }
  return t_binding.thread;
}

void LvHost::spawn(std::function<void()> fn) {
  ThreadNum num;
  std::size_t slot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    num = next_thread_++;
    slot = errors_.size();
    errors_.push_back(nullptr);
  }
  workers_.emplace_back([this, num, slot, fn = std::move(fn)] {
    t_binding = {this, num, &gate_.tally()};
    try {
      fn();
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        errors_[slot] = std::current_exception();
      }
      gate_.poison();
    }
    t_binding = {};
  });
}

void LvHost::join_all() {
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& e : errors_) {
    if (e) {
      std::exception_ptr err = e;
      e = nullptr;
      std::rethrow_exception(err);
    }
  }
}

std::uint32_t LvHost::register_object(LvObject* obj) {
  std::lock_guard<std::mutex> lock(mutex_);
  objects_.push_back(obj);
  return static_cast<std::uint32_t>(objects_.size() - 1);
}

PerObjectLog LvHost::finish_record() {
  if (mode_ != Mode::kRecord) {
    throw UsageError("finish_record outside record mode");
  }
  PerObjectLog log;
  std::lock_guard<std::mutex> lock(mutex_);
  log.objects.reserve(objects_.size());
  for (LvObject* obj : objects_) log.objects.push_back(obj->take_log());
  return log;
}

LvObject::LvObject(LvHost& host) : host_(host) {
  id_ = host_.register_object(this);
  if (host_.mode() == Mode::kReplay) {
    const PerObjectLog* log = host_.replay_log_;
    if (id_ >= log->objects.size()) {
      throw ReplayDivergenceError(
          "replay created more shared objects than were recorded");
    }
    load_log(log->objects[id_]);
  }
}

void LvObject::access(const std::function<void()>& body) {
  ThreadNum self = host_.current_thread();
  switch (host_.mode()) {
    case Mode::kPassthrough: {
      std::lock_guard<std::mutex> lock(mutex_);
      body();
      return;
    }
    case Mode::kRecord: {
      std::lock_guard<std::mutex> lock(mutex_);
      body();
      // Run-length encode the accessing-thread sequence (the per-object
      // counter scheme: one counter per object, runs of consecutive
      // same-thread accesses collapse).
      if (open_ && last_thread_ == self) {
        ++log_.back().count;
      } else {
        log_.push_back({self, 1});
        open_ = true;
        last_thread_ = self;
      }
      return;
    }
    case Mode::kReplay: {
      const auto it = cursors_.find(self);
      if (it == cursors_.end()) {
        throw ReplayDivergenceError(
            "thread accessed an object it never accessed in record",
            DivergenceCause::kBeyondSchedule);
      }
      sched::IntervalCursor& cursor = it->second;
      const GlobalCount turn = cursor.peek();
      // Only the owner of an index publishes past it, so the wait returns
      // exactly `turn` (or throws: poison, stall).
      host_.gate_.wait(done_, turn, *t_binding.tally);
      body();
      cursor.advance();
      done_.store(turn + 1, std::memory_order_seq_cst);
      host_.gate_.published(done_, turn + 1);
      return;
    }
  }
}

ObjectLog LvObject::take_log() {
  std::lock_guard<std::mutex> lock(mutex_);
  open_ = false;
  return std::move(log_);
}

void LvObject::load_log(const ObjectLog& log) {
  // Run r covers the object's accesses [first, first + count - 1]; each
  // thread's runs, in order, are the access indices it replays.
  std::map<ThreadNum, sched::IntervalList> owned;
  GlobalCount first = 0;
  for (const AccessRun& run : log) {
    if (run.count == 0) continue;
    owned[run.thread].push_back({first, first + run.count - 1});
    first += run.count;
  }
  for (auto& [thread, list] : owned) {
    cursors_.emplace(thread, sched::IntervalCursor(std::move(list)));
  }
}

}  // namespace djvu::baseline
