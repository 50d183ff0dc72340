#include "record/serializer.h"

#include <algorithm>

#include "common/crc32.h"
#include "common/file_io.h"

namespace djvu::record {
namespace {

constexpr char kMagic[8] = {'D', 'J', 'V', 'U', 'L', 'O', 'G', '1'};
// v1: schedule + network sections.  v2 appends the causal section (per-key
// seqs, order_mode = causal) as raw varints; v3 packs that same section as
// first-seq + zigzag deltas.  Total-order logs still serialize as v1 —
// bit-identical to what older readers expect — and all three versions load.
constexpr std::uint16_t kVersion = 1;
constexpr std::uint16_t kVersionCausal = 2;
constexpr std::uint16_t kVersionCausalDelta = 3;

// Entry field presence flags.
enum : std::uint8_t {
  kHasError = 1u << 0,
  kHasConnId = 1u << 1,
  kHasValue = 1u << 2,
  kHasDgId = 1u << 3,
  kHasData = 1u << 4,
};

/// Reads a section's thread count.  A CRC-valid bundle can still declare
/// any count (a writer bug, a crafted file), and each thread costs a slot,
/// so counts past kMaxLogThreads are rejected like the spool loader's.
std::uint64_t read_thread_count(ByteReader& r) {
  const std::uint64_t n = r.varint();
  if (n > kMaxLogThreads) {
    throw LogFormatError("log bundle names " + std::to_string(n) +
                         " threads, beyond any recording");
  }
  return n;
}

}  // namespace

void write_network_entry(ByteWriter& w, const NetworkLogEntry& e) {
  w.varint(e.event_num);
  w.u8(static_cast<std::uint8_t>(e.kind));
  std::uint8_t flags = 0;
  if (e.error != NetErrorCode::kNone) flags |= kHasError;
  if (e.conn_id) flags |= kHasConnId;
  if (e.value) flags |= kHasValue;
  if (e.dg_id) flags |= kHasDgId;
  if (e.data) flags |= kHasData;
  w.u8(flags);
  if (flags & kHasError) w.u8(static_cast<std::uint8_t>(e.error));
  if (flags & kHasConnId) {
    w.varint(e.conn_id->djvm_id)
        .varint(e.conn_id->thread_num)
        .varint(e.conn_id->event_num);
  }
  if (flags & kHasValue) w.varint(*e.value);
  if (flags & kHasDgId) {
    w.varint(e.dg_id->djvm_id).varint(e.dg_id->sender_gc);
  }
  if (flags & kHasData) w.bytes(*e.data);
}

NetworkLogEntry read_network_entry(ByteReader& r) {
  NetworkLogEntry e;
  e.event_num = r.varint();
  e.kind = static_cast<sched::EventKind>(r.u8());
  std::uint8_t flags = r.u8();
  if (flags & kHasError) e.error = static_cast<NetErrorCode>(r.u8());
  if (flags & kHasConnId) {
    ConnectionId id;
    id.djvm_id = static_cast<DjvmId>(r.varint());
    id.thread_num = static_cast<ThreadNum>(r.varint());
    id.event_num = r.varint();
    e.conn_id = id;
  }
  if (flags & kHasValue) e.value = r.varint();
  if (flags & kHasDgId) {
    DgNetworkEventId id;
    id.djvm_id = static_cast<DjvmId>(r.varint());
    id.sender_gc = r.varint();
    e.dg_id = id;
  }
  if (flags & kHasData) e.data = r.bytes();
  return e;
}

Bytes serialize(const VmLog& log) {
  const bool has_causal = !log.causal.empty();
  ByteWriter w;
  w.raw(BytesView(reinterpret_cast<const std::uint8_t*>(kMagic), 8));
  w.u16(has_causal ? kVersionCausalDelta : kVersion);
  w.u32(log.vm_id);
  w.varint(log.stats.critical_events);
  w.varint(log.stats.network_events);

  // Schedule section: delta-encoded intervals, two varints each.
  w.varint(log.schedule.per_thread.size());
  for (const auto& list : log.schedule.per_thread) {
    w.varint(list.size());
    GlobalCount prev_end = 0;
    for (const auto& lsi : list) {
      w.varint(lsi.first - prev_end);
      w.varint(lsi.last - lsi.first);
      prev_end = lsi.last;
    }
  }

  // Network section.
  auto threads = log.network.threads();
  w.varint(threads.size());
  for (ThreadNum t : threads) {
    auto entries = log.network.thread_entries(t);
    w.varint(t);
    w.varint(entries.size());
    for (const auto& e : entries) write_network_entry(w, e);
  }

  // Causal section (v2+): per-thread per-event per-key seqs.  v3 packing:
  // first seq absolute, then zigzag-encoded deltas — one thread's stream
  // interleaves keys, so consecutive seqs wander around nearby values and
  // small signed deltas varint-encode tighter than raw (and sometimes
  // large) absolutes.
  if (has_causal) {
    w.varint(log.causal.per_thread.size());
    for (const auto& list : log.causal.per_thread) {
      w.varint(list.size());
      if (list.empty()) continue;
      w.varint(list.front());
      for (std::size_t i = 1; i < list.size(); ++i) {
        w.varint(zigzag_encode(static_cast<std::int64_t>(list[i] -
                                                         list[i - 1])));
      }
    }
  }

  std::uint32_t crc = crc32(w.view());
  w.u32(crc);
  return w.take();
}

VmLog deserialize(BytesView data) {
  if (data.size() < 8 + 2 + 4 + 4) {
    throw LogFormatError("log bundle too small (" +
                         std::to_string(data.size()) + " bytes)");
  }
  // CRC covers everything but the trailing 4 bytes.
  BytesView body = data.first(data.size() - 4);
  ByteReader crc_reader(data.subspan(data.size() - 4));
  std::uint32_t stored = crc_reader.u32();
  if (crc32(body) != stored) {
    throw LogFormatError("log bundle CRC mismatch: file is corrupt");
  }

  ByteReader r(body);
  Bytes magic = r.raw(8);
  if (!std::equal(magic.begin(), magic.end(),
                  reinterpret_cast<const std::uint8_t*>(kMagic))) {
    throw LogFormatError("bad magic: not a DJVULOG bundle");
  }
  std::uint16_t version = r.u16();
  if (version != kVersion && version != kVersionCausal &&
      version != kVersionCausalDelta) {
    throw LogFormatError("unsupported log version " + std::to_string(version));
  }

  VmLog log;
  log.vm_id = r.u32();
  log.stats.critical_events = r.varint();
  log.stats.network_events = r.varint();

  std::uint64_t thread_count = read_thread_count(r);
  log.schedule.per_thread.resize(thread_count);
  for (std::uint64_t t = 0; t < thread_count; ++t) {
    std::uint64_t n = r.varint();
    auto& list = log.schedule.per_thread[t];
    // n is untrusted too: reserve at most one entry per byte left, the
    // least an entry encodes to.
    list.reserve(std::min<std::uint64_t>(n, r.remaining()));
    GlobalCount prev_end = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      GlobalCount first = prev_end + r.varint();
      GlobalCount last = first + r.varint();
      list.push_back({first, last});
      prev_end = last;
    }
  }

  std::uint64_t nw_threads = r.varint();
  for (std::uint64_t i = 0; i < nw_threads; ++i) {
    auto t = static_cast<ThreadNum>(r.varint());
    std::uint64_t n = r.varint();
    for (std::uint64_t j = 0; j < n; ++j) {
      NetworkLogEntry entry = read_network_entry(r);
      const EventNum event_num = entry.event_num;
      if (!log.network.insert(t, std::move(entry))) {
        throw LogFormatError(duplicate_entry_message(t, event_num));
      }
    }
  }
  if (version >= kVersionCausal) {
    const bool delta = version >= kVersionCausalDelta;
    std::uint64_t causal_threads = read_thread_count(r);
    log.causal.per_thread.resize(causal_threads);
    for (std::uint64_t t = 0; t < causal_threads; ++t) {
      std::uint64_t n = r.varint();
      auto& list = log.causal.per_thread[t];
      list.reserve(std::min<std::uint64_t>(n, r.remaining()));
      if (delta) {
        std::uint64_t prev = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
          prev = i == 0 ? r.varint()
                        : prev + static_cast<std::uint64_t>(
                                     zigzag_decode(r.varint()));
          list.push_back(prev);
        }
      } else {
        for (std::uint64_t i = 0; i < n; ++i) list.push_back(r.varint());
      }
    }
  }
  if (!r.at_end()) {
    throw LogFormatError("trailing garbage after log sections (" +
                         std::to_string(r.remaining()) + " bytes)");
  }
  return log;
}

void save_to_file(const VmLog& log, const std::string& path) {
  write_file(path, serialize(log));
}

VmLog load_from_file(const std::string& path) {
  return deserialize(read_file(path));
}

std::size_t log_payload_size(const VmLog& log) {
  return log_payload_size(serialize(log));
}

}  // namespace djvu::record
