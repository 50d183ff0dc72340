#include "record/network_log.h"

namespace djvu::record {

void NetworkLog::append(ThreadNum thread, NetworkLogEntry entry) {
  const EventNum event_num = entry.event_num;
  if (!insert(thread, std::move(entry))) {
    throw UsageError(duplicate_entry_message(thread, event_num));
  }
}

bool NetworkLog::insert(ThreadNum thread, NetworkLogEntry entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  const EventNum event_num = entry.event_num;
  return per_thread_[thread].emplace(event_num, std::move(entry)).second;
}

std::string duplicate_entry_message(ThreadNum thread, EventNum event_num) {
  return "duplicate network log entry for thread " + std::to_string(thread) +
         " event " + std::to_string(event_num);
}

const NetworkLogEntry* NetworkLog::find(ThreadNum thread,
                                        EventNum event_num) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto tit = per_thread_.find(thread);
  if (tit == per_thread_.end()) return nullptr;
  auto eit = tit->second.find(event_num);
  if (eit == tit->second.end()) return nullptr;
  return &eit->second;
}

std::vector<NetworkLogEntry> NetworkLog::thread_entries(
    ThreadNum thread) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<NetworkLogEntry> out;
  auto tit = per_thread_.find(thread);
  if (tit == per_thread_.end()) return out;
  out.reserve(tit->second.size());
  for (const auto& [num, entry] : tit->second) out.push_back(entry);
  return out;
}

std::map<DgNetworkEventId, std::uint32_t> NetworkLog::datagram_deliveries()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<DgNetworkEventId, std::uint32_t> out;
  for (const auto& [t, entries] : per_thread_) {
    for (const auto& [num, entry] : entries) {
      if (entry.kind == sched::EventKind::kUdpReceive && entry.dg_id) {
        ++out[*entry.dg_id];
      }
    }
  }
  return out;
}

std::vector<ThreadNum> NetworkLog::threads() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ThreadNum> out;
  out.reserve(per_thread_.size());
  for (const auto& [t, entries] : per_thread_) out.push_back(t);
  return out;
}

std::size_t NetworkLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [t, entries] : per_thread_) n += entries.size();
  return n;
}

std::size_t NetworkLog::content_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [t, entries] : per_thread_) {
    for (const auto& [num, entry] : entries) {
      if (entry.data) n += entry.data->size();
    }
  }
  return n;
}

}  // namespace djvu::record
