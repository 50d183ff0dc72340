#include "replay/datagram_replay.h"

namespace djvu::replay {

DatagramReplayer::DatagramReplayer(
    std::map<DgNetworkEventId, std::uint32_t> recorded_deliveries)
    : remaining_(std::move(recorded_deliveries)) {}

Bytes DatagramReplayer::take_locked(
    std::map<DgNetworkEventId, Bytes>::iterator it) {
  auto rem = remaining_.find(it->first);
  if (rem != remaining_.end() && rem->second > 1) {
    --rem->second;
    return it->second;  // copy: further recorded duplicates still pending
  }
  // Last recorded delivery (or an id the log never counted, which a
  // correct replay never requests): move the payload out and prune.
  if (rem != remaining_.end()) remaining_.erase(rem);
  Bytes payload = std::move(it->second);
  buffer_.erase(it);
  ++dropped_;
  return payload;
}

bool DatagramReplayer::admit_locked(const DgNetworkEventId& id) {
  if (remaining_.count(id) != 0) return true;
  ++dropped_;  // never named by any recorded receive — ignore (§4.2.3)
  return false;
}

Bytes DatagramReplayer::await(const DgNetworkEventId& want,
                              const FetchFn& fetch) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    auto it = buffer_.find(want);
    if (it != buffer_.end()) {
      Bytes payload = take_locked(it);
      // Fetcher handoff: leaving with a payload while nobody is fetching
      // and others are parked must promote one of them to fetcher —
      // re-broadcast so they re-check rather than relying on a wakeup
      // that may have raced with their park.
      if (!fetch_in_progress_ && waiters_ > 0) cv_.notify_all();
      return payload;
    }
    if (fetch_in_progress_) {
      ++waiters_;
      cv_.wait(lock);
      --waiters_;
      continue;
    }
    fetch_in_progress_ = true;
    lock.unlock();
    std::pair<DgNetworkEventId, Bytes> fetched;
    try {
      fetched = fetch();
    } catch (...) {
      lock.lock();
      fetch_in_progress_ = false;
      cv_.notify_all();
      throw;
    }
    lock.lock();
    fetch_in_progress_ = false;
    // insert-or-keep: a reliable-layer exactly-once stream never delivers
    // two *different* payloads for one id, so keeping the first is safe.
    if (admit_locked(fetched.first)) {
      buffer_.emplace(fetched.first, std::move(fetched.second));
    }
    cv_.notify_all();
  }
}

void DatagramReplayer::put(const DgNetworkEventId& id, Bytes payload) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!admit_locked(id)) return;
    buffer_.emplace(id, std::move(payload));
  }
  cv_.notify_all();
}

std::size_t DatagramReplayer::buffered() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return buffer_.size();
}

std::size_t DatagramReplayer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

}  // namespace djvu::replay
