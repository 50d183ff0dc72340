#include "net/udp.h"

#include "net/network.h"

namespace djvu::net {

void UdpPort::send_to(SocketAddress dest, BytesView payload) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) {
      throw NetError(NetErrorCode::kSocketClosed, "send on closed UDP port");
    }
  }
  network_->route_datagram(addr_, dest, payload);
}

Datagram UdpPort::receive() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (closed_) {
      throw NetError(NetErrorCode::kSocketClosed,
                     "receive on closed UDP port " + to_string(addr_));
    }
    auto now = std::chrono::steady_clock::now();
    if (!queue_.empty() && queue_.begin()->deliver_at <= now) {
      Datagram dg = std::move(queue_.begin()->datagram);
      queue_.erase(queue_.begin());
      return dg;
    }
    if (!queue_.empty()) {
      // By value: wait_until reads its deadline again after it wakes, when
      // close() or another receiver may have freed the queue's node.
      const TimePoint wake = queue_.begin()->deliver_at;
      cv_.wait_until(lock, wake);
    } else {
      cv_.wait(lock);
    }
  }
}

std::optional<Datagram> UdpPort::receive_for(Duration timeout) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (closed_) {
      throw NetError(NetErrorCode::kSocketClosed,
                     "receive on closed UDP port " + to_string(addr_));
    }
    auto now = std::chrono::steady_clock::now();
    if (!queue_.empty() && queue_.begin()->deliver_at <= now) {
      Datagram dg = std::move(queue_.begin()->datagram);
      queue_.erase(queue_.begin());
      return dg;
    }
    if (now >= deadline) return std::nullopt;
    auto wake = deadline;
    if (!queue_.empty() && queue_.begin()->deliver_at < wake) {
      wake = queue_.begin()->deliver_at;
    }
    cv_.wait_until(lock, wake);
  }
}

std::size_t UdpPort::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto now = std::chrono::steady_clock::now();
  std::size_t n = 0;
  for (const auto& p : queue_) {
    if (p.deliver_at > now) break;
    ++n;
  }
  return n;
}

void UdpPort::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return;
    closed_ = true;
    queue_.clear();
  }
  cv_.notify_all();
  network_->udp_unbind(addr_);
}

bool UdpPort::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

void UdpPort::deliver(Datagram dg, TimePoint deliver_at) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return;  // datagram to a closed port is silently dropped
    queue_.insert(Pending{deliver_at, tie_counter_++, std::move(dg)});
  }
  cv_.notify_all();
}

}  // namespace djvu::net
