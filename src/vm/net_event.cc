#include "vm/net_event.h"

namespace djvu::vm {

NetEvent::NetEvent(Vm& vm, sched::EventKind kind, ConflictKey conflict)
    : vm_(vm),
      kind_(kind),
      conflict_(conflict),
      state_(vm.current_state()) {
  // A network or time gateway may block (and a record-mode one logs its
  // outcome outside any section): hand the record stripe on first.
  vm_.yield_stripe(state_);
  event_num_ = state_.take_network_event_num();
}

void NetEvent::append(record::NetworkLogEntry entry) {
  entry.kind = kind_;
  entry.event_num = event_num_;
  vm_.log_network_entry(state_, std::move(entry));
}

void NetEvent::mark_error(NetErrorCode code) {
  vm_.mark_event(kind_, static_cast<std::uint64_t>(code), conflict_);
}

void NetEvent::lookup(Logs logs) {
  entry_ = vm_.replay_log()->network.find(state_.num, event_num_);
  if (entry_ == nullptr) {
    if (logs == Logs::kFailuresOnly) return;
    diverge("event has no recorded entry");
  }
  if (entry_->kind != kind_) {
    diverge(std::string("event found a recorded ") +
            sched::event_kind_name(entry_->kind) + " entry");
  }
  if (const char* field = record::missing_field(*entry_)) {
    diverge(std::string("event's recorded entry lacks its ") + field);
  }
}

std::uint64_t NetEvent::value() const {
  if (!entry_->value) diverge("event's recorded entry lacks a value");
  return *entry_->value;
}

DgNetworkEventId NetEvent::dg_id() const {
  if (!entry_->dg_id) diverge("event's recorded entry lacks a datagram id");
  return *entry_->dg_id;
}

void NetEvent::diverge(const std::string& what) const {
  vm_.replay_divergence(
      kind_, std::string(sched::event_kind_name(kind_)) + " " + what,
      conflict_);
}

}  // namespace djvu::vm
