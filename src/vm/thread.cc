#include "vm/thread.h"

namespace djvu::vm {

VmThread::VmThread(Vm& vm, std::function<void()> fn)
    : vm_(&vm), error_(std::make_shared<std::exception_ptr>()) {
  // The spawn is a critical event of the *parent*; registration happens
  // inside the event body so creation order is part of the schedule.  All
  // spawns share one conflict key (Vm::spawns_): concurrent spawns on
  // different stripes could otherwise draw thread numbers inconsistent
  // with their counter order, breaking replay's threadNum determinism.
  // A spawn may execute inside the parent's interval lease: the child's
  // first recorded event then lies beyond the parent's interval (intervals
  // are maximal single-thread runs), so the child's first await parks until
  // the parent's lease-end publication — it can never need a turn the lease
  // has not yet published.
  sched::ThreadState* child_state = nullptr;
  vm.critical_event(
      sched::EventKind::kThreadStart,
      [&](GlobalCount) {
        child_state = &vm.register_child_thread();
        return std::uint64_t{child_state->num};
      },
      0, &vm.spawns_);
  num_ = child_state->num;

  auto error = error_;
  Vm* vm_ptr = &vm;
  thread_ = std::thread([vm_ptr, child_state, error, fn = std::move(fn)] {
    Vm::bind_current(vm_ptr, child_state);
    vm_ptr->runner_began();
    try {
      fn();
    } catch (...) {
      *error = std::current_exception();
      // Unblock sibling threads (turn waits, socket calls) so the whole VM
      // unwinds and this error surfaces through join().
      vm_ptr->poison();
    }
    vm_ptr->runner_ended();
    // Publish this thread's buffered trace records before the thread goes
    // away (after this point only end-of-phase flushes would see them).
    vm_ptr->flush_trace(*child_state);
    Vm::bind_current(nullptr, nullptr);
  });
}

void VmThread::join_deregistered() {
  // The joiner is parked outside the scheduler: it cannot tick the
  // counter, so the stall detector must not count it as a potential
  // producer of progress.
  if (vm_ != nullptr) vm_->runner_ended();
  thread_.join();
  if (vm_ != nullptr) vm_->runner_began();
}

VmThread::~VmThread() {
  if (thread_.joinable()) join_deregistered();
}

void VmThread::join() {
  if (thread_.joinable()) join_deregistered();
  if (error_ && *error_) {
    std::exception_ptr e = *error_;
    *error_ = nullptr;
    std::rethrow_exception(e);
  }
}

}  // namespace djvu::vm
