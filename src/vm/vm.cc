#include "vm/vm.h"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <string>
#include <thread>
#include <utility>

#include "common/rng.h"

namespace djvu::vm {
namespace {

/// One OS thread is bound to at most one Vm at a time.
struct ThreadBinding {
  Vm* vm = nullptr;
  sched::ThreadState* state = nullptr;
};

thread_local ThreadBinding t_binding;

/// Records per trace part when no spooler drains the trace (96 KiB).
constexpr std::size_t kTracePartRecords = 4096;

/// The record-section stripe key a conflict key maps to: the object
/// address, or — for thread-local events — an odd key derived from the
/// thread number (never collides with an aligned object address).
sched::SectionKey conflict_section_key(ThreadNum num, ConflictKey conflict) {
  return conflict == kThreadLocalConflict
             ? (std::uint64_t{num} << 1) | 1
             : static_cast<sched::SectionKey>(
                   reinterpret_cast<std::uintptr_t>(conflict));
}

}  // namespace

Vm::Vm(std::shared_ptr<net::Network> network, VmConfig config,
       std::shared_ptr<const record::VmLog> replay_log)
    : network_(std::move(network)),
      config_(std::move(config)),
      replay_log_(std::move(replay_log)),
      // Only the record phase ever enters GC-critical sections; replay's
      // turn-waiting is layout-independent, so it gets the one-stripe table
      // and no quantum.
      counter_(config_.tuning.stall_timeout,
               config_.mode == Mode::kRecord ? config_.tuning.record_stripes
                                             : 1,
               config_.mode == Mode::kRecord
                   ? config_.tuning.record_quantum
                   : std::chrono::microseconds(0)),
      causal_(instrumented() &&
              config_.tuning.order_mode == OrderMode::kCausal) {
  if ((config_.mode == Mode::kReplay) != (replay_log_ != nullptr)) {
    throw UsageError("replay log must be supplied exactly in replay mode");
  }
  if (config_.mode == Mode::kReplay &&
      replay_log_->vm_id != config_.vm_id) {
    throw UsageError("replay log belongs to vm " +
                     std::to_string(replay_log_->vm_id) + ", not vm " +
                     std::to_string(config_.vm_id));
  }
  if (causal_ && config_.mode == Mode::kReplay) {
    // Causal replay needs one per-key seq per recorded event, thread by
    // thread.  A total-order recording has none; a torn spool prefix can
    // have fewer causal entries than schedule events (the two batches of a
    // flush may straddle the torn chunk).  Either way the partial order is
    // unknown — refuse here rather than stall mid-replay.
    const auto& sl = replay_log_->schedule.per_thread;
    const auto& cl = replay_log_->causal.per_thread;
    for (std::size_t t = 0; t < sl.size(); ++t) {
      GlobalCount events = 0;
      for (const auto& iv : sl[t]) events += iv.length();
      const std::uint64_t have = t < cl.size() ? cl[t].size() : 0;
      if (events != have) {
        throw UsageError(
            "replay with order_mode=causal requires a causal recording: "
            "thread " +
            std::to_string(t) + " has " + std::to_string(events) +
            " recorded events but " + std::to_string(have) +
            " causal entries — record with order_mode=causal, or replay "
            "this log with order_mode=total");
      }
    }
  }
  if (config_.mode == Mode::kRecord && !config_.spool_path.empty()) {
    record::LogSpooler::Options opts;
    opts.path = config_.spool_path;
    opts.buffer_bytes = config_.tuning.spool_buffer_bytes;
    opts.chunk_bytes = config_.tuning.spool_chunk_bytes;
    opts.compress = config_.tuning.spool_compress;
    opts.flight_recorder = config_.tuning.flight_recorder;
    opts.retention_chunks = config_.tuning.retention_chunks;
    opts.retention_bytes = config_.tuning.retention_bytes;
    spooler_ = std::make_unique<record::LogSpooler>(config_.vm_id,
                                                    std::move(opts));
    // Flush each thread every ~chunk-bytes'-worth of events (a trace record
    // encodes in ~12 bytes, intervals far less), so one batch roughly fills
    // a chunk and per-thread resident state stays O(chunk).
    spool_flush_events_ = std::max<GlobalCount>(
        64, config_.tuning.spool_chunk_bytes / 16);
  }
}

Vm::~Vm() = default;

void Vm::maybe_chaos() {
  if (config_.tuning.chaos_prob <= 0.0) return;
  bool yield_now = false;
  bool sleep_now = false;
  {
    std::lock_guard<std::mutex> lock(chaos_mutex_);
    if (!chaos_rng_) chaos_rng_ = std::make_unique<Xoshiro256>(config_.chaos_seed);
    if (chaos_rng_->chance(config_.tuning.chaos_prob)) {
      yield_now = true;
      sleep_now = chaos_rng_->chance(0.25);
    }
  }
  if (sleep_now) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  } else if (yield_now) {
    std::this_thread::yield();
  }
}

void Vm::attach_main() {
  if (t_binding.vm != nullptr) {
    throw UsageError("thread is already bound to a Vm");
  }
  if (registry_.size() != 0) {
    throw UsageError("attach_main after threads were already registered");
  }
  sched::ThreadState& state = registry_.register_thread(counter_.tally());
  if (config_.mode == Mode::kReplay) {
    const auto& per_thread = replay_log_->schedule.per_thread;
    if (!per_thread.empty()) {
      state.cursor = sched::IntervalCursor(per_thread[0]);
    }
    if (causal_ && !replay_log_->causal.per_thread.empty()) {
      state.causal_seqs = &replay_log_->causal.per_thread[0];
    }
  }
  t_binding = {this, &state};
  runner_began();
}

void Vm::detach_current() {
  if (t_binding.vm != this) {
    throw UsageError("detach_current: thread not bound to this Vm");
  }
  if (t_binding.state != nullptr) flush_trace(*t_binding.state);
  runner_ended();
  t_binding = {};
}

void Vm::runner_ended() {
  if (t_binding.vm == this && t_binding.state != nullptr) {
    yield_stripe(*t_binding.state);
  }
  counter_.runner_ended();
}

GlobalCount Vm::critical_events() const {
  // A leaseholder's completed events are not all published yet; the gc of
  // its next recorded event IS its completed-event count (the counter is
  // zero-based), so report that to keep the thread's own view coherent.
  if (t_binding.vm == this && t_binding.state != nullptr &&
      t_binding.state->lease_active) {
    return t_binding.state->cursor.peek();
  }
  return counter_.value();
}

sched::ThreadState& Vm::current_state() {
  if (t_binding.vm != this || t_binding.state == nullptr) {
    throw UsageError(
        "calling thread is not bound to this Vm (did you forget "
        "attach_main / VmThread?)");
  }
  return *t_binding.state;
}

sched::ThreadState& Vm::register_child_thread() {
  sched::ThreadState& state = registry_.register_thread(counter_.tally());
  if (config_.mode == Mode::kReplay) {
    const auto& per_thread = replay_log_->schedule.per_thread;
    if (state.num < per_thread.size()) {
      state.cursor = sched::IntervalCursor(per_thread[state.num]);
    }
    if (causal_ && state.num < replay_log_->causal.per_thread.size()) {
      state.causal_seqs = &replay_log_->causal.per_thread[state.num];
    }
  }
  return state;
}

void Vm::bind_current(Vm* vm, sched::ThreadState* state) {
  t_binding = {vm, state};
}

void Vm::poison() {
  counter_.poison();
  network_->shutdown();
}

void Vm::resume_replay(GlobalCount checkpoint_gc,
                       std::uint32_t threads_created,
                       EventNum main_event_num) {
  if (config_.mode != Mode::kReplay) {
    throw UsageError("resume_replay outside replay mode");
  }
  if (causal_) {
    throw UsageError(
        "resume_replay requires order_mode=total: replay-from-checkpoint "
        "fast-forwards the exact global counter, which causal replay does "
        "not maintain turn-by-turn");
  }
  if (counter_.value() != 0 || registry_.size() != 1) {
    throw UsageError("resume_replay after events already executed");
  }
  sched::ThreadState& main = current_state();
  main.cursor.skip_through(checkpoint_gc);
  main.next_network_event = main_event_num;
  for (std::uint32_t t = 1; t < threads_created; ++t) {
    sched::ThreadState& st = register_child_thread();
    st.cursor.skip_through(checkpoint_gc);
    if (!st.cursor.exhausted()) {
      throw UsageError(
          "checkpoint was not quiescent: thread " + std::to_string(st.num) +
          " has recorded events after the checkpoint");
    }
  }
  counter_.advance_to(checkpoint_gc + 1);
}

void Vm::flush_trace(sched::ThreadState& state) {
  if (state.trace_buf.empty()) return;
  if (spooler_ == nullptr) {
    trace_.append_batch(std::move(state.trace_buf));
    state.trace_buf.clear();
    return;
  }
  // Spooling: the trace streams to disk for the doctor, incident tails and
  // saved traces.  A full recording also keeps it in trace_, so the run's
  // trace and digest come from memory, never from reading the spool back;
  // a flight recorder keeps no copy, so its memory stays bounded however
  // long the run.  The spooler serializes its batch on the writer thread;
  // re-reserving spares the producer the log-n regrowth next cycle.
  const std::size_t batch_size = state.trace_buf.size();
  if (config_.tuning.flight_recorder) {
    spooler_->trace_batch(std::move(state.trace_buf));
  } else {
    spooler_->trace_batch(state.trace_buf);
    trace_.append_batch(std::move(state.trace_buf));
  }
  state.trace_buf.clear();
  state.trace_buf.reserve(batch_size);
}

void Vm::maybe_spool_flush(sched::ThreadState& state) {
  state.spool_flush_due = false;
  // The network batch goes first: a torn spool then never holds an
  // interval without the entries of the events it covers.
  ship_network(state);
  sched::IntervalList closed = state.recorder.drain_closed();
  if (!closed.empty()) spooler_->schedule_batch(state.num, closed);
  if (causal_ && !state.causal_buf.empty()) {
    spooler_->causal_batch(state.num, state.causal_buf);
    state.causal_buf.clear();
  }
  flush_trace(state);
}

void Vm::log_network_entry(sched::ThreadState& state,
                           record::NetworkLogEntry entry) {
  if (spooler_ == nullptr) {
    network_log_.append(state.num, std::move(entry));
    return;
  }
  // Staged, not enqueued: one queue handoff per batch instead of one per
  // event.  The byte bound keeps a thread reading large open-world content
  // at O(chunk) staged bytes between its event-count flushes.
  record::append_network_item(state.net_buf, state.num, entry);
  if (state.net_buf.size() >= config_.tuning.spool_chunk_bytes) {
    ship_network(state);
  }
}

void Vm::ship_network(sched::ThreadState& state) {
  if (state.net_buf.empty()) return;
  spooler_->network_batch(state.net_buf);
  state.net_buf.clear();
}

void Vm::spool_anchor(const record::SpoolAnchor& anchor) {
  if (spooler_ == nullptr || !config_.tuning.flight_recorder) return;
  // The checkpointing thread's staged entries belong to events before the
  // anchor: they ship ahead of it.  Every later entry is staged after it.
  ship_network(current_state());
  spooler_->anchor(anchor);
}

void Vm::flush_all_traces() {
  registry_.for_each([this](sched::ThreadState& s) { flush_trace(s); });
}

const sched::ExecutionTrace& Vm::trace() {
  if (t_binding.vm == this && t_binding.state != nullptr) {
    flush_trace(*t_binding.state);
  }
  return trace_;
}

record::VmLog Vm::finish_record() {
  if (config_.mode != Mode::kRecord) {
    throw UsageError("finish_record on a Vm not in record mode");
  }
  flush_all_traces();
  record::VmLog log;
  log.vm_id = config_.vm_id;
  log.stats.critical_events = counter_.value();
  log.stats.network_events = nw_events_.load(std::memory_order_relaxed);
  if (spooler_ != nullptr) {
    // Ship each thread's staged network entries, then its remaining
    // intervals (everything not drained by periodic flushes, including the
    // final open interval), behind its earlier batches — the queue is FIFO
    // and all workers have quiesced (joined) before finish_record, so
    // append-order reconstruction still holds.  Then seal the recording with the finish marker and surface
    // any writer error.  The returned VmLog is a husk — identity and stats
    // only; the data lives in the spool file.
    registry_.for_each([&](sched::ThreadState& s) {
      ship_network(s);
      const sched::IntervalList rest = s.recorder.finish();
      if (!rest.empty()) spooler_->schedule_batch(s.num, rest);
      if (causal_ && !s.causal_buf.empty()) {
        spooler_->causal_batch(s.num, s.causal_buf);
        s.causal_buf.clear();
      }
    });
    spooler_->finish(log.stats,
                     static_cast<std::uint32_t>(registry_.size()));
    spooler_->close();
    return log;
  }
  log.schedule.per_thread = registry_.collect_intervals();
  log.network = std::move(network_log_);
  if (causal_) log.causal.per_thread = registry_.collect_causal();
  return log;
}

void Vm::finish_replay() {
  if (config_.mode != Mode::kReplay) {
    throw UsageError("finish_replay on a Vm not in replay mode");
  }
  flush_all_traces();
  const auto& per_thread = replay_log_->schedule.per_thread;
  // Check every thread and throw the report with the LOWEST schedule
  // position, not the first failing thread number — deterministic blame.
  std::vector<sched::DivergenceReport> found;
  for (ThreadNum t = 0; t < per_thread.size(); ++t) {
    sched::ThreadState* state = registry_.find(t);
    if (state == nullptr) {
      if (!per_thread[t].empty()) {
        sched::DivergenceReport r;
        r.vm_id = config_.vm_id;
        r.cause = DivergenceCause::kIncompleteReplay;
        r.thread = t;
        r.gc = counter_.value();
        r.has_expected = true;
        r.expected_gc = per_thread[t].front().first;
        r.has_interval = true;
        r.expected_interval = per_thread[t].front();
        r.detail = "recorded thread " + std::to_string(t) +
                   " was never created during replay";
        found.push_back(std::move(r));
      }
      continue;
    }
    if (!state->cursor.exhausted()) {
      found.push_back(make_divergence_report(
          *state, DivergenceCause::kIncompleteReplay,
          "thread " + std::to_string(t) + " finished with " +
              std::to_string(state->cursor.remaining()) +
              " recorded critical events not replayed",
          /*event_known=*/false, sched::EventKind::kSharedRead,
          kThreadLocalConflict));
    }
  }
  if (found.empty() &&
      counter_.value() != replay_log_->stats.critical_events) {
    sched::DivergenceReport r;
    r.vm_id = config_.vm_id;
    r.cause = DivergenceCause::kIncompleteReplay;
    r.gc = counter_.value();
    r.detail = "replay executed " + std::to_string(counter_.value()) +
               " critical events, recorded " +
               std::to_string(replay_log_->stats.critical_events);
    found.push_back(std::move(r));
  }
  if (!found.empty()) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < found.size(); ++i) {
      if (sched::precedes(found[i], found[best])) best = i;
    }
    throw_divergence(std::move(found[best]));
  }
}

std::vector<sched::DivergenceReport> Vm::divergence_reports() const {
  std::lock_guard<std::mutex> lock(divergence_mutex_);
  return divergences_;
}

sched::DivergenceReport Vm::make_divergence_report(
    const sched::ThreadState& state, DivergenceCause cause,
    const std::string& detail, bool event_known, sched::EventKind kind,
    ConflictKey conflict) const {
  sched::DivergenceReport r;
  r.vm_id = config_.vm_id;
  r.cause = cause;
  r.thread = state.num;
  r.gc = counter_.value();
  r.thread_events_replayed = state.cursor.consumed();
  if (auto iv = state.cursor.current_interval()) {
    r.has_expected = true;
    r.expected_gc = state.cursor.peek();
    r.has_interval = true;
    r.expected_interval = *iv;
  } else {
    r.schedule_exhausted = true;
    if (auto last = state.cursor.last_recorded_interval()) {
      r.has_interval = true;
      r.expected_interval = *last;
    }
  }
  r.event_known = event_known;
  r.event = kind;
  r.conflict_key =
      conflict == kThreadLocalConflict
          ? 0
          : static_cast<std::uint64_t>(
                reinterpret_cast<std::uintptr_t>(conflict));
  r.lease_active = state.lease_active;
  r.lease_end = state.lease_end;
  r.detail = detail;
  r.recent = state.ring_snapshot();
  return r;
}

void Vm::throw_divergence(sched::DivergenceReport report) {
  {
    std::lock_guard<std::mutex> lock(divergence_mutex_);
    divergences_.push_back(report);
  }
  // The original message leads (catch sites and tests match on it); the
  // structured context trails in brackets.
  std::string msg =
      report.detail + " [vm " + std::to_string(report.vm_id) + " thread " +
      std::to_string(report.thread) + ", cause " +
      divergence_cause_name(report.cause) + ", at gc " +
      std::to_string(report.divergence_gc()) + "]";
  throw sched::ReportedDivergenceError(std::move(msg), std::move(report));
}

void Vm::replay_divergence(sched::EventKind kind, const std::string& what,
                           ConflictKey conflict) {
  throw_divergence(make_divergence_report(
      current_state(), DivergenceCause::kNetworkMismatch, what,
      /*event_known=*/true, kind, conflict));
}

void Vm::after_event(sched::ThreadState& state, sched::EventKind kind,
                     std::uint64_t aux, GlobalCount gc) {
  if (sched::is_network_event(kind)) {
    nw_events_.fetch_add(1, std::memory_order_relaxed);
  }
  if (config_.keep_trace) {
    // Buffered locally; merged into trace_ when this thread finishes (or
    // on explicit trace() access) — no cross-thread lock per event.  With
    // no spooler to drain it, a buffer of kTracePartRecords moves to trace_
    // whole instead of doubling: a run's result keeps the parts as they are
    // (sched::RunTrace), and a doubled buffer could hold half its capacity
    // unused.
    if (spooler_ == nullptr && state.trace_buf.size() == kTracePartRecords) {
      flush_trace(state);
      state.trace_buf.reserve(kTracePartRecords);
    }
    state.trace_buf.push_back({gc, state.num, kind, aux});
  }
  if (config_.mode == Mode::kReplay) {
    // Divergence forensics: remember the thread's last few events in its
    // bounded ring (an array store + increment; no lock, no allocation).
    state.ring_push({gc, state.num, kind, aux});
  }
  if (spooler_ != nullptr &&
      state.recorder.local_count() % spool_flush_events_ == 0) {
    // Periodic per-thread drain, so resident log state stays bounded
    // however long the run.  Due now, run when the thread's next event
    // begins: a gateway may log this event's network entry after the tick
    // (a time read, a failure inside the section), and the drained schedule
    // covers this event.
    state.spool_flush_due = true;
  }
  if (observer_) {
    observer_(sched::TraceRecord{gc, state.num, kind, aux});
  }
}

GlobalCount Vm::replay_turn_wait(sched::ThreadState& state, bool leasable,
                                 bool event_known, sched::EventKind kind,
                                 ConflictKey conflict) {
  try {
    // peek() is the divergence check: a thread attempting an event beyond
    // its recorded schedule throws here, before any waiting, in both modes.
    const GlobalCount g = state.cursor.peek();
    if (causal_) {
      // Causal replay: wait for the event's per-key predecessor, not the
      // global turn.  The recorded gc still tags the trace record below, so
      // gc-sorted traces (and digests) stay identical across modes.  The
      // per-event seq is looked up by position — the cursor and the causal
      // list advance in lock step, one entry per event (sizes validated at
      // construction).  replay_leasing is ignored: per-key waiting already
      // eliminates the cross-thread serialization leases amortize.
      const std::uint64_t seq =
          (*state.causal_seqs)[state.cursor.consumed()];
      sched::TurnCell& cell = order_cell(state, conflict);
      const std::uint64_t count =
          counter_.gate().wait(cell, seq, *state.tally);
      if (count != seq) {
        throw ReplayDivergenceError(
            "causal replay passed its turn: recorded per-key seq " +
                std::to_string(seq) + " but " + std::to_string(count) +
                " same-key events already published — the per-key order "
                "and the execution disagree",
            DivergenceCause::kCounterPassed);
      }
      state.causal_turn = &cell;
      return g;
    }
    if (!config_.tuning.replay_leasing) {
      counter_.await(g, *state.tally);
      return g;
    }
    if (state.lease_active) {
      // Within the lease the turn is already ours: every event in
      // [lease start, lease_end] belongs to this thread (interval = maximal
      // consecutive run), so no other thread may run until we publish.
      // Awaiting here would deadlock — the published counter lags our local
      // progress until the next stride publication.
      return g;
    }
    counter_.await(g, *state.tally);
    // A one-event interval takes no lease: the plain tick after the event
    // publishes it, and a lease would only add writes to the shared
    // lease flag on the turn's critical path (docs/INTERNALS.md §1b).
    const GlobalCount last = state.cursor.interval_last();
    if (leasable && last > g) {
      counter_.lease_begin(g, last, *state.tally);
      state.lease_active = true;
      state.lease_end = last;
      state.lease_next_publish = g + kLeasePublishStride;
    }
    return g;
  } catch (const sched::ReportedDivergenceError&) {
    throw;  // already enriched
  } catch (const ReplayDivergenceError& e) {
    // Enrich the string-only cursor/counter error with the thread's full
    // replay position (forensics) and rethrow structured.
    throw_divergence(make_divergence_report(state, e.cause(), e.what(),
                                            event_known, kind, conflict));
  }
}

void Vm::replay_turn_done(sched::ThreadState& state, GlobalCount g) {
  if (causal_) {
    // The tick keeps value() (finish_replay's count check, stats, stall
    // observers) moving; ticks from different threads may interleave here,
    // which is safe — no thread ever awaits the counter in causal replay.
    counter_.tick(*state.tally);
    state.cursor.advance();
    // The cell is still alive: the object the event conflicts on lives
    // across the gateway call that waited and now publishes.
    if (state.causal_turn != nullptr) {
      counter_.gate().advance(*std::exchange(state.causal_turn, nullptr));
    }
    return;
  }
  if (state.lease_active) {
    if (g == state.lease_end) {
      counter_.lease_complete(g, *state.tally);
      state.lease_active = false;
    } else if (g + 1 == state.lease_next_publish) {
      // Keep value() observers (stall detector, checkpoints, stats) from
      // seeing a frozen counter across a long interval.  Under-reporting
      // between strides is safe: no waiter's turn lies inside the lease.
      counter_.lease_publish(g + 1, *state.tally);
      state.lease_next_publish = g + 1 + kLeasePublishStride;
    }
    state.cursor.advance();
    return;
  }
  counter_.tick(*state.tally);
  state.cursor.advance();
}

void Vm::lease_quiesce(sched::ThreadState& state) {
  if (!state.lease_active) return;
  counter_.lease_release(state.cursor.peek(), *state.tally);
  state.lease_active = false;
}

GlobalCount Vm::critical_event(sched::EventKind kind, const EventBody& body,
                               std::uint64_t fixed_aux, ConflictKey conflict) {
  std::uint64_t aux = fixed_aux;
  switch (config_.mode) {
    case Mode::kPassthrough:
      if (body) body(0);
      return 0;
    case Mode::kRecord: {
      sched::ThreadState& state = current_state();
      if (state.spool_flush_due) maybe_spool_flush(state);
      // Chaos fuzzing happens before the section: it perturbs which thread
      // wins the next counter value, never what the event does.
      maybe_chaos();
      // An event whose body throws (e.g. a write hitting connection-reset)
      // still happened: it must tick and be recorded so replay can re-throw
      // at the same schedule position.
      std::exception_ptr raised;
      const auto section_body = [&](GlobalCount g) {
        try {
          if (body) aux = body(g);
        } catch (const net::NetError& e) {
          // Trace the error code so a replayed re-throw (whose mark uses
          // the recorded code as aux) compares equal.
          aux = static_cast<std::uint64_t>(e.code());
          raised = std::current_exception();
        } catch (...) {
          raised = std::current_exception();
        }
        state.recorder.on_event(g);
      };
      GlobalCount gc;
      if (conflict == kGlobalConflict) {
        if (causal_) {
          throw UsageError(
              "kGlobalConflict events (checkpoint barriers) require "
              "order_mode=total: they exclude every key at once, which a "
              "per-key partial order cannot express");
        }
        gc = counter_.with_exclusive_section(*state.tally, section_body);
      } else {
        // Thread-local events key on the thread number, made odd so it can
        // never collide with an aligned object address.  With one stripe
        // every key takes the same lock (the single section).
        const sched::SectionKey key =
            conflict_section_key(state.num, conflict);
        if (causal_) {
          // The per-key seq is assigned INSIDE the key's section: same-key
          // events serialize on the same stripe, so
          // seq order == section-acquisition order == object access order.
          sched::TurnCell& cell = order_cell(state, conflict);
          gc = counter_.with_section(
              key, state.stripe_hold, *state.tally, [&](GlobalCount g) {
                section_body(g);
                state.causal_buf.push_back(cell.fetch_add(1));
              });
        } else {
          gc = counter_.with_section(key, state.stripe_hold, *state.tally,
                                     section_body);
        }
      }
      after_event(state, kind, aux, gc);
      if (raised) std::rethrow_exception(raised);
      return gc;
    }
    case Mode::kReplay: {
      sched::ThreadState& state = current_state();
      // kGlobalConflict events (checkpoint barriers) snapshot arbitrary
      // state against value(), so they need the counter exact: publish and
      // drop any active lease, then run the per-event protocol.
      const bool exact = conflict == kGlobalConflict;
      if (exact && causal_) {
        throw UsageError(
            "kGlobalConflict events (checkpoint barriers) require "
            "order_mode=total: causal replay never holds the exact global "
            "counter");
      }
      if (exact) lease_quiesce(state);
      const GlobalCount g = replay_turn_wait(state, /*leasable=*/!exact,
                                             /*event_known=*/true, kind,
                                             conflict);
      std::exception_ptr raised;
      try {
        if (body) aux = body(g);
      } catch (const net::NetError& e) {
        aux = static_cast<std::uint64_t>(e.code());
        raised = std::current_exception();
      } catch (...) {
        raised = std::current_exception();
      }
      replay_turn_done(state, g);
      after_event(state, kind, aux, g);
      if (raised) std::rethrow_exception(raised);
      return g;
    }
  }
  throw UsageError("unreachable");
}

GlobalCount Vm::mark_event(sched::EventKind kind, std::uint64_t aux,
                           ConflictKey conflict) {
  return critical_event(kind, nullptr, aux, conflict);
}

GlobalCount Vm::replay_turn_begin(sched::EventKind kind,
                                  ConflictKey conflict) {
  if (config_.mode != Mode::kReplay) {
    throw UsageError("replay_turn_begin outside replay mode");
  }
  return replay_turn_wait(current_state(), /*leasable=*/true,
                          /*event_known=*/true, kind, conflict);
}

void Vm::replay_turn_end(sched::EventKind kind, std::uint64_t aux) {
  sched::ThreadState& state = current_state();
  const GlobalCount g = state.cursor.peek();
  replay_turn_done(state, g);
  after_event(state, kind, aux, g);
}

}  // namespace djvu::vm
