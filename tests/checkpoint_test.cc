// Tests for the checkpointing extension (src/checkpoint): quiescent-point
// snapshots, replay-from-checkpoint, serialization.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "checkpoint/checkpoint.h"
#include "common/crc32.h"
#include "record/log_spool.h"
#include "record/serializer.h"
#include "net/network.h"
#include "vm/thread.h"

namespace djvu {
namespace {

using checkpoint::Checkpointer;
using checkpoint::CheckpointLog;

/// A phased application: each phase spawns workers that racily bump a
/// shared counter, then quiesces and checkpoints.  `start_phase` lets a
/// resumed replay skip completed phases.
struct PhasedApp {
  static constexpr int kPhases = 3;
  static constexpr int kWorkers = 3;
  static constexpr int kIncrements = 40;

  std::uint64_t final_value = 0;
  GlobalCount final_events = 0;
  CheckpointLog log;

  void run(vm::Vm& v, int start_phase, const CheckpointLog* resume_log) {
    vm::SharedVar<std::uint64_t> counter(v, 0);
    Checkpointer cp(v);
    cp.track_var("counter", counter);
    if (resume_log != nullptr) {
      cp.resume_at(static_cast<std::uint32_t>(start_phase - 1), *resume_log);
      cp.barrier(static_cast<std::uint32_t>(start_phase - 1));
    }
    for (int phase = start_phase; phase < kPhases; ++phase) {
      std::vector<vm::VmThread> workers;
      for (int w = 0; w < kWorkers; ++w) {
        workers.emplace_back(v, [&counter] {
          for (int i = 0; i < kIncrements; ++i) {
            counter.set(counter.get() + 1);
          }
        });
      }
      for (auto& w : workers) w.join();
      cp.barrier(static_cast<std::uint32_t>(phase));
    }
    final_value = counter.unsafe_peek();
    final_events = v.critical_events();
    log = cp.log();
  }
};

struct RunOutput {
  std::uint64_t final_value;
  GlobalCount final_events;
  CheckpointLog cp_log;
  record::VmLog vm_log;
};

RunOutput record_run() {
  auto network = std::make_shared<net::Network>();
  vm::VmConfig cfg;
  cfg.vm_id = 1;
  cfg.mode = vm::Mode::kRecord;
  vm::Vm v(network, cfg);
  v.attach_main();
  PhasedApp app;
  app.run(v, 0, nullptr);
  v.detach_current();
  return {app.final_value, app.final_events, app.log, v.finish_record()};
}

TEST(Checkpoint, RecordCapturesPerPhaseState) {
  RunOutput rec = record_run();
  ASSERT_EQ(rec.cp_log.checkpoints.size(), 3u);
  for (int phase = 0; phase < 3; ++phase) {
    const auto& cp = rec.cp_log.by_phase(static_cast<std::uint32_t>(phase));
    EXPECT_EQ(cp.threads_created, 1u + 3u * (static_cast<unsigned>(phase) + 1));
    ASSERT_TRUE(cp.state.contains("counter"));
    ByteReader r(cp.state.at("counter"));
    std::uint64_t value = r.u64();
    // Racy increments: at most kWorkers*kIncrements per phase.
    EXPECT_LE(value, 120u * (static_cast<unsigned>(phase) + 1));
    EXPECT_GT(value, 0u);
  }
  // Monotone positions.
  EXPECT_LT(rec.cp_log.checkpoints[0].gc, rec.cp_log.checkpoints[1].gc);
  EXPECT_LT(rec.cp_log.checkpoints[1].gc, rec.cp_log.checkpoints[2].gc);
}

TEST(Checkpoint, FullReplayStillWorksWithBarriers) {
  RunOutput rec = record_run();
  auto network = std::make_shared<net::Network>();
  vm::VmConfig cfg;
  cfg.vm_id = 1;
  cfg.mode = vm::Mode::kReplay;
  vm::Vm v(network, cfg,
           std::make_shared<const record::VmLog>(
               record::deserialize(record::serialize(rec.vm_log))));
  v.attach_main();
  PhasedApp app;
  app.run(v, 0, nullptr);
  v.detach_current();
  v.finish_replay();
  EXPECT_EQ(app.final_value, rec.final_value);
  EXPECT_EQ(app.final_events, rec.final_events);
}

TEST(Checkpoint, ResumeFromEachPhaseReproducesFinalState) {
  RunOutput rec = record_run();
  for (int resume_phase = 1; resume_phase <= 2; ++resume_phase) {
    auto network = std::make_shared<net::Network>();
    vm::VmConfig cfg;
    cfg.vm_id = 1;
    cfg.mode = vm::Mode::kReplay;
    vm::Vm v(network, cfg,
             std::make_shared<const record::VmLog>(
                 record::deserialize(record::serialize(rec.vm_log))));
    v.attach_main();
    PhasedApp app;
    app.run(v, resume_phase, &rec.cp_log);
    v.detach_current();
    v.finish_replay();
    EXPECT_EQ(app.final_value, rec.final_value)
        << "resumed from phase " << resume_phase;
    EXPECT_EQ(app.final_events, rec.final_events);
  }
}

TEST(Checkpoint, ResumeSkipsWork) {
  RunOutput rec = record_run();
  // Resuming from the last checkpoint replays only the final (empty) tail:
  // the VM's executed-event count equals total minus the skipped prefix.
  auto network = std::make_shared<net::Network>();
  vm::VmConfig cfg;
  cfg.vm_id = 1;
  cfg.mode = vm::Mode::kReplay;
  vm::Vm v(network, cfg,
           std::make_shared<const record::VmLog>(
               record::deserialize(record::serialize(rec.vm_log))));
  v.attach_main();
  PhasedApp app;
  app.run(v, 3, &rec.cp_log);  // skip all three phases
  v.detach_current();
  v.finish_replay();
  EXPECT_EQ(app.final_value, rec.final_value);
}

TEST(Checkpoint, SerializationRoundTrip) {
  RunOutput rec = record_run();
  Bytes data = checkpoint::serialize(rec.cp_log);
  CheckpointLog back = checkpoint::deserialize(data);
  EXPECT_EQ(back, rec.cp_log);

  // Corruption rejected.
  data[data.size() / 2] ^= 1;
  EXPECT_THROW(checkpoint::deserialize(data), LogFormatError);
}

TEST(Checkpoint, FileRoundTrip) {
  RunOutput rec = record_run();
  std::string path = testing::TempDir() + "/djvu_checkpoint_test.ckp";
  checkpoint::save_to_file(rec.cp_log, path);
  EXPECT_EQ(checkpoint::load_from_file(path), rec.cp_log);
  std::remove(path.c_str());
}

// DJVUCKP bytes of a fixed two-checkpoint log with multi-entry state, as
// the format has always written them: a change to the checkpoint or anchor
// encoding that moves a byte fails here.
TEST(Checkpoint, SerializedBytesAreFrozen) {
  const CheckpointLog log{
      3,
      {{1, 17, 2, 4, {{"a", {1, 2}}, {"counter", {0x2c, 1, 0, 0, 0, 0, 0, 0}}}},
       {2, 1000, 5, 130, {{"a", {}}, {"b", {0xff}}}}}};
  const Bytes expected = {
      0x44, 0x4a, 0x56, 0x55, 0x43, 0x4b, 0x50, 0x31, 0x01, 0x00, 0x03, 0x00,
      0x00, 0x00, 0x02, 0x01, 0x11, 0x02, 0x04, 0x02, 0x01, 0x61, 0x02, 0x01,
      0x02, 0x07, 0x63, 0x6f, 0x75, 0x6e, 0x74, 0x65, 0x72, 0x08, 0x2c, 0x01,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0xe8, 0x07, 0x05, 0x82, 0x01,
      0x02, 0x01, 0x61, 0x00, 0x01, 0x62, 0x01, 0xff, 0xb4, 0xf3, 0x5a, 0xf2};
  EXPECT_EQ(checkpoint::serialize(log), expected);
  EXPECT_EQ(checkpoint::deserialize(expected), log);

  // A checkpoint is a spool anchor: its DJVUCKP entry (after the 15-byte
  // magic, version, vm_id and count) is byte for byte its kAnchor body.
  const Bytes first = record::encode_anchor_item(log.checkpoints[0]);
  ASSERT_LE(15 + first.size(), expected.size());
  EXPECT_EQ(Bytes(expected.begin() + 15, expected.begin() + 15 + first.size()),
            first);
}

// A CRC-valid log whose checkpoint count exceeds its bytes is a format
// error, not an allocation of that many entries.
TEST(Checkpoint, ImpossibleCountIsAFormatError) {
  ByteWriter w;
  w.raw(to_bytes("DJVUCKP1"));
  w.u16(1);
  w.u32(3);
  w.varint(std::uint64_t{1} << 40);
  w.u32(crc32(w.view()));
  EXPECT_THROW(checkpoint::deserialize(w.view()), LogFormatError);
}

// A full disk takes a small write into the stdio buffer and fails only at
// the flush: the save must still throw.
TEST(Checkpoint, SaveToFullDiskThrows) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  RunOutput rec = record_run();
  ASSERT_LT(checkpoint::serialize(rec.cp_log).size(), 4096u);
  EXPECT_THROW(checkpoint::save_to_file(rec.cp_log, "/dev/full"), Error);
}

TEST(Checkpoint, UnknownPhaseThrows) {
  RunOutput rec = record_run();
  EXPECT_THROW(rec.cp_log.by_phase(99), UsageError);
}

TEST(Checkpoint, DuplicateTrackingRejected) {
  auto network = std::make_shared<net::Network>();
  vm::VmConfig cfg;
  cfg.vm_id = 1;
  cfg.mode = vm::Mode::kRecord;
  vm::Vm v(network, cfg);
  v.attach_main();
  vm::SharedVar<std::uint64_t> x(v, 0);
  Checkpointer cp(v);
  cp.track_var("x", x);
  EXPECT_THROW(cp.track_var("x", x), UsageError);
  v.detach_current();
}

}  // namespace
}  // namespace djvu
