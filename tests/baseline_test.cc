// Tests for the Levrouw-style per-object record/replay baseline
// (src/baseline) — the related-work scheme implemented end-to-end so the
// comparison benches run real code.

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <thread>

#include "baseline/per_object.h"
#include "common/crc32.h"

namespace djvu::baseline {
namespace {

struct RacyResult {
  std::uint64_t final_value = 0;
  PerObjectLog log;
};

RacyResult run_racy(Mode mode, const PerObjectLog* replay_log,
                    int threads = 4, int iters = 150) {
  LvHost host(mode, replay_log);
  host.attach_main();
  LvSharedVar<std::uint64_t> counter(host, 0);
  for (int t = 0; t < threads; ++t) {
    host.spawn([&counter, iters] {
      for (int i = 0; i < iters; ++i) {
        counter.set(counter.get() + 1);  // racy: get/set are two accesses
      }
    });
  }
  host.join_all();
  RacyResult out;
  out.final_value = counter.unsafe_peek();
  if (mode == Mode::kRecord) out.log = host.finish_record();
  host.detach_current();
  return out;
}

TEST(PerObjectBaseline, RecordThenReplayReproduces) {
  RacyResult rec = run_racy(Mode::kRecord, nullptr);
  EXPECT_GT(rec.log.run_count(), 0u);
  for (int i = 0; i < 3; ++i) {
    RacyResult rep = run_racy(Mode::kReplay, &rec.log);
    EXPECT_EQ(rep.final_value, rec.final_value) << "replay " << i;
  }
}

TEST(PerObjectBaseline, MultipleObjectsIndependentOrders) {
  LvHost host(Mode::kRecord);
  host.attach_main();
  LvSharedVar<std::uint64_t> a(host, 0);
  LvSharedVar<std::uint64_t> b(host, 1000);
  for (int t = 0; t < 3; ++t) {
    host.spawn([&a, &b] {
      for (int i = 0; i < 50; ++i) {
        a.set(a.get() + 1);
        b.set(b.get() * 3 + 1);
      }
    });
  }
  host.join_all();
  std::uint64_t va = a.unsafe_peek(), vb = b.unsafe_peek();
  PerObjectLog log = host.finish_record();
  host.detach_current();
  ASSERT_EQ(log.objects.size(), 2u);

  LvHost rhost(Mode::kReplay, &log);
  rhost.attach_main();
  LvSharedVar<std::uint64_t> ra(rhost, 0);
  LvSharedVar<std::uint64_t> rb(rhost, 1000);
  for (int t = 0; t < 3; ++t) {
    rhost.spawn([&ra, &rb] {
      for (int i = 0; i < 50; ++i) {
        ra.set(ra.get() + 1);
        rb.set(rb.get() * 3 + 1);
      }
    });
  }
  rhost.join_all();
  EXPECT_EQ(ra.unsafe_peek(), va);
  EXPECT_EQ(rb.unsafe_peek(), vb);
  rhost.detach_current();
}

TEST(PerObjectBaseline, RunLengthEncodingCollapsesRuns) {
  LvHost host(Mode::kRecord);
  host.attach_main();
  LvSharedVar<std::uint64_t> x(host, 0);
  for (int i = 0; i < 1000; ++i) x.set(i);  // one thread only
  host.join_all();
  PerObjectLog log = host.finish_record();
  host.detach_current();
  ASSERT_EQ(log.objects.size(), 1u);
  ASSERT_EQ(log.objects[0].size(), 1u);  // one run of 1000
  EXPECT_EQ(log.objects[0][0].count, 1000u);
}

TEST(PerObjectBaseline, SerializationRoundTrip) {
  RacyResult rec = run_racy(Mode::kRecord, nullptr, 3, 40);
  Bytes data = serialize(rec.log);
  EXPECT_EQ(deserialize(data), rec.log);
  data[data.size() / 2] ^= 1;
  EXPECT_THROW(deserialize(data), LogFormatError);
}

TEST(PerObjectBaseline, OverrunDetected) {
  RacyResult rec = run_racy(Mode::kRecord, nullptr, 2, 20);
  // Replay an app that accesses MORE than recorded.
  LvHost host(Mode::kReplay, &rec.log, std::chrono::milliseconds(300));
  host.attach_main();
  LvSharedVar<std::uint64_t> counter(host, 0);
  for (int t = 0; t < 2; ++t) {
    host.spawn([&counter] {
      for (int i = 0; i < 21; ++i) {  // 20 recorded
        counter.set(counter.get() + 1);
      }
    });
  }
  EXPECT_THROW(host.join_all(), ReplayDivergenceError);
  host.detach_current();
}

TEST(PerObjectBaseline, TooManyObjectsDetected) {
  RacyResult rec = run_racy(Mode::kRecord, nullptr, 2, 5);
  LvHost host(Mode::kReplay, &rec.log);
  host.attach_main();
  LvSharedVar<std::uint64_t> a(host, 0);
  EXPECT_THROW(LvSharedVar<std::uint64_t> b(host, 0),
               ReplayDivergenceError);
  host.detach_current();
}

// A replay wait that outlasts the stall window is not a stall while the
// object keeps moving: thread 2's get waits behind thread 1's 500 sets,
// published ~1 ms apart, for at least ten 50 ms windows.  Every
// publication restarts the stall clock.
TEST(PerObjectBaseline, LongWaitBehindProgressIsNotAStall) {
  constexpr std::uint32_t kAccesses = 500;
  PerObjectLog log;
  log.objects.push_back({{/*thread=*/1, kAccesses}, {/*thread=*/2, 2}});
  constexpr auto kWindow = std::chrono::milliseconds(50);
  LvHost host(Mode::kReplay, &log, kWindow);
  host.attach_main();
  LvSharedVar<std::uint64_t> x(host, 0);
  host.spawn([&x] {
    for (std::uint32_t i = 0; i < kAccesses; ++i) {
      x.set(x.unsafe_peek() + 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  host.spawn([&x] { x.set(x.get() * 2); });
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_NO_THROW(host.join_all());
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 10 * kWindow);
  EXPECT_EQ(x.unsafe_peek(), 2u * kAccesses);
  host.detach_current();
}

// A worker that fails poisons the gate: a sibling waiting for the failed
// thread's access unwinds at once instead of waiting out the stall window.
TEST(PerObjectBaseline, FailingWorkerUnwindsItsSiblings) {
  PerObjectLog log;
  log.objects.push_back({{/*thread=*/1, 1}, {/*thread=*/2, 1}});
  LvHost host(Mode::kReplay, &log, std::chrono::seconds(30));
  host.attach_main();
  LvSharedVar<std::uint64_t> x(host, 0);
  host.spawn([] { throw std::runtime_error("worker failed"); });
  host.spawn([&x] { x.set(1); });
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(host.join_all(), std::runtime_error);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
  host.detach_current();
}

Bytes framed(const ByteWriter& body) {
  ByteWriter w;
  w.raw(body.view());
  w.u32(crc32(body.view()));
  return w.take();
}

ByteWriter with_magic() {
  ByteWriter w;
  const char magic[8] = {'D', 'J', 'V', 'U', 'L', 'V', 'R', '1'};
  w.raw(BytesView(reinterpret_cast<const std::uint8_t*>(magic), 8));
  return w;
}

// CRC-valid logs whose counts the bytes cannot hold, or whose thread or
// count does not fit 32 bits, are format errors — never an allocation
// sized by the file, never a silent truncation.
TEST(PerObjectBaseline, HostileCountsAreFormatErrors) {
  ByteWriter objects = with_magic();
  objects.varint(std::uint64_t{1} << 40);  // objects
  EXPECT_THROW(deserialize(framed(objects)), LogFormatError);

  ByteWriter runs = with_magic();
  runs.varint(1);                       // objects
  runs.varint(std::uint64_t{1} << 40);  // runs of object 0
  EXPECT_THROW(deserialize(framed(runs)), LogFormatError);

  ByteWriter thread = with_magic();
  thread.varint(1).varint(1);
  thread.varint(std::uint64_t{1} << 32).varint(1);  // thread, count
  EXPECT_THROW(deserialize(framed(thread)), LogFormatError);

  ByteWriter count = with_magic();
  count.varint(1).varint(1);
  count.varint(1).varint(std::uint64_t{1} << 32);
  EXPECT_THROW(deserialize(framed(count)), LogFormatError);

  // The same shapes with sane values still parse.
  ByteWriter sane = with_magic();
  sane.varint(1).varint(1).varint(1).varint(7);
  const PerObjectLog log = deserialize(framed(sane));
  ASSERT_EQ(log.objects.size(), 1u);
  EXPECT_EQ(log.objects[0], (ObjectLog{{1, 7}}));
}

// Property: across seeds/shapes, the baseline replays its own recordings —
// establishing it as a fair comparison point for the ablation bench.
class BaselineSweep : public ::testing::TestWithParam<int> {};

TEST_P(BaselineSweep, RecordReplay) {
  RacyResult rec = run_racy(Mode::kRecord, nullptr, GetParam(), 60);
  RacyResult rep = run_racy(Mode::kReplay, &rec.log, GetParam(), 60);
  EXPECT_EQ(rep.final_value, rec.final_value);
}

INSTANTIATE_TEST_SUITE_P(Threads, BaselineSweep, ::testing::Values(1, 2, 3, 6));

}  // namespace
}  // namespace djvu::baseline
