// Unit tests for src/common: byte codec, CRC, RNG, blocking queue, ids.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <thread>

#include "common/blocking_queue.h"
#include "common/bytes.h"
#include "common/crc32.h"
#include "common/errors.h"
#include "common/file_io.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/strutil.h"

namespace djvu {
namespace {

TEST(Bytes, RoundTripPrimitives) {
  ByteWriter w;
  w.u8(0xab).u16(0x1234).u32(0xdeadbeef).u64(0x0123456789abcdefULL);
  w.varint(0);
  w.varint(127);
  w.varint(128);
  w.varint(0xffffffffffffffffULL);
  w.str("hello");
  w.bytes(Bytes{0, 1, 2});

  ByteReader r(w.view());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.varint(), 0u);
  EXPECT_EQ(r.varint(), 127u);
  EXPECT_EQ(r.varint(), 128u);
  EXPECT_EQ(r.varint(), 0xffffffffffffffffULL);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.bytes().size(), 3u);
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, TruncatedInputThrows) {
  ByteWriter w;
  w.u32(42);
  Bytes data = w.take();
  data.pop_back();
  ByteReader r(data);
  EXPECT_THROW(r.u32(), LogFormatError);
}

TEST(Bytes, VarintBoundaries) {
  for (std::uint64_t v :
       {0ull, 1ull, 0x7full, 0x80ull, 0x3fffull, 0x4000ull,
        0x1fffffull, (1ull << 32), ~0ull}) {
    ByteWriter w;
    w.varint(v);
    ByteReader r(w.view());
    EXPECT_EQ(r.varint(), v) << v;
    EXPECT_TRUE(r.at_end());
  }
}

TEST(Bytes, MalformedVarintThrows) {
  Bytes data(11, 0x80);  // continuation bit forever
  ByteReader r(data);
  EXPECT_THROW(r.varint(), LogFormatError);
}

TEST(Crc32, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (IEEE).
  EXPECT_EQ(crc32(to_bytes("123456789")), 0xcbf43926u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  Bytes data = to_bytes("the quick brown fox jumps over the lazy dog");
  Crc32 inc;
  inc.update(BytesView(data).first(10));
  inc.update(BytesView(data).subspan(10));
  EXPECT_EQ(inc.value(), crc32(data));
}

TEST(Crc32, DetectsBitFlip) {
  Bytes data = to_bytes("some log content");
  std::uint32_t before = crc32(data);
  data[3] ^= 1;
  EXPECT_NE(before, crc32(data));
}

// The definition of CRC-32, one bit at a time: the reference every faster
// path must agree with.
std::uint32_t bitwise_crc32(BytesView data) {
  std::uint32_t c = 0xffffffffu;
  for (std::uint8_t byte : data) {
    c ^= byte;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Bytes out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

// Every length through several 64-byte folds and the 16-byte tail, at every
// start offset within a 16-byte line: both sides of the kernel's size
// threshold and of each unaligned load.
TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  const Bytes buf = random_bytes(1100 + 16, 1);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      const BytesView data(buf.data() + offset, len);
      ASSERT_EQ(crc32(data), bitwise_crc32(data))
          << "offset " << offset << " len " << len;
    }
  }
}

// Splitting the input anywhere in the first 64 bytes puts short, kernel and
// tail pieces on either side of the cut.
TEST(Crc32, IncrementalSplitsMatchReference) {
  const Bytes buf = random_bytes(1000, 2);
  const std::uint32_t expect = bitwise_crc32(buf);
  for (std::size_t cut = 0; cut < 64; ++cut) {
    Crc32 inc;
    inc.update(BytesView(buf).first(cut));
    inc.update(BytesView(buf).subspan(cut));
    ASSERT_EQ(inc.value(), expect) << cut;
  }
}

TEST(Crc32, DispatchedPathMatchesPortable) {
  for (std::size_t len : {std::size_t{64 << 10}, std::size_t{(1 << 20) + 13},
                          std::size_t{4 << 20}}) {
    const Bytes buf = random_bytes(len + 7, len);
    for (std::size_t offset : {std::size_t{0}, std::size_t{7}}) {
      const BytesView data(buf.data() + offset, len);
      ASSERT_EQ(crc32(data), detail::crc32_portable(data))
          << "len " << len << " offset " << offset;
    }
  }
}

TEST(Crc32, CombineAndAppendMatchWholeOnRandomSplits) {
  Xoshiro256 rng(3);
  const Bytes buf = random_bytes(5000, 4);
  for (int i = 0; i < 500; ++i) {
    const std::size_t len = rng.next_below(buf.size() + 1);
    const std::size_t cut = rng.next_below(len + 1);
    const BytesView whole(buf.data(), len);
    const BytesView a = whole.first(cut);
    const BytesView b = whole.subspan(cut);
    const std::uint32_t expect = crc32(whole);
    ASSERT_EQ(crc32_combine(crc32(a), crc32(b), b.size()), expect)
        << "len " << len << " cut " << cut;
    Crc32 inc;
    inc.update(a);
    inc.append(crc32(b), b.size());
    ASSERT_EQ(inc.value(), expect) << "len " << len << " cut " << cut;
  }
}

TEST(Crc32, CombineWithEmptySecondRangeIsIdentity) {
  for (std::uint32_t crc1 : {0u, 1u, 0xcbf43926u, 0xffffffffu}) {
    EXPECT_EQ(crc32_combine(crc1, crc32({}), 0), crc1);
  }
  Crc32 inc;
  inc.update(to_bytes("123456789"));
  inc.append(crc32({}), 0);
  EXPECT_EQ(inc.value(), 0xcbf43926u);
}

// Ranges of 2^32 bytes and more cannot be hashed here, so the combine is
// checked against itself: moving a CRC past L1 then L2 zero-CRC bytes must
// equal moving it past L1 + L2 at once.  Sixteen steps of 2^28 bytes reach
// 2^32 without the table index wrapping, so the wrap is checked against
// steps that do not use it.
TEST(Crc32, CombineIsAssociativeBeyondFourGiB) {
  const std::uint32_t a = 0x12345678u;
  std::uint32_t stepped = a;
  for (int i = 0; i < 16; ++i) stepped = crc32_combine(stepped, 0, 1u << 28);
  EXPECT_EQ(stepped, crc32_combine(a, 0, std::uint64_t{1} << 32));

  Xoshiro256 rng(5);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t len1 = rng.next() >> 28;  // up to 2^36
    const std::uint64_t len2 = rng.next() >> 28;
    const auto b = static_cast<std::uint32_t>(rng.next());
    const auto c = static_cast<std::uint32_t>(rng.next());
    // crc(A || B || C) two ways: (A || B) then C, and A then (B || C).
    ASSERT_EQ(crc32_combine(crc32_combine(a, b, len1), c, len2),
              crc32_combine(a, crc32_combine(b, c, len2), len1 + len2))
        << len1 << " " << len2;
  }
}

TEST(Rng, DeterministicForSeed) {
  Xoshiro256 a(42), b(42), c(43);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    auto va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Rng, ChanceBounds) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(0.3);
  EXPECT_GT(hits, 2500);
  EXPECT_LT(hits, 3500);
}

TEST(Rng, NextBelowInRange) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(BlockingQueue, FifoOrder) {
  BlockingQueue<int> q;
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.push(3));
  EXPECT_EQ(*q.pop(), 1);
  EXPECT_EQ(*q.pop(), 2);
  EXPECT_EQ(*q.pop(), 3);
}

TEST(BlockingQueue, PopBlocksUntilPush) {
  BlockingQueue<int> q;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_TRUE(q.push(99));
  });
  EXPECT_EQ(*q.pop(), 99);
  producer.join();
}

TEST(BlockingQueue, CloseDrainsThenReturnsNullopt) {
  BlockingQueue<int> q;
  EXPECT_TRUE(q.push(1));
  q.close();
  EXPECT_EQ(*q.pop(), 1);
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(q.push(2));  // refused, not silently swallowed
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BlockingQueue, PushAfterCloseRefusedAndCounted) {
  BlockingQueue<int> q;
  EXPECT_EQ(q.dropped(), 0u);
  q.close();
  EXPECT_FALSE(q.push(1));
  EXPECT_FALSE(q.push(2));
  EXPECT_EQ(q.dropped(), 2u);
  EXPECT_EQ(q.size(), 0u);
}

TEST(BlockingQueue, PopForTimesOut) {
  BlockingQueue<int> q;
  auto got = q.pop_for(std::chrono::milliseconds(5));
  EXPECT_EQ(got.status, QueuePopStatus::kTimedOut);
  EXPECT_FALSE(got.item.has_value());
}

TEST(BlockingQueue, PopForDistinguishesClosedFromTimeout) {
  BlockingQueue<int> q;
  EXPECT_TRUE(q.push(7));
  q.close();
  // Remaining elements drain first...
  auto first = q.pop_for(std::chrono::milliseconds(5));
  EXPECT_EQ(first.status, QueuePopStatus::kItem);
  EXPECT_EQ(*first.item, 7);
  // ...then closed-and-drained is reported as kClosed, not a timeout.
  auto second = q.pop_for(std::chrono::milliseconds(5));
  EXPECT_EQ(second.status, QueuePopStatus::kClosed);
  EXPECT_FALSE(second.item.has_value());
}

TEST(BlockingQueue, PopForWokenByConcurrentClose) {
  BlockingQueue<int> q;
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    q.close();
  });
  // A long-timeout pop wakes promptly on close and reports kClosed.
  auto got = q.pop_for(std::chrono::seconds(30));
  EXPECT_EQ(got.status, QueuePopStatus::kClosed);
  closer.join();
}

TEST(Ids, Ordering) {
  NetworkEventId a{1, 5}, b{1, 6}, c{2, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (NetworkEventId{1, 5}));

  ConnectionId x{1, 2, 3}, y{1, 2, 4};
  EXPECT_LT(x, y);

  DgNetworkEventId d{3, 100}, e{3, 101};
  EXPECT_LT(d, e);
}

TEST(Ids, Formatting) {
  EXPECT_EQ(to_string(NetworkEventId{3, 7}), "<t3,e7>");
  EXPECT_EQ(to_string(ConnectionId{1, 2, 3}), "<vm1,t2,e3>");
  EXPECT_EQ(to_string(DgNetworkEventId{4, 99}), "<vm4,gc99>");
}

TEST(StrUtil, HexDump) {
  Bytes data = to_bytes("AB");
  EXPECT_EQ(hex_dump(data), "41 42 |AB|");
}

TEST(StrUtil, HumanBytes) {
  EXPECT_EQ(human_bytes(512), "512 B");
  EXPECT_EQ(human_bytes(2048), "2.0 KiB");
}

TEST(StrUtil, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(FileIo, RoundTripReplacesTheFile) {
  const std::string path = testing::TempDir() + "/djvu_file_io_test.bin";
  const Bytes data = {0, 1, 2, 0xff};
  write_file(path, data);
  EXPECT_EQ(read_file(path), data);
  write_file(path, Bytes{});
  EXPECT_TRUE(read_file(path).empty());
  std::remove(path.c_str());
}

void expect_error_naming(const std::function<void()>& op,
                         const std::string& path) {
  try {
    op();
    ADD_FAILURE() << "no error for " << path;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
}

TEST(FileIo, ErrorsNameThePath) {
  const std::string missing = "/nonexistent/dir/x.bin";
  expect_error_naming([&] { read_file(missing); }, missing);
  expect_error_naming([&] { write_file(missing, Bytes{1}); }, missing);
  // A directory opens for reading but every read fails.
  const std::string dir = testing::TempDir();
  expect_error_naming([&] { read_file(dir); }, dir);
}

// Ten bytes fit in the stdio buffer, so fwrite reports them all written and
// the full disk shows only at the flush.
TEST(FileIo, FullDiskFailsAtTheFlush) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  expect_error_naming([] { write_file("/dev/full", Bytes(10, 1)); },
                      "/dev/full");
}

}  // namespace
}  // namespace djvu
