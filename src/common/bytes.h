// Byte-buffer and binary codec primitives.
//
// Used for three purposes:
//   * the wire payloads of the simulated network (stream meta-data prefixes,
//     datagram tagging frames, reliable-UDP control frames);
//   * the on-disk log bundle format (record/serializer.*);
//   * in-memory message assembly in examples and tests.
//
// Encoding conventions: little-endian fixed-width integers, LEB128-style
// varints for lengths and counters, length-prefixed byte strings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/errors.h"

namespace djvu {

/// Owned, growable byte sequence.
using Bytes = std::vector<std::uint8_t>;

/// Read-only view over bytes.
using BytesView = std::span<const std::uint8_t>;

/// Converts a string literal / std::string into Bytes (UTF-8 passthrough).
Bytes to_bytes(std::string_view s);

/// Converts Bytes into a std::string (byte-for-byte).
std::string to_string(BytesView b);

/// Appends `src` to `dst`.
void append(Bytes& dst, BytesView src);

/// Zigzag mapping of signed integers onto unsigned varint-friendly space:
/// 0, -1, 1, -2, ... → 0, 1, 2, 3, ...  Small magnitudes of either sign
/// stay one varint byte (plain two's complement would make every negative
/// delta ten bytes).
inline std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Serializer that appends primitives to an owned buffer.
///
/// All write methods return *this so encodings can be chained.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Appends after `buf`'s contents, keeping its capacity (take() hands the
  /// buffer back).
  explicit ByteWriter(Bytes buf) : buf_(std::move(buf)) {}

  /// Fixed-width little-endian writes.
  ByteWriter& u8(std::uint8_t v);
  ByteWriter& u16(std::uint16_t v);
  ByteWriter& u32(std::uint32_t v);
  ByteWriter& u64(std::uint64_t v);

  /// LEB128 unsigned varint (1..10 bytes).
  ByteWriter& varint(std::uint64_t v);

  /// Length-prefixed (varint) byte string.
  ByteWriter& bytes(BytesView v);

  /// Length-prefixed (varint) UTF-8 string.
  ByteWriter& str(std::string_view v);

  /// Raw bytes with no length prefix.
  ByteWriter& raw(BytesView v);

  /// Number of bytes written so far.
  std::size_t size() const { return buf_.size(); }

  /// View of the accumulated buffer.
  BytesView view() const { return buf_; }

  /// Moves the accumulated buffer out; the writer becomes empty.
  Bytes take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Deserializer over a read-only view.  All read methods throw
/// LogFormatError on truncated or malformed input — a corrupt log must never
/// be silently misreplayed (invariant I7).
class ByteReader {
 public:
  explicit ByteReader(BytesView data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::uint64_t varint();

  /// Length-prefixed byte string (copies).
  Bytes bytes();

  /// Length-prefixed UTF-8 string (copies).
  std::string str();

  /// Reads exactly n raw bytes (copies).
  Bytes raw(std::size_t n);

  /// Bytes not yet consumed.
  std::size_t remaining() const { return data_.size() - pos_; }

  /// True when the whole input has been consumed.
  bool at_end() const { return remaining() == 0; }

  /// Current read offset (for diagnostics).
  std::size_t position() const { return pos_; }

 private:
  void need(std::size_t n) const;
  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace djvu
