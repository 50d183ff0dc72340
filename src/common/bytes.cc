#include "common/bytes.h"

namespace djvu {

Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string to_string(BytesView b) {
  return std::string(b.begin(), b.end());
}

void append(Bytes& dst, BytesView src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

ByteWriter& ByteWriter::u8(std::uint8_t v) {
  buf_.push_back(v);
  return *this;
}

ByteWriter& ByteWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  return *this;
}

ByteWriter& ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  return *this;
}

ByteWriter& ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  return *this;
}

ByteWriter& ByteWriter::varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
  return *this;
}

ByteWriter& ByteWriter::bytes(BytesView v) {
  varint(v.size());
  return raw(v);
}

ByteWriter& ByteWriter::str(std::string_view v) {
  varint(v.size());
  buf_.insert(buf_.end(), v.begin(), v.end());
  return *this;
}

ByteWriter& ByteWriter::raw(BytesView v) {
  buf_.insert(buf_.end(), v.begin(), v.end());
  return *this;
}

void ByteReader::need(std::size_t n) const {
  if (remaining() < n) {
    throw LogFormatError("truncated input: need " + std::to_string(n) +
                         " bytes at offset " + std::to_string(pos_) +
                         ", have " + std::to_string(remaining()));
  }
}

std::uint8_t ByteReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                    static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{data_[pos_ + i]} << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{data_[pos_ + i]} << (8 * i);
  pos_ += 8;
  return v;
}

std::uint64_t ByteReader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    need(1);
    std::uint8_t b = data_[pos_++];
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if (!(b & 0x80)) return v;
    shift += 7;
  }
  throw LogFormatError("varint longer than 10 bytes at offset " +
                       std::to_string(pos_));
}

Bytes ByteReader::bytes() {
  std::uint64_t n = varint();
  return raw(static_cast<std::size_t>(n));
}

std::string ByteReader::str() {
  std::uint64_t n = varint();
  need(n);
  std::string s(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return s;
}

Bytes ByteReader::raw(std::size_t n) {
  need(n);
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

}  // namespace djvu
