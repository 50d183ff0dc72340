// CRC-32 (IEEE 802.3 polynomial, reflected) used to integrity-check every
// section of the on-disk log bundle (invariant I7) and to hash payloads into
// the execution trace.
//
// On x86 CPUs with PCLMULQDQ and SSE4.1 the bulk of each input of 64 bytes
// or more goes through a carry-less-multiply folding kernel; everything
// else, and every other CPU, takes slicing-by-8.  The path is chosen once,
// from CPU detection, and both produce the same value for every input.
#pragma once

#include <cstdint>

#include "common/bytes.h"

namespace djvu {

/// Incremental CRC-32 computation.
class Crc32 {
 public:
  /// Feeds more bytes into the checksum.
  void update(BytesView data);

  /// Extends the checksum by a range of `len2` bytes whose own CRC-32 is
  /// `crc2`, without touching those bytes: afterwards value() is what
  /// update() over the range would have given.  O(log len2) (crc32_combine).
  void append(std::uint32_t crc2, std::uint64_t len2);

  /// Final checksum value for everything fed so far.
  std::uint32_t value() const { return ~state_; }

 private:
  std::uint32_t state_ = 0xffffffffu;
};

/// One-shot CRC-32 of a buffer.
std::uint32_t crc32(BytesView data);

/// Combines the CRC-32 of two adjacent byte ranges: given crc1 = crc(A) and
/// crc2 = crc(B), returns crc(A || B) where B is `len2` bytes long, without
/// touching the data again.  crc(A) is multiplied by x^(8 * len2) modulo the
/// polynomial, built from a table of x^(2^k) mod P: at most 64 32-bit
/// carry-less products (zlib's multmodp/x2nmodp method).  This is what lets
/// a parallel spool load verify the whole-file CRC from per-chunk CRCs
/// computed on independent workers.
std::uint32_t crc32_combine(std::uint32_t crc1, std::uint32_t crc2,
                            std::uint64_t len2);

namespace detail {

/// CRC-32 of `data` by slicing-by-8 alone, whatever the CPU: the portable
/// path the dispatched one must agree with.
std::uint32_t crc32_portable(BytesView data);

}  // namespace detail

}  // namespace djvu
