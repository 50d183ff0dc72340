#include "common/crc32.h"

#include <array>
#include <cstddef>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define DJVU_CRC32_CLMUL 1
#endif

namespace djvu {
namespace {

constexpr std::uint32_t kPoly = 0xedb88320u;  // reflected IEEE 802.3

// Slicing-by-8: eight derived tables let the loop fold 8 input bytes per
// iteration instead of one, producing the identical CRC-32 value as the
// classic bytewise loop.  It is the whole path on CPUs without carry-less
// multiply, and the short-input and tail path everywhere.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? kPoly ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = t[0][i];
    for (std::size_t s = 1; s < 8; ++s) {
      c = t[0][c & 0xffu] ^ (c >> 8);
      t[s][i] = c;
    }
  }
  return t;
}

constexpr auto kTables = make_tables();

// Advances the running (pre-inverted) state `c` over n bytes at p.
std::uint32_t slicing_update(std::uint32_t c, const std::uint8_t* p,
                             std::size_t n) {
  while (n >= 8) {
    // Low word XORs into the running state; high word enters fresh.
    const std::uint32_t lo = c ^ (static_cast<std::uint32_t>(p[0]) |
                                  static_cast<std::uint32_t>(p[1]) << 8 |
                                  static_cast<std::uint32_t>(p[2]) << 16 |
                                  static_cast<std::uint32_t>(p[3]) << 24);
    const std::uint32_t hi = static_cast<std::uint32_t>(p[4]) |
                             static_cast<std::uint32_t>(p[5]) << 8 |
                             static_cast<std::uint32_t>(p[6]) << 16 |
                             static_cast<std::uint32_t>(p[7]) << 24;
    c = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
        kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
        kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    c = kTables[0][(c ^ *p++) & 0xffu] ^ (c >> 8);
  }
  return c;
}

#ifdef DJVU_CRC32_CLMUL

// Inputs shorter than this skip the kernel: it needs four 16-byte lanes.
constexpr std::size_t kFoldMinBytes = 64;

// Folding constants for the reflected IEEE polynomial (Gopal et al., "Fast
// CRC Computation for Generic Polynomials Using PCLMULQDQ", Intel 2009; the
// values of Chromium zlib's crc32_sse42_simd_), bit-reflected: x^(4*128+32)
// and x^(4*128-32) mod P fold four lanes 512 bits ahead, x^(128+32) and
// x^(128-32) mod P fold one lane 128 bits ahead, x^64 mod P folds 64 bits
// into 32, and the last pair is P beside the Barrett constant x^64 / P.
alignas(16) constexpr std::uint64_t kK1K2[2] = {0x0154442bd4, 0x01c6e41596};
alignas(16) constexpr std::uint64_t kK3K4[2] = {0x01751997d0, 0x00ccaa009e};
alignas(16) constexpr std::uint64_t kK5K0[2] = {0x0163cd6124, 0x0000000000};
alignas(16) constexpr std::uint64_t kPolyMu[2] = {0x01db710641, 0x01f7011641};

#define DJVU_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

DJVU_CLMUL_TARGET inline __m128i load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Folds lane x 128 bits ahead by the constant pair k onto `next`.
DJVU_CLMUL_TARGET inline __m128i fold(__m128i x, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

// Advances the running state `crc` over `len` bytes at buf; len >= 64 and a
// multiple of 16.  The loads are unaligned; buf needs no alignment.
DJVU_CLMUL_TARGET std::uint32_t clmul_fold(std::uint32_t crc,
                                           const std::uint8_t* buf,
                                           std::size_t len) {
  __m128i x1 =
      _mm_xor_si128(load(buf), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load(buf + 16);
  __m128i x3 = load(buf + 32);
  __m128i x4 = load(buf + 48);
  buf += 64;
  len -= 64;

  // Four lanes in parallel, 64 bytes per step.
  __m128i k = _mm_load_si128(reinterpret_cast<const __m128i*>(kK1K2));
  while (len >= 64) {
    x1 = fold(x1, k, load(buf));
    x2 = fold(x2, k, load(buf + 16));
    x3 = fold(x3, k, load(buf + 32));
    x4 = fold(x4, k, load(buf + 48));
    buf += 64;
    len -= 64;
  }

  // Four lanes into one, then one lane per remaining 16 bytes.
  k = _mm_load_si128(reinterpret_cast<const __m128i*>(kK3K4));
  x1 = fold(x1, k, x2);
  x1 = fold(x1, k, x3);
  x1 = fold(x1, k, x4);
  while (len >= 16) {
    x1 = fold(x1, k, load(buf));
    buf += 16;
    len -= 16;
  }

  // 128 bits to 64.
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x2 = _mm_clmulepi64_si128(x1, k, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
  k = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(kK5K0));
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k, 0x00);
  x1 = _mm_xor_si128(x1, x2);

  // Barrett reduction to 32 bits.
  k = _mm_load_si128(reinterpret_cast<const __m128i*>(kPolyMu));
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k, 0x10);
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x2, mask32), k, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

#undef DJVU_CLMUL_TARGET

// Decided once per process.
bool have_clmul() {
  static const bool yes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return yes;
}

#endif  // DJVU_CRC32_CLMUL

// a(x) * b(x) mod P for reflected polynomials (bit 31 is x^0).  At most 32
// shift-and-xor steps; `a` is walked from x^0 up and the loop stops after
// its highest set term.
constexpr std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t p = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    b = (b & 1) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return p;
}

// kX2n[k] = x^(2^k) mod P.
constexpr std::array<std::uint32_t, 32> make_x2n_table() {
  std::array<std::uint32_t, 32> t{};
  std::uint32_t p = 1u << 30;  // x^1
  t[0] = p;
  for (std::size_t k = 1; k < t.size(); ++k) t[k] = p = multmodp(p, p);
  return t;
}

constexpr auto kX2n = make_x2n_table();

// x^(8 * n) mod P: the operator that moves a CRC past n zero bytes.  Bit j
// of n contributes x^(2^(j+3)); the table index wraps at 32 because
// x^(2^32) = x mod P, so the table repeats with period 32 (as in zlib).
std::uint32_t x8nmodp(std::uint64_t n) {
  std::uint32_t p = 1u << 31;  // x^0
  for (unsigned k = 3; n != 0; n >>= 1, ++k) {
    if (n & 1) p = multmodp(kX2n[k & 31], p);
  }
  return p;
}

}  // namespace

void Crc32::update(BytesView data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint32_t c = state_;
#ifdef DJVU_CRC32_CLMUL
  if (n >= kFoldMinBytes && have_clmul()) {
    const std::size_t bulk = n & ~std::size_t{15};
    c = clmul_fold(c, p, bulk);
    p += bulk;
    n -= bulk;
  }
#endif
  state_ = slicing_update(c, p, n);
}

void Crc32::append(std::uint32_t crc2, std::uint64_t len2) {
  state_ = ~crc32_combine(~state_, crc2, len2);
}

std::uint32_t crc32(BytesView data) {
  Crc32 c;
  c.update(data);
  return c.value();
}

std::uint32_t crc32_combine(std::uint32_t crc1, std::uint32_t crc2,
                            std::uint64_t len2) {
  // crc(A || B) = crc(A) * x^(8 |B|) + crc(B) mod P: the pre- and
  // post-inversions cancel between the two terms.
  return multmodp(x8nmodp(len2), crc1) ^ crc2;
}

namespace detail {

std::uint32_t crc32_portable(BytesView data) {
  return ~slicing_update(0xffffffffu, data.data(), data.size());
}

}  // namespace detail

}  // namespace djvu
