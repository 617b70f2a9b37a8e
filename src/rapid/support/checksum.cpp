#include "rapid/support/checksum.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace rapid {

namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // CRC32C, reflected

using ByteTables = std::array<std::array<std::uint32_t, 256>, 4>;

// tab[k][b]: CRC of byte b followed by k zero bytes — slice-by-4.
constexpr ByteTables make_slice_tables() {
  ByteTables t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
    }
    t[0][b] = crc;
  }
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t crc = t[0][b];
    for (std::size_t k = 1; k < 4; ++k) {
      crc = t[0][crc & 0xFFu] ^ (crc >> 8);
      t[k][b] = crc;
    }
  }
  return t;
}

constexpr ByteTables kSlice = make_slice_tables();

}  // namespace

namespace detail {

std::uint32_t crc32c_portable(std::span<const std::byte> bytes,
                              std::uint32_t seed) {
  const ByteTables& t = kSlice;
  std::uint32_t crc = ~seed;
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t n = bytes.size();
  while (n >= 4) {
    std::uint32_t word;
    std::memcpy(&word, p, 4);
    crc ^= word;
    crc = t[3][crc & 0xFFu] ^ t[2][(crc >> 8) & 0xFFu] ^
          t[1][(crc >> 16) & 0xFFu] ^ t[0][crc >> 24];
    p += 4;
    n -= 4;
  }
  while (n > 0) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
    ++p;
    --n;
  }
  return ~crc;
}

}  // namespace detail

namespace {

#if defined(__x86_64__)

// The CRC register is a polynomial over GF(2) in reflected bit order: bit 31
// holds x^0, bit 0 holds x^31. Feeding n zero bytes multiplies it by x^(8n)
// modulo the polynomial, which is what joins two independently computed
// streams.
constexpr std::uint32_t gf2_mulmod(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t bit = 1u << 31; bit != 0; bit >>= 1) {
    if (a & bit) product ^= b;
    b = (b & 1u) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return product;
}

constexpr std::uint32_t x_pow_8n(std::size_t n) {
  std::uint32_t result = 1u << 31;  // x^0
  std::uint32_t square = 1u << 23;  // x^8
  for (; n != 0; n >>= 1) {
    if (n & 1u) result = gf2_mulmod(result, square);
    square = gf2_mulmod(square, square);
  }
  return result;
}

// Long buffers run as three streams over consecutive kBlock-byte blocks.
constexpr std::size_t kBlock = 4096;

// kShift[k][b]: byte b, placed at byte k of the register, times
// x^(8 * kBlock). Built at compile time, so rank threads making their first
// call concurrently find it ready.
constexpr ByteTables make_shift_tables() {
  constexpr std::uint32_t factor = x_pow_8n(kBlock);
  ByteTables t{};
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      t[k][b] = gf2_mulmod(b << (8 * k), factor);
    }
  }
  return t;
}

constexpr ByteTables kShift = make_shift_tables();

inline std::uint32_t shift_block(std::uint32_t crc) {
  return kShift[0][crc & 0xFFu] ^ kShift[1][(crc >> 8) & 0xFFu] ^
         kShift[2][(crc >> 16) & 0xFFu] ^ kShift[3][crc >> 24];
}

// Three independent _mm_crc32_u64 streams hide the instruction's 3-cycle
// latency; the streams then join through two block shifts. Short buffers
// and the tail run as one stream.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::span<const std::byte> bytes, std::uint32_t seed) {
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t n = bytes.size();
  std::uint64_t crc = ~seed;
  for (; n >= 3 * kBlock; p += 3 * kBlock, n -= 3 * kBlock) {
    std::uint64_t crc1 = 0;
    std::uint64_t crc2 = 0;
    for (std::size_t i = 0; i < kBlock; i += 8) {
      std::uint64_t w0, w1, w2;
      std::memcpy(&w0, p + i, 8);
      std::memcpy(&w1, p + kBlock + i, 8);
      std::memcpy(&w2, p + 2 * kBlock + i, 8);
      crc = _mm_crc32_u64(crc, w0);
      crc1 = _mm_crc32_u64(crc1, w1);
      crc2 = _mm_crc32_u64(crc2, w2);
    }
    crc = shift_block(static_cast<std::uint32_t>(crc)) ^ crc1;
    crc = shift_block(static_cast<std::uint32_t>(crc)) ^ crc2;
  }
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; n > 0; ++p, --n) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}

__attribute__((target("sse4.2"))) std::uint32_t crc32c_u64_sse42(
    std::uint64_t value, std::uint32_t seed) {
  return ~static_cast<std::uint32_t>(_mm_crc32_u64(~seed, value));
}

// Chosen once, during static initialization (before any rank thread
// exists), from the CPU's feature bits.
const bool kHaveSse42 = [] {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2") != 0;
}();

#endif

}  // namespace

std::uint32_t crc32c(std::span<const std::byte> bytes, std::uint32_t seed) {
#if defined(__x86_64__)
  if (kHaveSse42) return crc32c_sse42(bytes, seed);
#endif
  return detail::crc32c_portable(bytes, seed);
}

std::uint32_t crc32c_u64(std::uint64_t value, std::uint32_t seed) {
#if defined(__x86_64__)
  if (kHaveSse42) return crc32c_u64_sse42(value, seed);
#endif
  std::array<std::byte, 8> buf;
  std::memcpy(buf.data(), &value, 8);
  return detail::crc32c_portable(buf, seed);
}

}  // namespace rapid
