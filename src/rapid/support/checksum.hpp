// CRC32C (Castagnoli) for the runtime's integrity-checked RMA. The polynomial
// matches iSCSI/ext4 so values can be cross-checked against any standard
// crc32c tool.
//
// On x86-64 CPUs with SSE4.2 (probed once at startup) the digest comes from
// the crc32 instruction: three interleaved streams over long buffers, joined
// by compile-time shift tables, and one stream for short buffers and tails.
// Everywhere else a slice-by-4 table loop computes the same values. It runs
// at under 1 GB/s, dozens of times slower than the memcpy it guards, and
// stays as the portable path and the test oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace rapid {

/// CRC32C of a byte range. `seed` chains calls: crc32c(b) ==
/// crc32c(b2, crc32c(b1)) for any split b = b1 ++ b2.
std::uint32_t crc32c(std::span<const std::byte> bytes, std::uint32_t seed = 0);

/// Folds one 64-bit value into a running CRC32C. Used to checksum
/// structured messages (address packages) field by field, so struct padding
/// never enters the digest. Equal to crc32c over the value's 8
/// little-endian bytes.
std::uint32_t crc32c_u64(std::uint64_t value, std::uint32_t seed);

namespace detail {

/// The slice-by-4 table implementation: the fallback on CPUs without
/// SSE4.2 and the oracle the hardware path is tested against.
std::uint32_t crc32c_portable(std::span<const std::byte> bytes,
                              std::uint32_t seed = 0);

}  // namespace detail

}  // namespace rapid
