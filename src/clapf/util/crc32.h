#ifndef CLAPF_UTIL_CRC32_H_
#define CLAPF_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace clapf {

/// Incremental CRC-32 (IEEE 802.3, polynomial 0xEDB88320), the checksum
/// RocksDB-style storage formats append to detect torn writes and bit rot.
/// Usage: start from `Crc32Init()`, fold data in with `Crc32Update`, and
/// produce the final value with `Crc32Finalize`.
inline constexpr uint32_t Crc32Init() { return 0xFFFFFFFFu; }

/// Folds `len` bytes at `data` (any alignment) into the running CRC state.
/// Slicing-by-8: eight bytes per step through eight lookup tables, with the
/// same values as the classic bytewise table loop for every input and every
/// way of splitting it across calls.
uint32_t Crc32Update(uint32_t state, const void* data, size_t len);

/// Converts the running state into the final checksum value.
inline constexpr uint32_t Crc32Finalize(uint32_t state) {
  return state ^ 0xFFFFFFFFu;
}

/// One-shot convenience over a single buffer.
uint32_t Crc32(const void* data, size_t len);

}  // namespace clapf

#endif  // CLAPF_UTIL_CRC32_H_
