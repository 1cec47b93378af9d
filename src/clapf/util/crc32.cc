#include "clapf/util/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace clapf {

namespace {

// Slicing-by-8 tables: kTables[0] is the classic bytewise table of the
// reflected polynomial, and kTables[s][b] is the CRC contribution of byte b
// followed by s zero bytes, so eight table lookups fold eight input bytes
// at once. Built at compile time; no static-initialization guard on the
// hot path.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32Tables MakeTables() {
  Crc32Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t s = 1; s < t.size(); ++s) {
      const uint32_t prev = t[s - 1][i];
      t[s][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

constexpr Crc32Tables kTables = MakeTables();

}  // namespace

uint32_t Crc32Update(uint32_t state, const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  if constexpr (std::endian::native == std::endian::little) {
    // Eight bytes per step through one unaligned little-endian load
    // (memcpy, so any alignment is well defined); the tail goes bytewise.
    // Identical values to the bytewise loop for every input and split.
    for (; len >= 8; p += 8, len -= 8) {
      uint64_t word = 0;
      std::memcpy(&word, p, sizeof(word));
      const uint32_t lo = static_cast<uint32_t>(word) ^ state;
      const uint32_t hi = static_cast<uint32_t>(word >> 32);
      state = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
              kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
              kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
              kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
    }
  }
  for (size_t i = 0; i < len; ++i) {
    state = kTables[0][(state ^ p[i]) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

uint32_t Crc32(const void* data, size_t len) {
  return Crc32Finalize(Crc32Update(Crc32Init(), data, len));
}

}  // namespace clapf
