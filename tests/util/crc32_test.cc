#include "clapf/util/crc32.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "clapf/util/random.h"

namespace clapf {
namespace {

TEST(Crc32Test, MatchesKnownVectors) {
  // The canonical IEEE 802.3 check value.
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0x00000000u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t crc = Crc32Init();
  crc = Crc32Update(crc, data.data(), 10);
  crc = Crc32Update(crc, data.data() + 10, data.size() - 10);
  EXPECT_EQ(Crc32Finalize(crc), Crc32(data.data(), data.size()));
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data(256, 'a');
  const uint32_t clean = Crc32(data.data(), data.size());
  data[100] ^= 0x01;
  EXPECT_NE(Crc32(data.data(), data.size()), clean);
}

TEST(Crc32Test, DetectsTruncation) {
  const std::string data(256, 'b');
  EXPECT_NE(Crc32(data.data(), data.size()), Crc32(data.data(), 128));
}

// The classic bytewise CRC-32 loop, kept here as the reference the library's
// sliced implementation must reproduce value for value.
uint32_t ReferenceCrc32Update(uint32_t state, const unsigned char* p,
                              size_t len) {
  for (size_t i = 0; i < len; ++i) {
    state ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      state = (state & 1u) ? (0xEDB88320u ^ (state >> 1)) : (state >> 1);
    }
  }
  return state;
}

std::vector<unsigned char> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(n);
  for (unsigned char& b : bytes) {
    b = static_cast<unsigned char>(rng.Uniform(256));
  }
  return bytes;
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryOffsetAndLength) {
  // Start offsets 0-7 put the 8-byte loads at every alignment; lengths 0-64
  // cover the tail-only, one-word and many-word cases.
  const std::vector<unsigned char> bytes = RandomBytes(8 + 64, 11);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      const unsigned char* p = bytes.data() + offset;
      EXPECT_EQ(Crc32Update(Crc32Init(), p, len),
                ReferenceCrc32Update(Crc32Init(), p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, IncrementalSplitsMatchBytewiseReference) {
  // Random split points: the running state must not depend on how the
  // input is cut across calls, at any alignment of the cuts.
  const std::vector<unsigned char> bytes = RandomBytes(4096, 13);
  const uint32_t want = Crc32Finalize(
      ReferenceCrc32Update(Crc32Init(), bytes.data(), bytes.size()));
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    uint32_t state = Crc32Init();
    size_t at = 0;
    while (at < bytes.size()) {
      const size_t len = std::min<size_t>(
          bytes.size() - at, static_cast<size_t>(rng.Uniform(40)));
      state = Crc32Update(state, bytes.data() + at, len);
      at += len;
    }
    EXPECT_EQ(Crc32Finalize(state), want) << "trial " << trial;
  }
}

}  // namespace
}  // namespace clapf
