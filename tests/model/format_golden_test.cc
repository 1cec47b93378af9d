// Golden bytes of the on-disk formats that carry a CRC-32: the model v2
// image, one interaction-WAL segment, and one training checkpoint with its
// MANIFEST. The pinned values were produced by the bytewise CRC-32 loop
// that preceded the slicing-by-8 one, so a change in CRC values or in the
// bytes written fails here before any stored file becomes unreadable.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>

#include "clapf/core/checkpoint.h"
#include "clapf/model/model_io.h"
#include "clapf/online/wal.h"
#include "clapf/util/crc32.h"
#include "clapf/util/fs.h"

namespace clapf {
namespace {

// 3 users, 5 items, 4 factors, biases on; every parameter a short binary
// fraction so the image is the same on every platform.
FactorModel TinyModel() {
  FactorModel model(3, 5, 4, /*use_item_bias=*/true);
  auto& users = model.mutable_user_factor_data();
  for (size_t x = 0; x < users.size(); ++x) {
    users[x] = 0.25 * static_cast<double>(x) - 1.0;
  }
  auto& items = model.mutable_item_factor_data();
  for (size_t x = 0; x < items.size(); ++x) {
    items[x] = 0.5 - 0.125 * static_cast<double>(x);
  }
  auto& bias = model.mutable_item_bias_data();
  for (size_t x = 0; x < bias.size(); ++x) {
    bias[x] = 0.0625 * static_cast<double>(x);
  }
  return model;
}

uint32_t U32At(const std::string& bytes, size_t offset) {
  uint32_t v = 0;
  std::memcpy(&v, bytes.data() + offset, sizeof(v));
  return v;
}

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 0xF];
  }
  return out;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(FormatGoldenTest, ModelV2ImageTrailingCrc) {
  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(SaveModelToStream(TinyModel(), out).ok());
  const std::string image = out.str();
  ASSERT_EQ(image.size(), 321u);
  EXPECT_EQ(U32At(image, image.size() - 4), 0xFBD2445Eu);
  EXPECT_EQ(Crc32(image.data(), image.size()), 0x9EB5B64Du);
}

TEST(FormatGoldenTest, WalSegmentHeaderAndRecordFrame) {
  WalOptions options;
  options.dir = FreshDir("format_golden_wal");
  {
    auto wal = InteractionWal::Open(options);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ASSERT_TRUE((*wal)->Append(WalRecord{7, 42}).ok());
  }
  auto segment = ReadFileToString(options.dir + "/" +
                                  InteractionWal::SegmentFileName(0));
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();
  // "CWAL" | version 1 | base index 0 | header CRC, then the frame
  // payload CRC | length 8 | user 7 | item 42.
  EXPECT_EQ(Hex(*segment),
            "4357414c010000000000000000000000cd90b19e"
            "2a9968a008000000070000002a000000");
  EXPECT_EQ(U32At(*segment, 16), 0x9EB190CDu);
  EXPECT_EQ(U32At(*segment, 20), 0xA068992Au);
}

TEST(FormatGoldenTest, CheckpointFileAndManifest) {
  CheckpointOptions options;
  options.dir = FreshDir("format_golden_ckpt");
  options.interval = 1;
  CheckpointManager manager(options);
  ASSERT_TRUE(manager.Init().ok());
  TrainerCheckpointState state;
  state.iteration = 5;
  state.seed = 9;
  state.lr_scale = 0.5;
  state.guard_retries = 1;
  state.loss_acc = 2.5;
  state.loss_count = 3;
  ASSERT_TRUE(manager.Write(TinyModel(), state).ok());

  auto manifest = ReadFileToString(options.dir + "/MANIFEST");
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(*manifest, "ckpt-000000000005.ckpt\n");

  auto file = ReadFileToString(options.dir + "/ckpt-000000000005.ckpt");
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_EQ(file->size(), 377u);
  // The trainer-state CRC follows magic + the 48 state bytes; the embedded
  // model image ends the file with its own parameter CRC.
  EXPECT_EQ(U32At(*file, 52), 0x09F53411u);
  EXPECT_EQ(U32At(*file, file->size() - 4), 0xFBD2445Eu);
  EXPECT_EQ(Crc32(file->data(), file->size()), 0x4FD357D4u);
}

}  // namespace
}  // namespace clapf
