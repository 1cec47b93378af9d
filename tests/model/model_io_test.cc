#include "clapf/model/model_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "clapf/core/checkpoint.h"
#include "clapf/util/fault_injection.h"
#include "clapf/util/fs.h"
#include "clapf/util/random.h"
#include "testing/fault_schedule.h"

namespace clapf {
namespace {

TEST(ModelIoTest, RoundTripPreservesEverything) {
  // The publish gate no longer round-trips candidates, so the serializer's
  // edge shapes are held here: 0 users, 0 items, d = 1.
  const int32_t kShapes[][3] = {{7, 11, 4}, {0, 11, 4}, {7, 0, 4}, {7, 11, 1}};
  for (const auto& [users, items, d] : kShapes) {
    SCOPED_TRACE(std::to_string(users) + "x" + std::to_string(items) + "x" +
                 std::to_string(d));
    FactorModel model(users, items, d, /*use_item_bias=*/true);
    Rng rng(3);
    model.InitGaussian(rng, 0.3);
    for (ItemId i = 0; i < items; ++i) model.ItemBias(i) = 0.1 * i;

    std::string path = ::testing::TempDir() + "model_roundtrip.clpf";
    ASSERT_TRUE(SaveModel(model, path).ok());
    auto loaded = LoadModel(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    EXPECT_EQ(loaded->num_users(), users);
    EXPECT_EQ(loaded->num_items(), items);
    EXPECT_EQ(loaded->num_factors(), d);
    EXPECT_TRUE(loaded->use_item_bias());
    EXPECT_EQ(loaded->user_factor_data(), model.user_factor_data());
    EXPECT_EQ(loaded->item_factor_data(), model.item_factor_data());
    EXPECT_EQ(loaded->item_bias_data(), model.item_bias_data());
  }
}

TEST(ModelIoTest, RoundTripWithoutBias) {
  const int32_t kShapes[][3] = {{2, 3, 2}, {0, 3, 2}, {2, 0, 2}, {2, 3, 1}};
  for (const auto& [users, items, d] : kShapes) {
    SCOPED_TRACE(std::to_string(users) + "x" + std::to_string(items) + "x" +
                 std::to_string(d));
    FactorModel model(users, items, d, /*use_item_bias=*/false);
    Rng rng(5);
    model.InitGaussian(rng, 0.1);
    std::string path = ::testing::TempDir() + "model_nobias.clpf";
    ASSERT_TRUE(SaveModel(model, path).ok());
    auto loaded = LoadModel(path);
    ASSERT_TRUE(loaded.ok());
    EXPECT_FALSE(loaded->use_item_bias());
    EXPECT_EQ(loaded->num_users(), users);
    EXPECT_EQ(loaded->num_items(), items);
    EXPECT_EQ(loaded->num_factors(), d);
    EXPECT_EQ(loaded->user_factor_data(), model.user_factor_data());
    EXPECT_EQ(loaded->item_factor_data(), model.item_factor_data());
    for (UserId u = 0; u < users; ++u) {
      for (ItemId i = 0; i < items; ++i) {
        EXPECT_DOUBLE_EQ(loaded->Score(u, i), model.Score(u, i));
      }
    }
  }
}

TEST(ModelIoTest, MissingFileIsIoError) {
  EXPECT_EQ(LoadModel("/no/such/model.clpf").status().code(),
            StatusCode::kIoError);
}

TEST(ModelIoTest, BadMagicIsCorruption) {
  std::string path = ::testing::TempDir() + "bad_magic.clpf";
  std::ofstream(path) << "NOTAMODELFILE____________";
  EXPECT_EQ(LoadModel(path).status().code(), StatusCode::kCorruption);
}

TEST(ModelIoTest, TruncatedFileIsCorruption) {
  FactorModel model(5, 5, 3);
  std::string full_path = ::testing::TempDir() + "full_model.clpf";
  ASSERT_TRUE(SaveModel(model, full_path).ok());

  // Copy only the first 40 bytes.
  std::ifstream in(full_path, std::ios::binary);
  std::vector<char> bytes(40);
  in.read(bytes.data(), 40);
  std::string trunc_path = ::testing::TempDir() + "trunc_model.clpf";
  std::ofstream out(trunc_path, std::ios::binary);
  out.write(bytes.data(), in.gcount());
  out.close();

  EXPECT_EQ(LoadModel(trunc_path).status().code(), StatusCode::kCorruption);
}

TEST(ModelIoTest, SaveToBadPathIsIoError) {
  FactorModel model(1, 1, 1);
  EXPECT_EQ(SaveModel(model, "/no-such-dir-xyz/m.clpf").code(),
            StatusCode::kIoError);
}

TEST(ModelIoTest, BitFlipInParametersIsCaughtByCrc) {
  FactorModel model(6, 9, 3);
  Rng rng(11);
  model.InitGaussian(rng, 0.2);
  std::string path = ::testing::TempDir() + "flipped_model.clpf";
  ASSERT_TRUE(SaveModel(model, path).ok());

  auto contents = ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  std::string damaged = *contents;
  damaged[damaged.size() / 2] ^= 0x01;  // deep inside the parameter arrays
  ASSERT_TRUE(WriteStringToFile(path, damaged).ok());

  auto loaded = LoadModel(path);
  ASSERT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("checksum mismatch"),
            std::string::npos);
}

TEST(ModelIoTest, TruncationInsideParametersIsCorruption) {
  FactorModel model(6, 9, 3);
  std::string path = ::testing::TempDir() + "trunc_params.clpf";
  ASSERT_TRUE(SaveModel(model, path).ok());
  auto contents = ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  // Drop only the trailing CRC: the parameters are all there, but a v2 file
  // without its checksum is a torn write.
  std::string torn = contents->substr(0, contents->size() - 4);
  ASSERT_TRUE(WriteStringToFile(path, torn).ok());
  auto loaded = LoadModel(path);
  ASSERT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("missing parameter checksum"),
            std::string::npos);
}

TEST(ModelIoTest, Version1FileWithoutCrcStillLoads) {
  FactorModel model(2, 3, 2, /*use_item_bias=*/true);
  Rng rng(4);
  model.InitGaussian(rng, 0.1);

  // Hand-craft a v1 image: same header and parameter layout, no trailing CRC.
  std::string path = ::testing::TempDir() + "v1_model.clpf";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write("CLPF", 4);
  const uint32_t version = 1;
  const int32_t users = 2, items = 3, factors = 2;
  const uint8_t bias = 1;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.write(reinterpret_cast<const char*>(&users), sizeof(users));
  out.write(reinterpret_cast<const char*>(&items), sizeof(items));
  out.write(reinterpret_cast<const char*>(&factors), sizeof(factors));
  out.write(reinterpret_cast<const char*>(&bias), sizeof(bias));
  auto write_doubles = [&out](const std::vector<double>& v) {
    out.write(reinterpret_cast<const char*>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(double)));
  };
  write_doubles(model.user_factor_data());
  write_doubles(model.item_factor_data());
  write_doubles(model.item_bias_data());
  out.close();

  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->user_factor_data(), model.user_factor_data());
  EXPECT_EQ(loaded->item_factor_data(), model.item_factor_data());
}

TEST(ModelIoTest, AtomicSaveRoundTrips) {
  FactorModel model(4, 5, 2);
  Rng rng(8);
  model.InitGaussian(rng, 0.3);
  std::string path = ::testing::TempDir() + "atomic_model.clpf";
  ASSERT_TRUE(SaveModelAtomic(model, path).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->user_factor_data(), model.user_factor_data());
}

TEST(ModelIoTest, InjectedShortWriteIsDetectedAtLoad) {
  FactorModel model(6, 9, 3);
  std::string path = ::testing::TempDir() + "short_model.clpf";
  {
    clapf::testing::ScopedFaultSchedule faults(
        {{FaultPoint::kModelWriteShort, {}}});
    ASSERT_TRUE(SaveModel(model, path).ok());  // write "succeeds", torn
  }
  EXPECT_EQ(LoadModel(path).status().code(), StatusCode::kCorruption);
}

TEST(ModelIoTest, InjectedRenameFailurePreservesOldModel) {
  FactorModel old_model(3, 3, 2);
  Rng rng(2);
  old_model.InitGaussian(rng, 0.2);
  std::string path = ::testing::TempDir() + "rename_model.clpf";
  ASSERT_TRUE(SaveModelAtomic(old_model, path).ok());

  FactorModel new_model(3, 3, 2);
  {
    clapf::testing::ScopedFaultSchedule faults(
        {{FaultPoint::kModelRename, {}}});
    EXPECT_EQ(SaveModelAtomic(new_model, path).code(), StatusCode::kIoError);
  }
  // The published file still holds the previous model.
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->user_factor_data(), old_model.user_factor_data());
}

// ---- smashed headers ----------------------------------------------------
//
// The loader sizes the model from the header, so a header field smashed to
// a huge value must be refused before anything is allocated: as
// Corruption, never as std::length_error, std::bad_alloc or gigabytes
// zero-filled before the truncation shows.

// Header offsets of the three int32 dimensions in a v2 image.
constexpr size_t kUsersAt = 8;
constexpr size_t kItemsAt = 12;
constexpr size_t kFactorsAt = 16;
constexpr size_t kHeaderBytes = 21;

// A valid 3 users x 4 items x d = 2 image with biases.
std::string ValidImage() {
  FactorModel model(3, 4, 2, /*use_item_bias=*/true);
  Rng rng(9);
  model.InitGaussian(rng, 0.2);
  std::ostringstream out(std::ios::binary);
  EXPECT_TRUE(SaveModelToStream(model, out).ok());
  return std::move(out).str();
}

std::string Smash(std::string image, size_t at, int32_t value) {
  char bytes[sizeof(value)];
  std::memcpy(bytes, &value, sizeof(value));
  return image.replace(at, sizeof(bytes), bytes, sizeof(bytes));
}

// The image loaded from memory and from a file: both Statuses.
std::pair<Status, Status> LoadBoth(const std::string& image) {
  std::istringstream in(image, std::ios::binary);
  Status from_stream = LoadModelFromStream(in, "smashed").status();
  // One file per test: ctest runs the tests that call this in parallel
  // processes, and a shared name let one overwrite another's image.
  const std::string path =
      ::testing::TempDir() +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".clpf";
  EXPECT_TRUE(WriteStringToFile(path, image).ok());
  return {from_stream, LoadModel(path).status()};
}

void ExpectCorruption(const std::string& image, const std::string& what,
                      const std::string& message_part) {
  const auto [from_stream, from_file] = LoadBoth(image);
  for (const Status& st : {from_stream, from_file}) {
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << what;
    EXPECT_NE(st.message().find(message_part), std::string::npos)
        << what << ": " << st.message();
  }
}

TEST(ModelIoTest, HeaderDimensionSmashedToInt32MaxIsCorruption) {
  const std::string image = ValidImage();
  for (size_t at : {kUsersAt, kItemsAt, kFactorsAt}) {
    ExpectCorruption(Smash(image, at, std::numeric_limits<int32_t>::max()),
                     "offset " + std::to_string(at), "header needs");
  }
}

TEST(ModelIoTest, HeaderDimensionsWhoseBytesOverflowAreCorruption) {
  // Two dimensions at INT32_MAX: their product times 8 bytes does not fit
  // 64 bits.
  const int32_t kMax = std::numeric_limits<int32_t>::max();
  const std::string image = ValidImage();
  ExpectCorruption(Smash(Smash(image, kUsersAt, kMax), kFactorsAt, kMax),
                   "users x factors", "overflow");
  ExpectCorruption(Smash(Smash(image, kItemsAt, kMax), kFactorsAt, kMax),
                   "items x factors", "overflow");
  ExpectCorruption(
      Smash(Smash(Smash(image, kUsersAt, kMax), kItemsAt, kMax), kFactorsAt,
            kMax),
      "all three", "overflow");
}

TEST(ModelIoTest, HeaderNeedingOneByteMoreThanTheFileIsCorruption) {
  // Each dimension one larger than written; the image is padded so the
  // parameters it announces end exactly one byte past the file. With one
  // byte more in the file the size check passes, and the load fails later
  // (no room for the CRC, or a CRC mismatch) — still Corruption.
  const std::string image = ValidImage();
  const size_t written = image.size() - kHeaderBytes;
  struct Grown {
    size_t at;
    int32_t value;
    uint64_t payload;  // (users·d + items·(d + 1)) · 8
  };
  const Grown kGrown[] = {{kUsersAt, 4, (4 * 2 + 4 * 3) * 8},
                          {kItemsAt, 5, (3 * 2 + 5 * 3) * 8},
                          {kFactorsAt, 3, (3 * 3 + 4 * 4) * 8}};
  for (const Grown& g : kGrown) {
    ASSERT_GT(g.payload, written);
    const std::string smashed = Smash(image, g.at, g.value);
    const std::string short_by_one =
        smashed + std::string(g.payload - 1 - written, '\0');
    ExpectCorruption(short_by_one, "offset " + std::to_string(g.at),
                     "header needs " + std::to_string(g.payload) +
                         " bytes, " + std::to_string(g.payload - 1) +
                         " remain");
    const auto [from_stream, from_file] = LoadBoth(short_by_one + '\0');
    for (const Status& st : {from_stream, from_file}) {
      EXPECT_EQ(st.code(), StatusCode::kCorruption);
      EXPECT_EQ(st.message().find("header needs"), std::string::npos)
          << st.message();
    }
  }
}

TEST(ModelIoTest, LoadLatestSkipsCheckpointWithSmashedModelHeader) {
  CheckpointOptions options;
  options.dir = ::testing::TempDir() + "ckpt_smashed_model_header";
  options.interval = 1;
  std::filesystem::remove_all(options.dir);
  CheckpointManager manager(options);
  ASSERT_TRUE(manager.Init().ok());
  FactorModel older(3, 4, 2);
  Rng rng(21);
  older.InitGaussian(rng, 0.3);
  FactorModel newer = older;
  newer.UserFactors(0)[0] += 1.0;
  TrainerCheckpointState state;
  state.iteration = 10;
  ASSERT_TRUE(manager.Write(older, state).ok());
  state.iteration = 20;
  ASSERT_TRUE(manager.Write(newer, state).ok());

  // The newest checkpoint's model header claims INT32_MAX users.
  const std::string path = options.dir + "/" + manager.entries().back();
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  const size_t model_at = bytes->find("CLPF");
  ASSERT_NE(model_at, std::string::npos);
  ASSERT_TRUE(WriteStringToFile(
                  path, Smash(*bytes, model_at + kUsersAt,
                              std::numeric_limits<int32_t>::max()))
                  .ok());
  EXPECT_EQ(CheckpointManager::ReadCheckpointFile(path).status().code(),
            StatusCode::kCorruption);

  auto loaded = manager.LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->state.iteration, 10);
  EXPECT_EQ(loaded->model.user_factor_data(), older.user_factor_data());
}

}  // namespace
}  // namespace clapf
