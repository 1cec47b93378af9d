// Differential test of the publish gate's integrity check (shape check +
// tiled finite scan) against the check it replaced, kept here as the
// reference: a finite scan, then a save -> load round trip of the whole
// model through the v2 format in one exact-size buffer. NaN and ±inf are
// planted first, middle and last in each parameter array of models with 0
// users, 0 items, d = 1, the bias off, and arrays spanning several scan
// tiles; at 1, 2 and 4 threads the check must return the reference's
// StatusCode and, for a non-finite value, its message. The one expected
// difference is a model whose arrays disagree with its dimensions: the new
// check refuses every such model, the reference passed those whose bytes
// only moved between arrays. Part of the `format` ctest label.
#include <gtest/gtest.h>

#include <cstdint>
#include <istream>
#include <limits>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "clapf/model/model_io.h"
#include "clapf/util/random.h"

namespace clapf {
namespace {

// Bytes SaveModelToStream writes for `model`: magic, version, three int32
// dimensions and the bias flag, the three parameter arrays, the CRC.
size_t SerializedModelBytes(const FactorModel& model) {
  return 4 + sizeof(uint32_t) + 3 * sizeof(int32_t) + sizeof(uint8_t) +
         (model.user_factor_data().size() + model.item_factor_data().size() +
          model.item_bias_data().size()) *
             sizeof(double) +
         sizeof(uint32_t);
}

// A stream buffer over one caller-sized array: writes fill it from the
// start and fail (never reallocate) once it is full; reads then replay what
// was written.
class FixedImageBuf final : public std::streambuf {
 public:
  FixedImageBuf(char* data, size_t size) { setp(data, data + size); }
  void Rewind() { setg(pbase(), pbase(), pptr()); }
};

// The round-trip integrity check the publish gate used to run.
Status ReferenceIntegrity(const FactorModel& model,
                          const std::string& context) {
  if (!model.AllFinite()) {
    return Status::Corruption("non-finite parameter in " + context);
  }
  const size_t bytes = SerializedModelBytes(model);
  auto storage = std::make_unique_for_overwrite<char[]>(bytes);
  FixedImageBuf buf(storage.get(), bytes);
  std::ostream out(&buf);
  CLAPF_RETURN_IF_ERROR(SaveModelToStream(model, out));
  buf.Rewind();
  std::istream in(&buf);
  auto reloaded = LoadModelFromStream(in, context);
  if (!reloaded.ok()) return reloaded.status();
  if (reloaded->num_users() != model.num_users() ||
      reloaded->num_items() != model.num_items() ||
      reloaded->num_factors() != model.num_factors()) {
    return Status::Corruption("round-trip dimension mismatch in " + context);
  }
  return Status::OK();
}

FactorModel RandomModel(int32_t users, int32_t items, int32_t d, bool bias,
                        uint64_t seed) {
  FactorModel model(users, items, d, bias);
  Rng rng(seed);
  model.InitGaussian(rng, 0.5);
  for (double& b : model.mutable_item_bias_data()) b = rng.NextGaussian();
  return model;
}

void ExpectSameVerdict(const FactorModel& model, const std::string& what) {
  const Status want = ReferenceIntegrity(model, what);
  for (int threads : {1, 2, 4}) {
    const Status got = VerifyModelIntegrity(model, what, threads);
    EXPECT_EQ(got.code(), want.code()) << what << " threads " << threads;
    if (!want.ok()) {
      EXPECT_EQ(got.message(), want.message())
          << what << " threads " << threads;
    }
  }
}

struct Shape {
  int32_t users, items, d;
  bool bias;
};

// 0 users, 0 items, d = 1, the bias off, and arrays of several 64 Ki-double
// scan tiles (200k user doubles, 150k item doubles).
constexpr Shape kShapes[] = {{7, 11, 4, true},     {0, 11, 4, true},
                             {7, 0, 4, true},      {7, 11, 1, true},
                             {7, 11, 4, false},    {0, 0, 3, false},
                             {5000, 3750, 40, true}};

TEST(ModelIntegrityDiffTest, NonFiniteValuesAnywhereMatchTheRoundTrip) {
  const double kPlants[] = {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()};
  uint64_t seed = 1;
  for (const Shape& shape : kShapes) {
    const FactorModel clean =
        RandomModel(shape.users, shape.items, shape.d, shape.bias, ++seed);
    const std::string name =
        std::to_string(shape.users) + "x" + std::to_string(shape.items) +
        "x" + std::to_string(shape.d) + (shape.bias ? " bias" : " no-bias");
    ExpectSameVerdict(clean, name + " clean");
    EXPECT_TRUE(VerifyModelIntegrity(clean, name, 4).ok()) << name;
    for (int array = 0; array < 3; ++array) {
      const size_t n = array == 0   ? clean.user_factor_data().size()
                       : array == 1 ? clean.item_factor_data().size()
                                    : clean.item_bias_data().size();
      if (n == 0) continue;
      for (size_t at : {size_t{0}, n / 2, n - 1}) {
        for (double plant : kPlants) {
          FactorModel model = clean;
          std::vector<double>& v =
              array == 0   ? model.mutable_user_factor_data()
              : array == 1 ? model.mutable_item_factor_data()
                           : model.mutable_item_bias_data();
          v[at] = plant;
          const std::string what = name + " array " + std::to_string(array) +
                                   " at " + std::to_string(at) + " value " +
                                   std::to_string(plant);
          ExpectSameVerdict(model, what);
          const Status got = VerifyModelIntegrity(model, what, 2);
          EXPECT_EQ(got.code(), StatusCode::kCorruption) << what;
        }
      }
    }
  }
}

TEST(ModelIntegrityDiffTest, EveryShapeInconsistentModelIsRefused) {
  // Resized through mutable_*_data(), the arrays no longer match the
  // dimensions. The reference passed the first two (the bytes only moved
  // between arrays, so the image reparses with a matching CRC) and refused
  // the rest; the new check refuses all of them.
  struct Case {
    const char* name;
    int user_delta, item_delta, bias_delta;  // in doubles
    bool reference_ok;
  };
  const Case kCases[] = {
      {"a user row moved to the items", -4, 4, 0, true},
      {"an item double moved to the biases", 0, -1, 1, true},
      {"one user double more", 1, 0, 0, false},
      {"one item double fewer", 0, -1, 0, false},
      {"one bias fewer", 0, 0, -1, false},
      {"one bias more", 0, 0, 1, false},
  };
  for (const Case& c : kCases) {
    FactorModel model = RandomModel(7, 11, 4, true, 42);
    auto resize = [](std::vector<double>* v, int delta) {
      v->resize(static_cast<size_t>(static_cast<int>(v->size()) + delta),
                0.25);
    };
    resize(&model.mutable_user_factor_data(), c.user_delta);
    resize(&model.mutable_item_factor_data(), c.item_delta);
    resize(&model.mutable_item_bias_data(), c.bias_delta);
    EXPECT_EQ(ReferenceIntegrity(model, c.name).ok(), c.reference_ok)
        << c.name;
    for (int threads : {1, 2, 4}) {
      const Status got = VerifyModelIntegrity(model, c.name, threads);
      EXPECT_EQ(got.code(), StatusCode::kCorruption) << c.name;
      EXPECT_NE(got.message().find("disagree with the dimensions"),
                std::string::npos)
          << got.message();
    }
  }
}

}  // namespace
}  // namespace clapf
