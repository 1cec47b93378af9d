#include "clapf/model/model_io.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "clapf/util/crc32.h"
#include "clapf/util/fault_injection.h"
#include "clapf/util/fs.h"
#include "clapf/util/thread_pool.h"

namespace clapf {

namespace {

constexpr char kMagic[4] = {'C', 'L', 'P', 'F'};
// v1: header + raw parameter arrays. v2 appends a CRC-32 over the parameter
// bytes. Readers accept both.
constexpr uint32_t kVersionNoCrc = 1;
constexpr uint32_t kVersion = 2;

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

// Writes the array and folds its bytes into the running CRC state.
void WriteDoubles(std::ostream& out, const std::vector<double>& v,
                  uint32_t* crc) {
  const size_t nbytes = v.size() * sizeof(double);
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(nbytes));
  *crc = Crc32Update(*crc, v.data(), nbytes);
}

// Fills `v` (already sized) from the stream and folds its bytes into the
// running CRC state.
bool ReadDoubles(std::istream& in, std::vector<double>* v, uint32_t* crc) {
  const size_t nbytes = v->size() * sizeof(double);
  in.read(reinterpret_cast<char*>(v->data()),
          static_cast<std::streamsize>(nbytes));
  if (!in) return false;
  *crc = Crc32Update(*crc, v->data(), nbytes);
  return true;
}

// Bytes of the three parameter arrays a header with these dimensions
// announces, or nullopt when the count overflows 64 bits.
std::optional<uint64_t> PayloadBytes(int32_t num_users, int32_t num_items,
                                     int32_t num_factors) {
  const uint64_t d = static_cast<uint64_t>(num_factors);
  uint64_t user_doubles = 0, item_doubles = 0, doubles = 0, bytes = 0;
  if (__builtin_mul_overflow(static_cast<uint64_t>(num_users), d,
                             &user_doubles) ||
      __builtin_mul_overflow(static_cast<uint64_t>(num_items), d + 1,
                             &item_doubles) ||
      __builtin_add_overflow(user_doubles, item_doubles, &doubles) ||
      __builtin_mul_overflow(doubles, sizeof(double), &bytes)) {
    return std::nullopt;
  }
  return bytes;
}

// Bytes between the read position of `in` and its end, or nullopt when the
// stream cannot seek. The read position is left where it was.
std::optional<uint64_t> RemainingBytes(std::istream& in) {
  const std::streamoff here = in.tellg();
  if (here < 0) return std::nullopt;
  in.seekg(0, std::ios::end);
  const std::streamoff end = in.tellg();  // -1 when the seek failed
  in.clear();
  in.seekg(here);
  if (end < here) return std::nullopt;
  return static_cast<uint64_t>(end - here);
}

// Doubles per finite-scan tile: 512 KiB, well inside a core's L2.
constexpr size_t kFiniteTileDoubles = size_t{1} << 16;

// True when any of p[0, n) is NaN or ±inf, i.e. has an all-ones exponent.
// The flags are OR-ed as integers, so the loop has no branch per value and
// vectorizes.
bool AnyNonFinite(const double* p, size_t n) {
  constexpr uint64_t kExponent = 0x7FF0000000000000ULL;
  uint64_t bad = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t bits = 0;
    std::memcpy(&bits, p + i, sizeof(bits));
    bad |= static_cast<uint64_t>((bits & kExponent) == kExponent);
  }
  return bad != 0;
}

// Serializes to a string so payload-level fault injection (short write, bit
// flip) can mutate the image before it reaches disk.
Result<std::string> SerializeModel(const FactorModel& model) {
  std::ostringstream out(std::ios::binary);
  CLAPF_RETURN_IF_ERROR(SaveModelToStream(model, out));
  std::string payload = std::move(out).str();
  FaultInjector& faults = FaultInjector::Instance();
  if (faults.armed()) faults.MutateModelPayload(&payload);
  return payload;
}

}  // namespace

Status SaveModelToStream(const FactorModel& model, std::ostream& out) {
  out.write(kMagic, sizeof(kMagic));
  WritePod(out, kVersion);
  WritePod(out, model.num_users());
  WritePod(out, model.num_items());
  WritePod(out, model.num_factors());
  uint8_t bias = model.use_item_bias() ? 1 : 0;
  WritePod(out, bias);
  uint32_t crc = Crc32Init();
  WriteDoubles(out, model.user_factor_data(), &crc);
  WriteDoubles(out, model.item_factor_data(), &crc);
  WriteDoubles(out, model.item_bias_data(), &crc);
  WritePod(out, Crc32Finalize(crc));
  if (!out) return Status::IoError("model serialization failed");
  return Status::OK();
}

Result<FactorModel> LoadModelFromStream(std::istream& in,
                                        const std::string& context) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad magic in " + context);
  }
  uint32_t version = 0;
  if (!ReadPod(in, &version) ||
      (version != kVersion && version != kVersionNoCrc)) {
    return Status::Corruption("unsupported model version in " + context);
  }
  int32_t num_users = 0, num_items = 0, num_factors = 0;
  uint8_t bias = 0;
  if (!ReadPod(in, &num_users) || !ReadPod(in, &num_items) ||
      !ReadPod(in, &num_factors) || !ReadPod(in, &bias)) {
    return Status::Corruption("truncated header in " + context);
  }
  if (num_users < 0 || num_items < 0 || num_factors <= 0) {
    return Status::Corruption("invalid dimensions in " + context);
  }
  // The header alone sizes the model's arrays, so it is checked against
  // the bytes the stream still holds before anything is allocated: a
  // smashed dimension reads as Corruption, not as a length_error, a
  // bad_alloc or gigabytes zero-filled before the truncation shows. A
  // stream that cannot seek skips the size check.
  const std::optional<uint64_t> payload =
      PayloadBytes(num_users, num_items, num_factors);
  if (!payload) {
    return Status::Corruption("model dimensions overflow in " + context);
  }
  if (const std::optional<uint64_t> left = RemainingBytes(in);
      left && *payload > *left) {
    return Status::Corruption(
        "truncated parameters in " + context + ": header needs " +
        std::to_string(*payload) + " bytes, " + std::to_string(*left) +
        " remain");
  }

  // Each array is read straight into the model's contiguous storage.
  FactorModel model(num_users, num_items, num_factors, bias != 0);
  uint32_t crc = Crc32Init();
  if (!ReadDoubles(in, &model.mutable_user_factor_data(), &crc)) {
    return Status::Corruption("truncated user factors in " + context);
  }
  if (!ReadDoubles(in, &model.mutable_item_factor_data(), &crc)) {
    return Status::Corruption("truncated item factors in " + context);
  }
  if (!ReadDoubles(in, &model.mutable_item_bias_data(), &crc)) {
    return Status::Corruption("truncated item biases in " + context);
  }

  if (version >= kVersion) {
    uint32_t stored = 0;
    if (!ReadPod(in, &stored)) {
      return Status::Corruption("missing parameter checksum in " + context);
    }
    if (stored != Crc32Finalize(crc)) {
      return Status::Corruption("parameter checksum mismatch in " + context);
    }
  }
  return model;
}

Status SaveModel(const FactorModel& model, const std::string& path) {
  auto payload = SerializeModel(model);
  if (!payload.ok()) return payload.status();
  return WriteStringToFile(path, *payload);
}

Status SaveModelAtomic(const FactorModel& model, const std::string& path) {
  auto payload = SerializeModel(model);
  if (!payload.ok()) return payload.status();
  return WriteFileAtomic(path, *payload, FaultPoint::kModelRename);
}

Result<FactorModel> LoadModel(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open: " + path);
  return LoadModelFromStream(in, path);
}

Status VerifyModelIntegrity(const FactorModel& model,
                            const std::string& context, int threads) {
  const size_t d = static_cast<size_t>(model.num_factors());
  const std::vector<double>* arrays[] = {&model.user_factor_data(),
                                         &model.item_factor_data(),
                                         &model.item_bias_data()};
  const size_t sizes[] = {static_cast<size_t>(model.num_users()) * d,
                          static_cast<size_t>(model.num_items()) * d,
                          static_cast<size_t>(model.num_items())};
  for (size_t a = 0; a < 3; ++a) {
    if (arrays[a]->size() != sizes[a]) {
      return Status::Corruption(
          "parameter arrays disagree with the dimensions in " + context);
    }
  }
  std::vector<std::pair<const double*, size_t>> tiles;
  for (const std::vector<double>* v : arrays) {
    for (size_t at = 0; at < v->size(); at += kFiniteTileDoubles) {
      tiles.emplace_back(v->data() + at,
                         std::min(kFiniteTileDoubles, v->size() - at));
    }
  }
  std::atomic<bool> non_finite{false};
  ParallelForEach(static_cast<int64_t>(tiles.size()), threads, [&](int64_t t) {
    if (non_finite.load(std::memory_order_relaxed)) return;
    const auto& [data, n] = tiles[static_cast<size_t>(t)];
    if (AnyNonFinite(data, n)) {
      non_finite.store(true, std::memory_order_relaxed);
    }
  });
  if (non_finite.load()) {
    return Status::Corruption("non-finite parameter in " + context);
  }
  return Status::OK();
}

}  // namespace clapf
