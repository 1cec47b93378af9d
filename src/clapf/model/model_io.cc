#include "clapf/model/model_io.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <vector>

#include "clapf/util/crc32.h"
#include "clapf/util/fault_injection.h"
#include "clapf/util/fs.h"

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

// Bytes SaveModelToStream writes for `model`: magic, version, three int32
// dimensions and the bias flag, the three parameter arrays, the CRC.
size_t SerializedModelBytes(const FactorModel& model) {
  return sizeof(kMagic) + sizeof(kVersion) + 3 * sizeof(int32_t) +
         sizeof(uint8_t) +
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
                            const std::string& context) {
  if (!model.AllFinite()) {
    return Status::Corruption("non-finite parameter in " + context);
  }
  // Deliberately bypasses SerializeModel: fault injection targets the disk
  // path, not the gate that is supposed to catch its damage. The image
  // lives in one buffer of exactly its serialized size, written once and
  // read back once.
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

}  // namespace clapf
