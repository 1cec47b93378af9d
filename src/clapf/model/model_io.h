#ifndef CLAPF_MODEL_MODEL_IO_H_
#define CLAPF_MODEL_MODEL_IO_H_

#include <iosfwd>
#include <string>

#include "clapf/model/factor_model.h"
#include "clapf/util/status.h"

namespace clapf {

/// Model file format: magic "CLPF", little-endian version + dims header, raw
/// parameter arrays, and (since v2) a trailing CRC-32 over the parameter
/// bytes so torn writes and bit flips are detected at load time. v1 files
/// (no CRC) are still readable.

/// Serializes `model` to `out`; the stream should be binary.
Status SaveModelToStream(const FactorModel& model, std::ostream& out);

/// Deserializes a model from `in`. `context` names the source (e.g. a file
/// path) for error messages. Returns Corruption on bad magic/version,
/// dimensions whose parameter bytes overflow or exceed what a seekable
/// stream still holds (checked before anything is allocated), a truncated
/// stream, or a CRC mismatch.
Result<FactorModel> LoadModelFromStream(std::istream& in,
                                        const std::string& context);

/// Serializes `model` to `path` (plain write; not crash-safe — a crash
/// mid-write leaves a torn file, which LoadModel will reject via CRC).
Status SaveModel(const FactorModel& model, const std::string& path);

/// Crash-safe save: writes to `path + ".tmp"`, fsyncs, and atomically renames
/// over `path`, so readers never observe a partially written model.
Status SaveModelAtomic(const FactorModel& model, const std::string& path);

/// Loads a model previously written by SaveModel/SaveModelAtomic. Returns
/// Corruption on a bad magic/version, a truncated file, or a CRC mismatch.
Result<FactorModel> LoadModel(const std::string& path);

/// Integrity check for an in-memory candidate model, used by the serving
/// canary gate before a hot swap: a shape check (each parameter array has
/// the size the dimensions give), then a finite scan. Either refusal is
/// Corruption. A well-shaped in-memory model always survives a save ->
/// load round trip through the v2 format, so the gate makes none: the
/// `format` tests hold the serializer to that contract, and file
/// candidates go through LoadModel's CRC. The scan runs in tiles over
/// `threads` workers; the verdict and message do not depend on the count.
/// `context` names the candidate for error messages.
Status VerifyModelIntegrity(const FactorModel& model,
                            const std::string& context, int threads = 1);

}  // namespace clapf

#endif  // CLAPF_MODEL_MODEL_IO_H_
