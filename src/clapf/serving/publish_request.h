#ifndef CLAPF_SERVING_PUBLISH_REQUEST_H_
#define CLAPF_SERVING_PUBLISH_REQUEST_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "clapf/model/factor_model.h"

namespace clapf {

/// Publish target meaning "replace every shard" — the default, and the only
/// meaningful target on a single-shard server.
inline constexpr int32_t kAllShards = -1;

/// The one publish surface of the serving layer. A request carries either an
/// in-memory candidate model or a path to a saved one (CRC-verified by the
/// wire format on load) — never both — plus routing: which shard the
/// candidate replaces (kAllShards for a full swap).
///
/// The single-argument constructors are implicit by design so the unified
/// entry point reads exactly like the two calls it replaced:
///
///   server.PublishModel(model);          // was server.Publish(model)
///   server.PublishModel("model.clapf");  // was server.PublishFromFile(path)
///   server.PublishModel(PublishRequest(model).WithShard(2));
///
/// The candidate model is always full-catalog dimensioned, even when only
/// one shard is targeted: the server slices out the items the target shard
/// owns and leaves every other shard untouched.
struct PublishRequest {
  PublishRequest() = default;
  // NOLINTNEXTLINE(google-explicit-constructor)
  PublishRequest(FactorModel candidate) : model(std::move(candidate)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  PublishRequest(std::string model_path) : path(std::move(model_path)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  PublishRequest(const char* model_path) : path(model_path) {}

  /// Fluent routing setter for one-line call sites.
  PublishRequest& WithShard(int32_t s) & {
    shard = s;
    return *this;
  }
  PublishRequest&& WithShard(int32_t s) && {
    shard = s;
    return std::move(*this);
  }

  /// In-memory candidate; mutually exclusive with `path`.
  std::optional<FactorModel> model;
  /// Path to a SaveModel file; mutually exclusive with `model`.
  std::string path;
  /// Shard whose slice the candidate replaces, or kAllShards.
  int32_t shard = kAllShards;
};

}  // namespace clapf

#endif  // CLAPF_SERVING_PUBLISH_REQUEST_H_
