#ifndef CLAPF_UTIL_STATUS_H_
#define CLAPF_UTIL_STATUS_H_

#include <string>
#include <utility>
#include <variant>

namespace clapf {

/// Error category for a failed operation.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kIoError,
  kCorruption,
  kUnimplemented,
  kInternal,
  kDeadlineExceeded,
  kUnavailable,
};

/// Returns a human-readable name for `code` ("OK", "InvalidArgument", ...).
const char* StatusCodeToString(StatusCode code);

/// Lightweight success-or-error value, RocksDB/Abseil style. CLAPF never
/// throws across API boundaries; fallible operations return `Status` (or
/// `Result<T>` when they also produce a value).
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// Value-or-error, a minimal StatusOr. Check `ok()` before calling `value()`;
/// accessing the value of a failed Result aborts the process.
template <typename T>
class Result {
 public:
  /// Implicit from a value: allows `return some_t;`.
  Result(T value) : data_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit from a non-OK status: allows `return Status::NotFound(...)`.
  Result(Status status)  // NOLINT(runtime/explicit)
      : data_(std::move(status)) {}

  bool ok() const {
    return std::holds_alternative<T>(data_);
  }

  const Status& status() const {
    static const Status kOk;
    if (ok()) return kOk;
    return std::get<Status>(data_);
  }

  const T& value() const& { return std::get<T>(data_); }
  T& value() & { return std::get<T>(data_); }
  T&& value() && { return std::get<T>(std::move(data_)); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  // Without this overload `*std::move(result)` binds the const& one and
  // copies the value out instead of moving it.
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> data_;
};

}  // namespace clapf

/// Propagates a non-OK Status out of the enclosing function.
#define CLAPF_RETURN_IF_ERROR(expr)                  \
  do {                                               \
    ::clapf::Status _clapf_status = (expr);          \
    if (!_clapf_status.ok()) return _clapf_status;   \
  } while (0)

#endif  // CLAPF_UTIL_STATUS_H_
