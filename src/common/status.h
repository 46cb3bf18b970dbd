#ifndef UOLAP_COMMON_STATUS_H_
#define UOLAP_COMMON_STATUS_H_

#include <string>
#include <string_view>
#include <utility>
#include <variant>

#include "common/macros.h"

namespace uolap {

/// Error categories used across the library. Modeled after the
/// absl/Arrow/RocksDB status idiom: cheap to pass by value, OK is the
/// common case.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kUnimplemented,
  kInternal,
};

/// Returns a short human-readable name for a status code ("OK",
/// "InvalidArgument", ...).
std::string_view StatusCodeName(StatusCode code);

/// A success-or-error result carried by fallible public APIs (configuration
/// parsing, data generation entry points, harness plumbing). The simulator
/// and engine hot paths never construct non-OK statuses.
/// Dropping a returned Status or StatusOr is a compile error: the classes
/// are [[nodiscard]] and the build passes -Werror=unused-result.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}
  Status(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(const Status&) = default;
  Status& operator=(Status&&) = default;
  /// Out of line: inlined into std::variant's reset of a StatusOr that
  /// holds a value, GCC 12 at -O3 warns (-Wmaybe-uninitialized) about the
  /// message of the never-constructed Status alternative.
  ~Status();

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
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status. `value()` aborts if the
/// status is not OK, matching the CHECK-fail discipline used elsewhere.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  /*implicit*/ StatusOr(T value) : rep_(std::move(value)) {}
  /*implicit*/ StatusOr(Status status) : rep_(std::move(status)) {
    UOLAP_CHECK_MSG(!std::get<Status>(rep_).ok(),
                    "StatusOr constructed from OK status");
  }

  bool ok() const { return std::holds_alternative<T>(rep_); }

  const Status& status() const {
    static const Status kOk;
    if (ok()) return kOk;
    return std::get<Status>(rep_);
  }

  const T& value() const& {
    UOLAP_CHECK_MSG(ok(), status().ToString().c_str());
    return std::get<T>(rep_);
  }
  T& value() & {
    UOLAP_CHECK_MSG(ok(), status().ToString().c_str());
    return std::get<T>(rep_);
  }
  T&& value() && {
    UOLAP_CHECK_MSG(ok(), status().ToString().c_str());
    return std::get<T>(std::move(rep_));
  }

 private:
  std::variant<T, Status> rep_;
};

}  // namespace uolap

#endif  // UOLAP_COMMON_STATUS_H_
