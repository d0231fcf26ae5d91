// Status / StatusOr: lightweight, exception-free error propagation for
// fallible library paths (I/O, parsing, user-supplied data). Programming
// errors use the KGLINK_CHECK macros in util/check.h instead.
#ifndef KGLINK_UTIL_STATUS_H_
#define KGLINK_UTIL_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "util/check.h"

namespace kglink {

// Error categories, deliberately small (RocksDB-style).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kIoError,
  kCorruption,
  kFailedPrecondition,
  kInternal,
  kDeadlineExceeded,
  kUnavailable,   // refused (overload, shutdown) or predict fault trip
  kVersionSkew,   // artifact written by a newer format than this binary
};

// A success-or-error result. Cheap to copy on the OK path.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
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
  static Status VersionSkew(std::string msg) {
    return Status(StatusCode::kVersionSkew, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // Human-readable "CODE: message" string for logs and test failures.
  std::string ToString() const;

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

// A value-or-error result. On the error path the value is absent; accessing
// it is a checked programming error.
template <typename T>
class StatusOr {
 public:
  // Implicit construction from a value or a non-OK Status keeps call sites
  // terse: `return value;` / `return Status::NotFound(...)`.
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    KGLINK_CHECK(!status_.ok()) << "StatusOr constructed from OK status";
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    KGLINK_CHECK(ok()) << "value() on error StatusOr: " << status_.ToString();
    return *value_;
  }
  T& value() & {
    KGLINK_CHECK(ok()) << "value() on error StatusOr: " << status_.ToString();
    return *value_;
  }
  T&& value() && {
    KGLINK_CHECK(ok()) << "value() on error StatusOr: " << status_.ToString();
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

// Propagates a non-OK status to the caller.
#define KGLINK_RETURN_IF_ERROR(expr)            \
  do {                                          \
    ::kglink::Status _st = (expr);              \
    if (!_st.ok()) return _st;                  \
  } while (0)

// Assigns the value of a StatusOr expression or propagates its error.
#define KGLINK_ASSIGN_OR_RETURN(lhs, expr)      \
  auto KGLINK_CONCAT_(_sor_, __LINE__) = (expr);                    \
  if (!KGLINK_CONCAT_(_sor_, __LINE__).ok())                        \
    return KGLINK_CONCAT_(_sor_, __LINE__).status();                \
  lhs = std::move(KGLINK_CONCAT_(_sor_, __LINE__)).value()

#define KGLINK_CONCAT_IMPL_(a, b) a##b
#define KGLINK_CONCAT_(a, b) KGLINK_CONCAT_IMPL_(a, b)

}  // namespace kglink

#endif  // KGLINK_UTIL_STATUS_H_
