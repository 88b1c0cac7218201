// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_BASE_STATUS_H_
#define LPSGD_BASE_STATUS_H_

#include <ostream>
#include <string>
#include <utility>

namespace lpsgd {

// Canonical error space, modeled after absl::StatusCode. Only the codes the
// library actually produces are included.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kFailedPrecondition = 5,
  kUnimplemented = 6,
  kInternal = 7,
  kUnavailable = 8,       // transient failure; retrying may succeed
  kDeadlineExceeded = 9,  // exceeded a time budget; retrying may succeed
  kDataLoss = 10,         // unrecoverable corruption (e.g. checksum mismatch)
  kAborted = 11,          // permanent failure; retrying cannot succeed
};

// Returns the canonical name of `code`, e.g. "INVALID_ARGUMENT".
const char* StatusCodeToString(StatusCode code);

// The codes a retry loop re-attempts (the exchange retry wrapper and the
// durable-checkpoint writer): UNAVAILABLE, DEADLINE_EXCEEDED, DATA_LOSS and
// INTERNAL. The failure is tied to one attempt, not to the system's
// ability to ever complete one. ABORTED (a crashed rank) is not transient:
// the caller must reconfigure, not retry.
bool IsTransient(StatusCode code);

// Backoff before retry `attempt` (1-based) of either retry loop:
// base_seconds * 2^(attempt-1).
double RetryBackoffSeconds(double base_seconds, int attempt);

// Value-type result of a fallible operation: a code plus a human-readable
// message. LPSGD does not use exceptions; every fallible public API returns
// Status or StatusOr<T>. The class-level [[nodiscard]] makes silently
// dropping any returned Status a compile error under -Werror (the CI
// default): handle it, return it, or CHECK_OK it.
class [[nodiscard]] Status {
 public:
  // Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "<CODE>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

Status OkStatus();
Status InvalidArgumentError(std::string message);
Status NotFoundError(std::string message);
Status AlreadyExistsError(std::string message);
Status OutOfRangeError(std::string message);
Status FailedPreconditionError(std::string message);
Status UnimplementedError(std::string message);
Status InternalError(std::string message);
Status UnavailableError(std::string message);
Status DeadlineExceededError(std::string message);
Status DataLossError(std::string message);
Status AbortedError(std::string message);

}  // namespace lpsgd

// Evaluates `expr` (a Status expression); returns it from the enclosing
// function if it is not OK.
#define LPSGD_RETURN_IF_ERROR(expr)                    \
  do {                                                 \
    ::lpsgd::Status lpsgd_status_macro_tmp_ = (expr);  \
    if (!lpsgd_status_macro_tmp_.ok()) {               \
      return lpsgd_status_macro_tmp_;                  \
    }                                                  \
  } while (false)

#endif  // LPSGD_BASE_STATUS_H_
