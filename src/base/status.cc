// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "base/status.h"

namespace lpsgd {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kAlreadyExists:
      return "ALREADY_EXISTS";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kUnimplemented:
      return "UNIMPLEMENTED";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kUnavailable:
      return "UNAVAILABLE";
    case StatusCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case StatusCode::kDataLoss:
      return "DATA_LOSS";
    case StatusCode::kAborted:
      return "ABORTED";
  }
  return "UNKNOWN";
}

bool IsTransient(StatusCode code) {
  return code == StatusCode::kUnavailable ||
         code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kDataLoss || code == StatusCode::kInternal;
}

double RetryBackoffSeconds(double base_seconds, int attempt) {
  double backoff = base_seconds;
  for (int i = 1; i < attempt; ++i) backoff *= 2.0;
  return backoff;
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

Status OkStatus() { return Status(); }

Status InvalidArgumentError(std::string message) {
  return Status(StatusCode::kInvalidArgument, std::move(message));
}

Status NotFoundError(std::string message) {
  return Status(StatusCode::kNotFound, std::move(message));
}

Status AlreadyExistsError(std::string message) {
  return Status(StatusCode::kAlreadyExists, std::move(message));
}

Status OutOfRangeError(std::string message) {
  return Status(StatusCode::kOutOfRange, std::move(message));
}

Status FailedPreconditionError(std::string message) {
  return Status(StatusCode::kFailedPrecondition, std::move(message));
}

Status UnimplementedError(std::string message) {
  return Status(StatusCode::kUnimplemented, std::move(message));
}

Status InternalError(std::string message) {
  return Status(StatusCode::kInternal, std::move(message));
}

Status UnavailableError(std::string message) {
  return Status(StatusCode::kUnavailable, std::move(message));
}

Status DeadlineExceededError(std::string message) {
  return Status(StatusCode::kDeadlineExceeded, std::move(message));
}

Status DataLossError(std::string message) {
  return Status(StatusCode::kDataLoss, std::move(message));
}

Status AbortedError(std::string message) {
  return Status(StatusCode::kAborted, std::move(message));
}

}  // namespace lpsgd
