// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "fault/fault_plan.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "base/strings.h"

namespace lpsgd {
namespace fault {
namespace {

std::string ToLower(const std::string& text) {
  std::string out = text;
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

// Shortest decimal form that strtod parses back to the same double, so
// ToString/Parse round-trips are exact.
std::string FormatSeconds(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  if (std::strtod(buffer, nullptr) == value) {
    for (int digits = 1; digits < 17; ++digits) {
      char trial[40];
      std::snprintf(trial, sizeof(trial), "%.*g", digits, value);
      if (std::strtod(trial, nullptr) == value) return trial;
    }
  }
  return buffer;
}

// Parses a decimal integer fully into [min, numeric_limits<T>::max()];
// false on trailing garbage or an out-of-range value, so ToString prints
// back exactly what was parsed.
template <typename T>
bool ParseInRange(const std::string& text, T min, T* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || errno == ERANGE || value < min ||
      value > std::numeric_limits<T>::max()) {
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

bool ParseIteration(const std::string& text, int64_t* out) {
  return ParseInRange<int64_t>(text, 0, out);
}

}  // namespace

StatusOr<FaultPlan> FaultPlan::Parse(const std::string& text) {
  FaultPlan plan;
  for (const std::string& raw : StrSplit(ToLower(text), ';')) {
    if (raw.empty()) continue;
    const auto eq = raw.find('=');
    if (eq != std::string::npos) {
      const std::string key = raw.substr(0, eq);
      const std::string value = raw.substr(eq + 1);
      if (key != "seed") {
        return InvalidArgumentError(StrCat("unknown fault key: ", raw));
      }
      char* end = nullptr;
      const unsigned long long seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || end == nullptr || *end != '\0') {
        return InvalidArgumentError(StrCat("bad fault seed: ", value));
      }
      plan.seed = static_cast<uint64_t>(seed);
      continue;
    }
    const auto at = raw.find('@');
    if (at == std::string::npos) {
      return InvalidArgumentError(StrCat("missing '@' in fault: ", raw));
    }
    const std::string head = raw.substr(0, at);
    std::string arg = raw.substr(at + 1);

    FaultEvent event;
    if (head == "straggle") {
      event.kind = FaultKind::kStraggle;
      const auto colon = arg.find(':');
      if (colon == std::string::npos) {
        return InvalidArgumentError(
            StrCat("straggle needs <iter>:<seconds>: ", raw));
      }
      if (!ParseIteration(arg.substr(0, colon), &event.iteration)) {
        return InvalidArgumentError(StrCat("bad fault iteration: ", raw));
      }
      const std::string seconds = arg.substr(colon + 1);
      char* end = nullptr;
      event.delay_seconds = std::strtod(seconds.c_str(), &end);
      if (seconds.empty() || end == nullptr || *end != '\0' ||
          !(event.delay_seconds >= 0.0) ||
          !std::isfinite(event.delay_seconds)) {
        return InvalidArgumentError(StrCat("bad straggle delay: ", raw));
      }
    } else if (head == "fail" || head == "corrupt" || head == "enospc") {
      event.kind = head == "fail"      ? FaultKind::kTransientFail
                   : head == "corrupt" ? FaultKind::kCorruptWire
                                       : FaultKind::kDiskFull;
      const auto x = arg.find('x');
      if (x != std::string::npos) {
        if (!ParseInRange(arg.substr(x + 1), 1, &event.count)) {
          return InvalidArgumentError(StrCat("bad fault count: ", raw));
        }
        arg = arg.substr(0, x);
      }
      if (!ParseIteration(arg, &event.iteration)) {
        return InvalidArgumentError(StrCat("bad fault iteration: ", raw));
      }
    } else if (head == "crash") {
      event.kind = FaultKind::kRankCrash;
      const auto colon = arg.find(':');
      if (colon == std::string::npos) {
        return InvalidArgumentError(
            StrCat("crash needs <iter>:<rank>: ", raw));
      }
      if (!ParseIteration(arg.substr(0, colon), &event.iteration)) {
        return InvalidArgumentError(StrCat("bad fault iteration: ", raw));
      }
      if (!ParseInRange(arg.substr(colon + 1), 0, &event.rank)) {
        return InvalidArgumentError(StrCat("bad crash rank: ", raw));
      }
    } else if (head == "torn" || head == "shortwrite" || head == "kill") {
      event.kind = head == "torn"        ? FaultKind::kTornWrite
                   : head == "shortwrite" ? FaultKind::kShortWrite
                                          : FaultKind::kKill;
      if (!ParseIteration(arg, &event.iteration)) {
        return InvalidArgumentError(StrCat("bad fault iteration: ", raw));
      }
    } else {
      return InvalidArgumentError(
          StrCat("unrecognized fault: ", raw,
                 " (known: straggle, fail, corrupt, crash, torn, "
                 "shortwrite, enospc, kill, seed=<n>)"));
    }
    plan.events.push_back(event);
  }
  return plan;
}

std::string FaultPlan::ToString() const {
  std::vector<std::string> parts;
  for (const FaultEvent& event : events) {
    switch (event.kind) {
      case FaultKind::kStraggle:
        parts.push_back(StrCat("straggle@", event.iteration, ":",
                               FormatSeconds(event.delay_seconds)));
        break;
      case FaultKind::kTransientFail:
        parts.push_back(event.count == 1
                            ? StrCat("fail@", event.iteration)
                            : StrCat("fail@", event.iteration, "x",
                                     event.count));
        break;
      case FaultKind::kCorruptWire:
        parts.push_back(event.count == 1
                            ? StrCat("corrupt@", event.iteration)
                            : StrCat("corrupt@", event.iteration, "x",
                                     event.count));
        break;
      case FaultKind::kRankCrash:
        parts.push_back(
            StrCat("crash@", event.iteration, ":", event.rank));
        break;
      case FaultKind::kTornWrite:
        parts.push_back(StrCat("torn@", event.iteration));
        break;
      case FaultKind::kShortWrite:
        parts.push_back(StrCat("shortwrite@", event.iteration));
        break;
      case FaultKind::kDiskFull:
        parts.push_back(event.count == 1
                            ? StrCat("enospc@", event.iteration)
                            : StrCat("enospc@", event.iteration, "x",
                                     event.count));
        break;
      case FaultKind::kKill:
        parts.push_back(StrCat("kill@", event.iteration));
        break;
    }
  }
  if (seed != FaultPlan{}.seed) {
    parts.push_back(StrCat("seed=", seed));
  }
  return StrJoin(parts, ";");
}

FaultPlan FaultPlan::WithoutCrashes() const {
  FaultPlan out;
  out.seed = seed;
  for (const FaultEvent& event : events) {
    if (event.kind != FaultKind::kRankCrash) out.events.push_back(event);
  }
  return out;
}

bool FaultPlan::HasStorageFaults() const {
  for (const FaultEvent& event : events) {
    if (event.kind == FaultKind::kTornWrite ||
        event.kind == FaultKind::kShortWrite ||
        event.kind == FaultKind::kDiskFull) {
      return true;
    }
  }
  return false;
}

bool FaultPlan::KillsAt(int64_t iteration) const {
  for (const FaultEvent& event : events) {
    if (event.kind == FaultKind::kKill && event.iteration == iteration) {
      return true;
    }
  }
  return false;
}

namespace {

constexpr const char kRankCrashPrefix[] = "rank ";
constexpr const char kRankCrashSuffix[] = " crashed";
constexpr const char kProcessKillPrefix[] = "process killed at iteration ";

}  // namespace

Status RankCrashError(int rank) {
  return AbortedError(StrCat(kRankCrashPrefix, rank, kRankCrashSuffix));
}

bool IsRankCrash(const Status& status, int* rank) {
  if (status.code() != StatusCode::kAborted) return false;
  const std::string& message = status.message();
  const size_t prefix_len = sizeof(kRankCrashPrefix) - 1;
  if (message.rfind(kRankCrashPrefix, 0) != 0) return false;
  char* end = nullptr;
  const long parsed = std::strtol(message.c_str() + prefix_len, &end, 10);
  if (end == nullptr || std::string(end) != kRankCrashSuffix || parsed < 0) {
    return false;
  }
  if (rank != nullptr) *rank = static_cast<int>(parsed);
  return true;
}

Status ProcessKillError(int64_t iteration) {
  return AbortedError(StrCat(kProcessKillPrefix, iteration));
}

bool IsProcessKill(const Status& status) {
  return status.code() == StatusCode::kAborted &&
         status.message().rfind(kProcessKillPrefix, 0) == 0;
}

}  // namespace fault
}  // namespace lpsgd
