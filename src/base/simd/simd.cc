// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "base/simd/simd.h"

#include <atomic>
#include <cstdlib>
#include <string>

#include "base/logging.h"
#include "base/strings.h"

namespace lpsgd {
namespace {

// -1 = not yet resolved; otherwise a SimdIsa value.
std::atomic<int> g_active{-1};

bool CpuHasAvx2() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

}  // namespace

const char* SimdIsaName(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar:
      return "scalar";
    case SimdIsa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool SimdIsaSupported(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar:
      return true;
    case SimdIsa::kAvx2:
      return CpuHasAvx2();
  }
  return false;
}

SimdIsa DetectSimdIsa() {
  if (SimdIsaSupported(SimdIsa::kAvx2)) return SimdIsa::kAvx2;
  return SimdIsa::kScalar;
}

SimdIsa ActiveSimdIsa() {
  int value = g_active.load(std::memory_order_acquire);
  if (value < 0) {
    const SimdIsa resolved =
        simd_internal::ResolveSimdOverride(std::getenv("LPSGD_SIMD"));
    int expected = -1;
    if (g_active.compare_exchange_strong(expected, static_cast<int>(resolved),
                                         std::memory_order_acq_rel)) {
      return resolved;
    }
    value = expected;  // another thread resolved first
  }
  return static_cast<SimdIsa>(value);
}

StatusOr<SimdIsa> ParseSimdMode(std::string_view mode) {
  if (mode == "auto") return DetectSimdIsa();
  for (const SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kAvx2}) {
    if (mode != SimdIsaName(isa)) continue;
    if (!SimdIsaSupported(isa)) {
      return FailedPreconditionError(
          StrCat("SIMD mode \"", std::string(mode),
                 "\" is not supported on this host (detected: ",
                 SimdIsaName(DetectSimdIsa()), ")"));
    }
    return isa;
  }
  return InvalidArgumentError(
      StrCat("unknown SIMD mode \"", std::string(mode),
             "\" (expected one of auto, scalar, avx2)"));
}

Status SetSimdMode(std::string_view mode) {
  LPSGD_ASSIGN_OR_RETURN(const SimdIsa isa, ParseSimdMode(mode));
  g_active.store(static_cast<int>(isa), std::memory_order_release);
  return OkStatus();
}

namespace simd_internal {

SimdIsa ResolveSimdOverride(const char* value) {
  // The env override is an operator knob, not program input: an unusable
  // value falls back to detection instead of aborting the run, and says so.
  const SimdIsa detected = DetectSimdIsa();
  if (value == nullptr || *value == '\0') return detected;
  StatusOr<SimdIsa> parsed = ParseSimdMode(value);
  if (parsed.ok()) return *parsed;
  LOG(Warning) << "ignoring LPSGD_SIMD=\"" << value
               << "\": " << parsed.status().message() << "; using "
               << SimdIsaName(detected);
  return detected;
}

SimdIsa ExchangeActiveSimdIsa(SimdIsa isa) {
  const SimdIsa previous = ActiveSimdIsa();
  g_active.store(static_cast<int>(isa), std::memory_order_release);
  return previous;
}

}  // namespace simd_internal
}  // namespace lpsgd
