// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_BASE_SIMD_SIMD_H_
#define LPSGD_BASE_SIMD_SIMD_H_

#include <string_view>

#include "base/status.h"
#include "base/statusor.h"

namespace lpsgd {

// Instruction sets the codec kernels can dispatch to at runtime. kScalar is
// always available: the scalar kernels are the golden reference every SIMD
// variant must match bit-for-bit (wire bytes and decoded floats), so falling
// back to it is always safe and always correct.
enum class SimdIsa {
  kScalar = 0,
  kAvx2 = 1,  // x86-64 AVX2: 256-bit integer/double lanes, 32-bit gathers
};

// "scalar" | "avx2" — the names --simd= and LPSGD_SIMD accept.
const char* SimdIsaName(SimdIsa isa);

// True when `isa` is both compiled into this binary and supported by the
// CPU it is running on.
bool SimdIsaSupported(SimdIsa isa);

// Best supported ISA on this host (ignores overrides): kAvx2 where the CPU
// has it, else kScalar — aarch64 and every other non-AVX2 host run the
// scalar reference.
SimdIsa DetectSimdIsa();

// The ISA kernel dispatch uses. Resolution order: the last SetSimdMode()
// call, else the LPSGD_SIMD environment variable, else DetectSimdIsa().
// Resolved once and cached; SetSimdMode() replaces the cached value.
SimdIsa ActiveSimdIsa();

// Parses a --simd= / LPSGD_SIMD style value without installing it: "auto"
// maps to DetectSimdIsa(); "scalar" and "avx2" name the ISA directly.
// Fails with InvalidArgument on unknown names and FailedPrecondition when
// the named ISA cannot run on this host.
StatusOr<SimdIsa> ParseSimdMode(std::string_view mode);

// Installs the dispatch mode parsed by ParseSimdMode().
Status SetSimdMode(std::string_view mode);

namespace simd_internal {
// What ActiveSimdIsa() resolves an LPSGD_SIMD value (null when unset) to
// when no SetSimdMode() call came first: the parsed mode, or for an unset
// or empty value DetectSimdIsa(). A value ParseSimdMode() rejects also
// resolves to DetectSimdIsa(), after one warning on stderr that names the
// value and the ISA picked instead.
SimdIsa ResolveSimdOverride(const char* value);

// Swaps the active ISA, returning the previous one. No support check: an
// unsupported ISA simply resolves to the scalar kernel tables, so forcing
// is harmless. Used by ScopedSimdIsa; not part of the public surface.
SimdIsa ExchangeActiveSimdIsa(SimdIsa isa);
}  // namespace simd_internal

// Forces `isa` for the current scope and restores the previous active ISA
// on destruction. Test/bench helper — not safe against concurrent
// SetSimdMode calls from other threads.
class ScopedSimdIsa {
 public:
  explicit ScopedSimdIsa(SimdIsa isa)
      : previous_(simd_internal::ExchangeActiveSimdIsa(isa)) {}
  ~ScopedSimdIsa() { simd_internal::ExchangeActiveSimdIsa(previous_); }
  ScopedSimdIsa(const ScopedSimdIsa&) = delete;
  ScopedSimdIsa& operator=(const ScopedSimdIsa&) = delete;

 private:
  SimdIsa previous_;
};

// Marks a function as compiled for AVX2 regardless of the baseline -march.
// Per-function targeting (instead of per-TU -mavx2) keeps the compiler from
// emitting AVX2 in code that runs before the CPU check: only functions that
// the dispatch table guards carry the attribute.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define LPSGD_SIMD_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define LPSGD_SIMD_TARGET_AVX2
#endif

}  // namespace lpsgd

#endif  // LPSGD_BASE_SIMD_SIMD_H_
