// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// The canonical spelling of each registered codec family, for tests that
// iterate CodecRegistry::Names() so a new family is covered without edits.
#ifndef LPSGD_TESTS_QUANT_CANONICAL_SPEC_H_
#define LPSGD_TESTS_QUANT_CANONICAL_SPEC_H_

#include <string>

#include "base/statusor.h"
#include "base/strings.h"
#include "quant/codec.h"

namespace lpsgd {

// "<bits>" becomes 4, and a family that needs a value (topk) takes the
// positional 0.25.
inline StatusOr<CodecSpec> CanonicalSpec(std::string name) {
  const size_t bits = name.find("<bits>");
  if (bits != std::string::npos) {
    name = StrCat(name.substr(0, bits), "4", name.substr(bits + 6));
  }
  StatusOr<CodecSpec> spec = CodecSpec::Parse(name);
  if (!spec.ok()) spec = CodecSpec::Parse(name + ":0.25");
  return spec;
}

}  // namespace lpsgd

#endif  // LPSGD_TESTS_QUANT_CANONICAL_SPEC_H_
