// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "quant/full_precision.h"

#include <cstring>

#include "base/logging.h"
#include "base/thread_annotations.h"
#include "quant/registry.h"
#include "quant/workspace.h"

namespace lpsgd {

int64_t FullPrecisionCodec::EncodedSizeBytes(const Shape& shape) const {
  return shape.element_count() * static_cast<int64_t>(sizeof(float)) +
         codec_internal::kWireChecksumBytes;
}

int64_t FullPrecisionCodec::NumChunks(const Shape& /*shape*/) const {
  return 0;
}

int64_t FullPrecisionCodec::RangeAlignment(const Shape& /*shape*/) const {
  return 1;
}

LPSGD_HOT_PATH
void FullPrecisionCodec::QuantizeRange(const float* grad,
                                       const Shape& /*shape*/,
                                       uint64_t /*stochastic_tag*/,
                                       int64_t begin, int64_t end,
                                       CodecWorkspace* /*workspace*/,
                                       uint8_t* blob) const {
  std::memcpy(blob + begin * static_cast<int64_t>(sizeof(float)), grad,
              static_cast<size_t>(end - begin) * sizeof(float));
}

LPSGD_HOT_PATH
Status FullPrecisionCodec::DecodeRange(const uint8_t* blob,
                                       const Shape& /*shape*/, int64_t begin,
                                       int64_t end,
                                       CodecWorkspace* /*workspace*/,
                                       float* out) const {
  std::memcpy(out, blob + begin * static_cast<int64_t>(sizeof(float)),
              static_cast<size_t>(end - begin) * sizeof(float));
  return OkStatus();
}

CodecSpec FullPrecisionSpec() { return CodecSpec{}; }

namespace codec_internal {
// Force-link anchor referenced by registry.cc (see kCodecFamilyLinkAnchor).
int LinkFullPrecisionCodecFamily() { return 0; }
}  // namespace codec_internal

namespace {

CodecFamily FullPrecisionFamily() {
  CodecFamily family;
  family.kind = CodecKind::kFullPrecision;
  family.name = "32bit";
  family.help = "full precision (alias: fp32)";
  family.matches = [](const std::string& head) {
    return head == "32bit" || head == "fp32";
  };
  family.parse = [](const std::string& /*head*/,
                    CodecParams* /*params*/) -> StatusOr<CodecSpec> {
    return FullPrecisionSpec();
  };
  family.create = [](const CodecSpec& /*spec*/)
      -> StatusOr<std::unique_ptr<GradientCodec>> {
    return std::unique_ptr<GradientCodec>(new FullPrecisionCodec());
  };
  family.label = [](const CodecSpec& /*spec*/) {
    return std::string("32bit");
  };
  family.short_label = [](const CodecSpec& /*spec*/) {
    return std::string("32bit");
  };
  return family;
}

const CodecRegistrar registrar(FullPrecisionFamily());

}  // namespace
}  // namespace lpsgd
