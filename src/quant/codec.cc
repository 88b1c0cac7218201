// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "quant/codec.h"

#include <cctype>
#include <cstring>
#include <numeric>

#include "base/bit_packing.h"
#include "base/logging.h"
#include "base/strings.h"
#include "base/thread_annotations.h"
#include "obs/metrics.h"
#include "quant/registry.h"
#include "quant/workspace.h"

namespace lpsgd {

GradientCodec::GradientCodec(std::string_view metric_name)
    : metric_name_(metric_name),
      encode_calls_metric_(StrCat("quant/", metric_name, "/encode_calls")),
      decode_calls_metric_(StrCat("quant/", metric_name, "/decode_calls")) {}

void GradientCodec::CountDecode() const {
  if (obs::MetricsEnabled()) obs::Count(decode_calls_metric_);
}

LPSGD_HOT_PATH
void GradientCodec::Encode(const float* grad, const Shape& shape,
                           uint64_t stochastic_tag, std::vector<float>* error,
                           CodecWorkspace* workspace,
                           std::vector<uint8_t>* out) const {
  obs::Span span(codec_internal::kEncodeSpan, &workspace->phases);
  const int64_t num_bytes = EncodedSizeBytes(shape);
  uint8_t* blob =
      quant_internal::EnsureSize(out, static_cast<size_t>(num_bytes));
  EncodeRange(grad, shape, stochastic_tag, error, 0, shape.element_count(),
              workspace, blob);
  codec_internal::SealWireBlob(blob,
                               num_bytes - codec_internal::kWireChecksumBytes);
  span.set_bytes(num_bytes);
  if (obs::MetricsEnabled()) {
    obs::Count(encode_calls_metric_);
    obs::Count("quant/encode_bytes", num_bytes);
  }
}

LPSGD_HOT_PATH
Status GradientCodec::Decode(const uint8_t* bytes, int64_t num_bytes,
                             const Shape& shape, CodecWorkspace* workspace,
                             float* out) const {
  obs::Span span(codec_internal::kDecodeSpan, &workspace->phases);
  CountDecode();
  LPSGD_RETURN_IF_ERROR(codec_internal::VerifyWireBlob(
      MetricName(), bytes, num_bytes, EncodedSizeBytes(shape)));
  return DecodeRange(bytes, shape, 0, shape.element_count(), workspace, out);
}

Status GradientCodec::DecodeSparse(const uint8_t* /*bytes*/,
                                   int64_t /*num_bytes*/,
                                   const Shape& /*shape*/,
                                   CodecWorkspace* /*workspace*/,
                                   uint32_t* /*indices*/,
                                   float* /*values*/) const {
  return FailedPreconditionError(
      StrCat(Name(), " is a dense codec and has no sparse wire form"));
}

std::string CodecSpec::Label() const {
  const CodecFamily* family = CodecRegistry::Global().FindByKind(kind);
  return family == nullptr ? "unknown" : family->label(*this);
}

std::string CodecSpec::ShortLabel() const {
  const CodecFamily* family = CodecRegistry::Global().FindByKind(kind);
  return family == nullptr ? "?" : family->short_label(*this);
}

StatusOr<std::unique_ptr<GradientCodec>> CodecSpec::Create() const {
  const CodecFamily* family = CodecRegistry::Global().FindByKind(kind);
  if (family == nullptr) return InvalidArgumentError("unknown codec kind");
  return family->create(*this);
}

namespace {

std::string ToLower(const std::string& text) {
  std::string out = text;
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

}  // namespace

StatusOr<CodecSpec> CodecSpec::Parse(const std::string& text) {
  const std::string lower = ToLower(text);
  const auto colon = lower.find(':');
  const std::string head = lower.substr(0, colon);
  const std::string arg =
      colon == std::string::npos ? "" : lower.substr(colon + 1);
  if (colon != std::string::npos && arg.empty()) {
    return InvalidArgumentError(StrCat("dangling ':' in codec: ", text));
  }

  const CodecRegistry& registry = CodecRegistry::Global();
  const CodecFamily* family = registry.FindByHead(head);
  if (family == nullptr) {
    return InvalidArgumentError(
        StrCat("unrecognized codec: '", head, "' (registered codecs: ",
               StrJoin(registry.Names(), ", "), ")"));
  }
  LPSGD_ASSIGN_OR_RETURN(CodecParams params, CodecParams::Split(arg));
  LPSGD_ASSIGN_OR_RETURN(CodecSpec spec, family->parse(head, &params));
  LPSGD_RETURN_IF_ERROR(params.Finish(family->name, family->keys));
  return spec;
}

namespace codec_internal {

void SealWireBlob(uint8_t* blob, int64_t payload_bytes) {
  const uint32_t hash = Fnv1a32(blob, payload_bytes);
  blob[payload_bytes + 0] = static_cast<uint8_t>(hash & 0xffu);
  blob[payload_bytes + 1] = static_cast<uint8_t>((hash >> 8) & 0xffu);
  blob[payload_bytes + 2] = static_cast<uint8_t>((hash >> 16) & 0xffu);
  blob[payload_bytes + 3] = static_cast<uint8_t>((hash >> 24) & 0xffu);
}

int64_t BucketRangeAlignment(int64_t bucket_size, int bits) {
  return std::lcm(bucket_size, static_cast<int64_t>(32 / bits));
}

Status VerifyWireBlob(std::string_view codec, const uint8_t* bytes,
                      int64_t num_bytes, int64_t expected_bytes) {
  if (num_bytes != expected_bytes) {
    if (obs::MetricsEnabled()) obs::Count("comm/checksum_failures");
    return DataLossError(StrCat(codec, ": encoded blob is ", num_bytes,
                                " bytes, expected ", expected_bytes));
  }
  const int64_t payload_bytes = num_bytes - kWireChecksumBytes;
  const uint32_t expected_hash =
      static_cast<uint32_t>(bytes[payload_bytes + 0]) |
      (static_cast<uint32_t>(bytes[payload_bytes + 1]) << 8) |
      (static_cast<uint32_t>(bytes[payload_bytes + 2]) << 16) |
      (static_cast<uint32_t>(bytes[payload_bytes + 3]) << 24);
  const uint32_t actual_hash = Fnv1a32(bytes, payload_bytes);
  if (actual_hash != expected_hash) {
    if (obs::MetricsEnabled()) obs::Count("comm/checksum_failures");
    return DataLossError(StrCat(codec, ": wire checksum mismatch"));
  }
  return OkStatus();
}

void AppendFloats(const float* values, int64_t count,
                  std::vector<uint8_t>* out) {
  const size_t offset = out->size();
  out->resize(offset + static_cast<size_t>(count) * sizeof(float));
  std::memcpy(out->data() + offset, values,
              static_cast<size_t>(count) * sizeof(float));
}

void AppendWords(const uint32_t* words, int64_t count,
                 std::vector<uint8_t>* out) {
  const size_t offset = out->size();
  out->resize(offset + static_cast<size_t>(count) * sizeof(uint32_t));
  std::memcpy(out->data() + offset, words,
              static_cast<size_t>(count) * sizeof(uint32_t));
}

const float* FloatsAt(const uint8_t* bytes, int64_t offset_bytes) {
  return reinterpret_cast<const float*>(bytes + offset_bytes);
}

const uint32_t* WordsAt(const uint8_t* bytes, int64_t offset_bytes) {
  return reinterpret_cast<const uint32_t*>(bytes + offset_bytes);
}

float* MutableFloatsAt(uint8_t* bytes, int64_t offset_bytes) {
  return reinterpret_cast<float*>(bytes + offset_bytes);
}

uint32_t* MutableWordsAt(uint8_t* bytes, int64_t offset_bytes) {
  return reinterpret_cast<uint32_t*>(bytes + offset_bytes);
}

}  // namespace codec_internal
}  // namespace lpsgd
