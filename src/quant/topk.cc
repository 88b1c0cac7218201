// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "quant/topk.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "base/bit_packing.h"
#include "base/logging.h"
#include "base/simd/elementwise.h"
#include "base/thread_annotations.h"
#include "base/strings.h"
#include "obs/span.h"
#include "quant/registry.h"
#include "quant/simd_kernels.h"
#include "quant/workspace.h"

namespace lpsgd {

using codec_internal::FloatsAt;
using codec_internal::MutableFloatsAt;
using codec_internal::MutableWordsAt;
using codec_internal::WordsAt;

TopKCodec::TopKCodec(double density, bool error_feedback)
    : GradientCodec("topk", error_feedback), density_(density) {
  CHECK_GT(density, 0.0);
  CHECK_LE(density, 1.0);
}

std::string TopKCodec::Name() const {
  return StrCat("TopK (", FormatDouble(density_ * 100.0, 1), "%)");
}

int64_t TopKCodec::KeptCount(int64_t n) const {
  return std::max<int64_t>(
      1, static_cast<int64_t>(std::llround(density_ * static_cast<double>(n))));
}

int64_t TopKCodec::EncodedSizeBytes(const Shape& shape) const {
  const int64_t n = shape.element_count();
  const int64_t k = KeptCount(n);
  return static_cast<int64_t>(sizeof(uint32_t)) +
         IndexRunWordCount(n, k) * static_cast<int64_t>(sizeof(uint32_t)) +
         k * static_cast<int64_t>(sizeof(float)) +
         codec_internal::kWireChecksumBytes;
}

int64_t TopKCodec::SparseCount(const Shape& shape) const {
  return KeptCount(shape.element_count());
}

int64_t TopKCodec::NumChunks(const Shape& /*shape*/) const {
  // One selection pass per matrix; the per-element cost dominates.
  return 1;
}

int64_t TopKCodec::RangeAlignment(const Shape& /*shape*/) const {
  // The kept set is a whole-matrix magnitude selection.
  return 0;
}

LPSGD_HOT_PATH
void TopKCodec::QuantizeRange(const float* grad, const Shape& shape,
                              uint64_t /*stochastic_tag*/, int64_t begin,
                              int64_t end, CodecWorkspace* workspace,
                              uint8_t* blob) const {
  const int64_t n = shape.element_count();
  CHECK_EQ(begin, 0);
  CHECK_EQ(end, n);

  // The selection permutes `order`, so the values are staged once (in
  // reusable workspace scratch) as grad + 0.0f, which flushes -0.0f to
  // +0.0f in the sent values (see CodecKernels::stage_corrected).
  const quant_simd::CodecKernels& kernels = quant_simd::ActiveCodecKernels();
  const ElementwiseKernels& elementwise = ActiveElementwiseKernels();
  float* staged =
      quant_internal::EnsureSize(&workspace->corrected, static_cast<size_t>(n));
  kernels.stage_corrected(grad, nullptr, staged, n);

  // Magnitude threshold scan: |v| precomputed in one elementwise pass so
  // the nth_element comparator is two loads instead of two fabs. The
  // magnitudes are the exact floats std::abs produced before, so the
  // selected set (and thus the wire bytes) is unchanged.
  float* magnitude =
      quant_internal::EnsureSize(&workspace->sample, static_cast<size_t>(n));
  elementwise.abs_f32(staged, magnitude, n);

  const int64_t k = KeptCount(n);
  std::vector<int64_t>& order = workspace->order;
  quant_internal::EnsureSize(&order, static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::nth_element(order.begin(), order.begin() + (k - 1), order.end(),
                   [&](int64_t a, int64_t b) {
                     return magnitude[a] > magnitude[b];
                   });
  // Sort the kept indices so the wire format is deterministic.
  std::sort(order.begin(), order.begin() + k);

  uint32_t* words = MutableWordsAt(blob, 0);
  words[0] = static_cast<uint32_t>(k);
  PackIndexRun(order.data(), k, n, words + 1);
  float* values = MutableFloatsAt(
      blob, static_cast<int64_t>(sizeof(uint32_t)) +
                IndexRunWordCount(n, k) *
                    static_cast<int64_t>(sizeof(uint32_t)));
  for (int64_t i = 0; i < k; ++i) {
    values[i] = staged[order[static_cast<size_t>(i)]];
  }
}

LPSGD_HOT_PATH
Status TopKCodec::DecodeRange(const uint8_t* blob, const Shape& shape,
                              int64_t /*begin*/, int64_t /*end*/,
                              CodecWorkspace* workspace, float* out) const {
  const int64_t n = shape.element_count();
  const int64_t k = KeptCount(n);
  // Stage the sparse form in workspace scratch: the framing validation
  // must finish before `out` is touched (which must stay intact on error).
  uint32_t* indices = quant_internal::EnsureSize(&workspace->sparse_indices,
                                                 static_cast<size_t>(k));
  float* values = quant_internal::EnsureSize(&workspace->corrected,
                                             static_cast<size_t>(k));
  LPSGD_RETURN_IF_ERROR(ParseSparse(blob, n, indices, values));
  std::fill(out, out + n, 0.0f);
  for (int64_t i = 0; i < k; ++i) {
    out[indices[i]] = values[i];
  }
  return OkStatus();
}

LPSGD_HOT_PATH
Status TopKCodec::DecodeSparse(const uint8_t* bytes, int64_t num_bytes,
                               const Shape& shape, CodecWorkspace* workspace,
                               uint32_t* indices, float* values) const {
  obs::Span span(codec_internal::kDecodeSpan, &workspace->phases);
  CountDecode();
  LPSGD_RETURN_IF_ERROR(codec_internal::VerifyWireBlob(
      "topk", bytes, num_bytes, EncodedSizeBytes(shape)));
  return ParseSparse(bytes, shape.element_count(), indices, values);
}

LPSGD_HOT_PATH
Status TopKCodec::ParseSparse(const uint8_t* blob, int64_t n,
                              uint32_t* indices, float* values) const {
  // The checksum is 32 bits, so collisions are possible: re-validate the
  // framing fields before trusting the payload.
  const uint32_t count = *WordsAt(blob, 0);
  const int64_t k = KeptCount(n);
  if (static_cast<int64_t>(count) != k) {
    return DataLossError(StrCat("topk: blob claims ", count,
                                " components, expected ", k));
  }
  if (!UnpackIndexRun(WordsAt(blob, sizeof(uint32_t)), k, n, indices)) {
    return DataLossError(StrCat(
        "topk: component indices not strictly increasing in [0, ", n, ")"));
  }
  const float* wire_values =
      FloatsAt(blob, static_cast<int64_t>(sizeof(uint32_t)) +
                         IndexRunWordCount(n, k) *
                             static_cast<int64_t>(sizeof(uint32_t)));
  std::memcpy(values, wire_values, static_cast<size_t>(k) * sizeof(float));
  return OkStatus();
}

CodecSpec TopKSpec(double density) {
  CodecSpec spec;
  spec.kind = CodecKind::kTopK;
  spec.density = density;
  return spec;
}

namespace codec_internal {
// Force-link anchor referenced by registry.cc (see kCodecFamilyLinkAnchor).
int LinkTopKCodecFamily() { return 0; }
}  // namespace codec_internal

namespace {

CodecFamily TopKFamily() {
  CodecFamily family;
  family.kind = CodecKind::kTopK;
  family.name = "topk";
  family.help = "top-k sparsification, density in (0,1] required "
                "(topk:<density> or topk:density=<density>)";
  family.keys = {"density"};
  family.matches = [](const std::string& head) { return head == "topk"; };
  family.parse = [](const std::string& /*head*/,
                    CodecParams* params) -> StatusOr<CodecSpec> {
    LPSGD_ASSIGN_OR_RETURN(const std::string text,
                           TakeValueOrKey(params, "density"));
    if (text.empty()) {
      return InvalidArgumentError(
          "topk needs a density (topk:<density> or topk:density=<density>)");
    }
    LPSGD_ASSIGN_OR_RETURN(const double density,
                           ParseDoubleParam(text, "TopK density"));
    if (density <= 0.0 || density > 1.0) {
      return InvalidArgumentError(StrCat("bad TopK density: ", text));
    }
    return TopKSpec(density);
  };
  family.create = [](const CodecSpec& spec)
      -> StatusOr<std::unique_ptr<GradientCodec>> {
    if (!(spec.density > 0.0 && spec.density <= 1.0)) {
      return InvalidArgumentError(StrCat(
          "TopK density must be in (0, 1], got ", spec.density));
    }
    return std::unique_ptr<GradientCodec>(
        new TopKCodec(spec.density, spec.error_feedback));
  };
  family.label = [](const CodecSpec& spec) {
    return StrCat("TopK ", FormatDouble(spec.density * 100.0, 1), "%");
  };
  family.short_label = [](const CodecSpec& spec) {
    return StrCat("K", FormatDouble(spec.density * 100.0, 0));
  };
  return family;
}

const CodecRegistrar registrar(TopKFamily());

}  // namespace
}  // namespace lpsgd
