// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "quant/ecq_sgd.h"

#include <algorithm>
#include <cmath>

#include "base/bit_packing.h"
#include "base/logging.h"
#include "base/simd/elementwise.h"
#include "base/thread_annotations.h"
#include "base/rng.h"
#include "base/strings.h"
#include "quant/registry.h"
#include "quant/simd_kernels.h"
#include "quant/workspace.h"

namespace lpsgd {
namespace {

using codec_internal::FloatsAt;
using codec_internal::MutableFloatsAt;
using codec_internal::MutableWordsAt;
using codec_internal::WordsAt;

}  // namespace

EcqSgdCodec::EcqSgdCodec(int bits, int64_t bucket_size, bool error_feedback,
                         uint64_t seed)
    : GradientCodec("ecq_sgd"),
      bits_(bits),
      bucket_size_(bucket_size),
      error_feedback_(error_feedback),
      seed_(seed) {
  CHECK_GE(bits, 2);
  CHECK_LE(bits, 16);
  CHECK_GT(bucket_size, 0);
  level_count_ = (1u << (bits_ - 1)) - 1u;
  CHECK_GE(level_count_, 1u);
  magnitudes_.resize(static_cast<size_t>(level_count_) + 1);
  for (uint32_t m = 0; m <= level_count_; ++m) {
    magnitudes_[m] = m / static_cast<double>(level_count_);
  }
}

std::string EcqSgdCodec::Name() const {
  return StrCat("ECQ-SGD ", bits_, "bit (b=", bucket_size_, ")");
}

int64_t EcqSgdCodec::NumChunks(const Shape& shape) const {
  const int64_t n = shape.element_count();
  return (n + bucket_size_ - 1) / bucket_size_;
}

int64_t EcqSgdCodec::EncodedSizeBytes(const Shape& shape) const {
  const int64_t n = shape.element_count();
  const BitPacker packer(bits_);
  return NumChunks(shape) * static_cast<int64_t>(sizeof(float)) +
         packer.WordCount(n) * static_cast<int64_t>(sizeof(uint32_t)) +
         codec_internal::kWireChecksumBytes;
}

int64_t EcqSgdCodec::RangeAlignment(const Shape& /*shape*/) const {
  return codec_internal::BucketRangeAlignment(bucket_size_, bits_);
}

LPSGD_HOT_PATH
void EcqSgdCodec::EncodeRange(const float* grad, const Shape& shape,
                              uint64_t stochastic_tag,
                              std::vector<float>* error, int64_t begin,
                              int64_t end, CodecWorkspace* workspace,
                              uint8_t* blob) const {
  CHECK(!error_feedback_ || error != nullptr);
  if (error_feedback_) {
    CHECK_EQ(static_cast<int64_t>(error->size()), shape.element_count());
  }
  const int64_t buckets = NumChunks(shape);
  const CounterRng stream(seed_, stochastic_tag);

  const quant_simd::CodecKernels& kernels = quant_simd::ActiveCodecKernels();
  const ElementwiseKernels& elementwise = ActiveElementwiseKernels();

  float* scales = MutableFloatsAt(blob, 0);
  BitWriter writer(
      MutableWordsAt(blob, buckets * static_cast<int64_t>(sizeof(float))) +
          begin / BitPacker(bits_).values_per_word(),
      bits_);

  // QSGD stochastic rounding of a * s (unbiased, Equation 1) fused with
  // the residual refresh, via the runtime-dispatched kernel table.
  quant_simd::QuantizeArgs args;
  args.stream_seed = stream.stream_seed();
  args.bits = bits_;
  args.level_count = level_count_;
  args.writer = &writer;
  args.magnitudes = magnitudes_.data();
  for (int64_t b = begin / bucket_size_; b * bucket_size_ < end; ++b) {
    const int64_t bucket_begin = b * bucket_size_;
    const int64_t bucket_end = std::min(bucket_begin + bucket_size_, end);
    const int64_t len = bucket_end - bucket_begin;

    // v = grad + carried error, staged per bucket in workspace scratch;
    // the quantizer runs over v, and the fresh residual v - Q(v) replaces
    // the error buffer in the same loop. The kernel addresses v by
    // absolute element, so `corrected` points bucket_begin floats before
    // the staged bucket.
    float* staged = quant_internal::EnsureSize(&workspace->corrected,
                                               static_cast<size_t>(len));
    kernels.stage_corrected(
        grad + bucket_begin,
        error_feedback_ ? error->data() + bucket_begin : nullptr, staged,
        len);
    const float* corrected = staged - bucket_begin;
    args.values = corrected;

    const double scale = elementwise.max_abs_f32(staged, len);
    scales[b] = static_cast<float>(scale);
    if (scale == 0.0) {
      // All-zero bucket: zero fields, zero residual.
      for (int64_t i = bucket_begin; i < bucket_end; ++i) {
        writer.Put(0u);
        if (error_feedback_) (*error)[static_cast<size_t>(i)] = 0.0f;
      }
      continue;
    }

    args.begin = bucket_begin;
    args.end = bucket_end;
    args.scale = scale;
    args.error = error_feedback_ ? error->data() : nullptr;
    kernels.ecq_quantize(args);
  }
  writer.Finish();
}

LPSGD_HOT_PATH
Status EcqSgdCodec::DecodeRange(const uint8_t* blob, const Shape& shape,
                                int64_t begin, int64_t end,
                                CodecWorkspace* /*workspace*/,
                                float* out) const {
  const int64_t buckets = NumChunks(shape);
  const float* scales = FloatsAt(blob, 0);
  BitReader reader(
      WordsAt(blob, buckets * static_cast<int64_t>(sizeof(float))) +
          begin / BitPacker(bits_).values_per_word(),
      bits_);

  const quant_simd::CodecKernels& kernels = quant_simd::ActiveCodecKernels();
  quant_simd::DequantizeArgs args;
  args.reader = &reader;
  args.bits = bits_;
  args.magnitude_mask = (1u << (bits_ - 1)) - 1u;
  args.magnitudes = magnitudes_.data();
  args.out = out;
  for (int64_t b = begin / bucket_size_; b * bucket_size_ < end; ++b) {
    args.begin = b * bucket_size_;
    args.end = std::min(args.begin + bucket_size_, end);
    args.scale = scales[b];
    kernels.dequantize_sm(args);
  }
  return OkStatus();
}

CodecSpec EcqSgdSpec(int bits) {
  CodecSpec spec = QsgdSpec(bits);
  spec.kind = CodecKind::kEcqSgd;
  return spec;
}

namespace codec_internal {
// Force-link anchor referenced by registry.cc (see kCodecFamilyLinkAnchor).
int LinkEcqSgdCodecFamily() { return 0; }
}  // namespace codec_internal

namespace {

CodecFamily EcqSgdFamily() {
  CodecFamily family;
  family.kind = CodecKind::kEcqSgd;
  family.name = "ecq<bits>";
  family.help = "error-compensated QSGD, bits in [2,16], optional "
                ":<bucket> or bucket=";
  family.keys = {"bucket"};
  family.matches = [](const std::string& head) {
    return MatchesBitsHead(head, "ecq");
  };
  family.parse = [](const std::string& head,
                    CodecParams* params) -> StatusOr<CodecSpec> {
    LPSGD_ASSIGN_OR_RETURN(const int bits,
                           ParseBitsHead(head, "ecq", "ECQ-SGD"));
    CodecSpec spec = EcqSgdSpec(bits);
    LPSGD_RETURN_IF_ERROR(TakeBucketParam(params, &spec));
    return spec;
  };
  family.create = [](const CodecSpec& spec)
      -> StatusOr<std::unique_ptr<GradientCodec>> {
    if (spec.bits < 2 || spec.bits > 16) {
      return InvalidArgumentError(
          StrCat("ECQ-SGD bits must be in [2, 16], got ", spec.bits));
    }
    if (spec.bucket_size <= 0) {
      return InvalidArgumentError(StrCat(
          "ECQ-SGD bucket size must be positive, got ", spec.bucket_size));
    }
    return std::unique_ptr<GradientCodec>(new EcqSgdCodec(
        spec.bits, spec.bucket_size, spec.error_feedback, spec.seed));
  };
  family.label = [](const CodecSpec& spec) {
    return StrCat("ECQ-SGD ", spec.bits, "bit (b=", spec.bucket_size, ")");
  };
  family.short_label = [](const CodecSpec& spec) {
    return StrCat("EC", spec.bits);
  };
  return family;
}

const CodecRegistrar registrar(EcqSgdFamily());

}  // namespace
}  // namespace lpsgd
