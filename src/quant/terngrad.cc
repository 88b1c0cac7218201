// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "quant/terngrad.h"

#include <algorithm>
#include <cmath>
#include <limits>

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

constexpr int kFieldBits = 2;  // 1 sign bit + 1 magnitude bit

}  // namespace

TernGradCodec::TernGradCodec(int64_t bucket_size, double clip, uint64_t seed)
    : GradientCodec("terngrad"),
      bucket_size_(bucket_size > 0 ? bucket_size : 0),
      clip_(clip > 0.0 ? clip : 0.0),
      seed_(seed) {}

std::string TernGradCodec::Name() const {
  std::string name =
      bucket_size_ > 0 ? StrCat("TernGrad (b=", bucket_size_, ")")
                       : std::string("TernGrad");
  if (clip_ > 0.0) {
    name = StrCat(name, " clip=", FormatDouble(clip_, 1));
  }
  return name;
}

int64_t TernGradCodec::ChunkLength(int64_t n) const {
  return bucket_size_ > 0 ? bucket_size_ : n;
}

int64_t TernGradCodec::NumChunks(const Shape& shape) const {
  const int64_t n = shape.element_count();
  const int64_t len = ChunkLength(n);
  return (n + len - 1) / len;
}

int64_t TernGradCodec::EncodedSizeBytes(const Shape& shape) const {
  const int64_t n = shape.element_count();
  const BitPacker packer(kFieldBits);
  return NumChunks(shape) * static_cast<int64_t>(sizeof(float)) +
         packer.WordCount(n) * static_cast<int64_t>(sizeof(uint32_t)) +
         codec_internal::kWireChecksumBytes;
}

int64_t TernGradCodec::RangeAlignment(const Shape& /*shape*/) const {
  // Layer-wise scaling needs the whole matrix's max before any field.
  return bucket_size_ > 0
             ? codec_internal::BucketRangeAlignment(bucket_size_, kFieldBits)
             : 0;
}

LPSGD_HOT_PATH
void TernGradCodec::QuantizeRange(const float* grad, const Shape& shape,
                                  uint64_t stochastic_tag, int64_t begin,
                                  int64_t end, CodecWorkspace* /*workspace*/,
                                  uint8_t* blob) const {
  const int64_t n = shape.element_count();
  const int64_t chunks = NumChunks(shape);
  const int64_t len = ChunkLength(n);
  if (bucket_size_ == 0) {
    CHECK_EQ(begin, 0);
    CHECK_EQ(end, n);
  }
  const CounterRng stream(seed_, stochastic_tag);

  float* scales = MutableFloatsAt(blob, 0);
  BitWriter writer(
      MutableWordsAt(blob, chunks * static_cast<int64_t>(sizeof(float))) +
          begin / BitPacker(kFieldBits).values_per_word(),
      kFieldBits);

  // The ternarize draw — P(|q| = scale) = min(|g|, threshold) / scale,
  // unbiased over the clipped gradient — runs through the runtime-
  // dispatched kernel table.
  const quant_simd::CodecKernels& kernels = quant_simd::ActiveCodecKernels();
  const ElementwiseKernels& elementwise = ActiveElementwiseKernels();
  quant_simd::QuantizeArgs args;
  args.stream_seed = stream.stream_seed();
  args.bits = kFieldBits;
  args.writer = &writer;
  for (int64_t b = begin / len; b * len < end; ++b) {
    const int64_t chunk_begin = b * len;
    const int64_t chunk_end = std::min(chunk_begin + len, end);
    const float* values = grad + (chunk_begin - begin);

    double max_abs = 0.0;
    double threshold = std::numeric_limits<double>::infinity();
    if (clip_ > 0.0) {
      // One pass gathers both the max magnitude (the scalar) and the sum
      // of squares (for the clipping threshold clip * RMS). The fused sum
      // is order-sensitive, so this path stays scalar in every dispatch
      // mode.
      double sum_sq = 0.0;
      for (int64_t i = 0; i < chunk_end - chunk_begin; ++i) {
        const double g = values[i];
        max_abs = std::max(max_abs, std::abs(g));
        sum_sq += g * g;
      }
      const double count = static_cast<double>(chunk_end - chunk_begin);
      threshold = clip_ * std::sqrt(sum_sq / count);
    } else {
      max_abs = elementwise.max_abs_f32(values, chunk_end - chunk_begin);
    }
    const double scale = std::min(max_abs, threshold);
    scales[b] = static_cast<float>(scale);
    if (scale == 0.0) {
      // Zero fields decode to exact zeros; keep the stream position.
      for (int64_t i = chunk_begin; i < chunk_end; ++i) writer.Put(0u);
      continue;
    }

    args.values = values;
    args.begin = chunk_begin;
    args.end = chunk_end;
    args.scale = scale;
    args.threshold = threshold;
    kernels.terngrad_quantize(args);
  }
  writer.Finish();
}

LPSGD_HOT_PATH
Status TernGradCodec::DecodeRange(const uint8_t* blob, const Shape& shape,
                                  int64_t begin, int64_t end,
                                  CodecWorkspace* /*workspace*/,
                                  float* out) const {
  const int64_t n = shape.element_count();
  const int64_t chunks = NumChunks(shape);
  const int64_t len = ChunkLength(n);
  const float* scales = FloatsAt(blob, 0);
  BitReader reader(
      WordsAt(blob, chunks * static_cast<int64_t>(sizeof(float))) +
          begin / BitPacker(kFieldBits).values_per_word(),
      kFieldBits);

  const quant_simd::CodecKernels& kernels = quant_simd::ActiveCodecKernels();
  quant_simd::DequantizeArgs args;
  args.reader = &reader;
  args.bits = kFieldBits;
  for (int64_t b = begin / len; b * len < end; ++b) {
    args.begin = b * len;
    args.end = std::min(args.begin + len, end);
    args.out = out + (args.begin - begin);
    args.scale = scales[b];
    kernels.terngrad_dequantize(args);
  }
  return OkStatus();
}

CodecSpec TernGradSpec(int64_t bucket_size, double clip) {
  CodecSpec spec;
  spec.kind = CodecKind::kTernGrad;
  spec.bits = 2;
  spec.bucket_size = bucket_size;
  spec.clip = clip;
  return spec;
}

namespace codec_internal {
// Force-link anchor referenced by registry.cc (see kCodecFamilyLinkAnchor).
int LinkTernGradCodecFamily() { return 0; }
}  // namespace codec_internal

namespace {

CodecFamily TernGradFamily() {
  CodecFamily family;
  family.kind = CodecKind::kTernGrad;
  family.name = "terngrad";
  family.help = "ternary {-s,0,+s} with per-matrix scalar (alias: tern); "
                "optional bucket= and clip= (multiple of chunk RMS)";
  family.keys = {"bucket", "clip"};
  family.matches = [](const std::string& head) {
    return head == "terngrad" || head == "tern";
  };
  family.parse = [](const std::string& /*head*/,
                    CodecParams* params) -> StatusOr<CodecSpec> {
    CodecSpec spec = TernGradSpec();
    LPSGD_RETURN_IF_ERROR(TakeBucketParam(params, &spec));
    if (const std::string* clip = params->Take("clip")) {
      LPSGD_ASSIGN_OR_RETURN(spec.clip,
                             ParseDoubleParam(*clip, "TernGrad clip"));
      if (spec.clip <= 0.0) {
        return InvalidArgumentError(StrCat("bad TernGrad clip: ", *clip));
      }
    }
    return spec;
  };
  family.create = [](const CodecSpec& spec)
      -> StatusOr<std::unique_ptr<GradientCodec>> {
    if (spec.bucket_size < 0) {
      return InvalidArgumentError(StrCat(
          "TernGrad bucket size must be >= 0, got ", spec.bucket_size));
    }
    if (!(spec.clip >= 0.0)) {
      return InvalidArgumentError(
          StrCat("TernGrad clip must be >= 0, got ", spec.clip));
    }
    return std::unique_ptr<GradientCodec>(
        new TernGradCodec(spec.bucket_size, spec.clip, spec.seed));
  };
  family.label = [](const CodecSpec& spec) {
    std::string label = spec.bucket_size > 0
                            ? StrCat("TernGrad (b=", spec.bucket_size, ")")
                            : std::string("TernGrad");
    if (spec.clip > 0.0) {
      label = StrCat(label, " clip=", FormatDouble(spec.clip, 1));
    }
    return label;
  };
  family.short_label = [](const CodecSpec& /*spec*/) {
    return std::string("T");
  };
  return family;
}

const CodecRegistrar registrar(TernGradFamily());

}  // namespace
}  // namespace lpsgd
