// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "quant/nuqsgd.h"

#include <algorithm>
#include <cmath>

#include "base/bit_packing.h"
#include "base/logging.h"
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

NuqsgdCodec::NuqsgdCodec(int bits, int64_t bucket_size, uint64_t seed)
    : GradientCodec("nuqsgd"),
      bits_(bits),
      bucket_size_(bucket_size),
      seed_(seed) {
  CHECK_GE(bits, 2);
  CHECK_LE(bits, 16);
  CHECK_GT(bucket_size, 0);
  level_count_ = (1u << (bits_ - 1)) - 1u;
  CHECK_GE(level_count_, 1u);
  levels_.resize(static_cast<size_t>(level_count_) + 1);
  levels_[0] = 0.0;
  for (uint32_t j = 1; j <= level_count_; ++j) {
    levels_[j] = std::ldexp(1.0, static_cast<int>(j) -
                                     static_cast<int>(level_count_));
  }
}

std::string NuqsgdCodec::Name() const {
  return StrCat("NUQSGD ", bits_, "bit (b=", bucket_size_, ")");
}

int64_t NuqsgdCodec::NumChunks(const Shape& shape) const {
  const int64_t n = shape.element_count();
  return (n + bucket_size_ - 1) / bucket_size_;
}

int64_t NuqsgdCodec::EncodedSizeBytes(const Shape& shape) const {
  const int64_t n = shape.element_count();
  const BitPacker packer(bits_);
  return NumChunks(shape) * static_cast<int64_t>(sizeof(float)) +
         packer.WordCount(n) * static_cast<int64_t>(sizeof(uint32_t)) +
         codec_internal::kWireChecksumBytes;
}

int64_t NuqsgdCodec::RangeAlignment(const Shape& /*shape*/) const {
  return codec_internal::BucketRangeAlignment(bucket_size_, bits_);
}

LPSGD_HOT_PATH
void NuqsgdCodec::EncodeRange(const float* grad, const Shape& shape,
                              uint64_t stochastic_tag,
                              std::vector<float>* /*error*/, int64_t begin,
                              int64_t end, CodecWorkspace* /*workspace*/,
                              uint8_t* blob) const {
  const int64_t buckets = NumChunks(shape);
  const CounterRng stream(seed_, stochastic_tag);

  float* scales = MutableFloatsAt(blob, 0);
  BitWriter writer(
      MutableWordsAt(blob, buckets * static_cast<int64_t>(sizeof(float))) +
          begin / BitPacker(bits_).values_per_word(),
      bits_);

  // The exponential-grid bracket search and stochastic rounding (unbiased:
  // E[Q(a)] = a) run through the runtime-dispatched kernel table.
  const quant_simd::CodecKernels& kernels = quant_simd::ActiveCodecKernels();
  quant_simd::QuantizeArgs args;
  args.values = grad;
  args.stream_seed = stream.stream_seed();
  args.bits = bits_;
  args.level_count = level_count_;
  args.writer = &writer;
  args.magnitudes = levels_.data();
  for (int64_t b = begin / bucket_size_; b * bucket_size_ < end; ++b) {
    const int64_t bucket_begin = b * bucket_size_;
    const int64_t bucket_end = std::min(bucket_begin + bucket_size_, end);

    // Sequential widened L2 sum: order-sensitive, stays scalar in every
    // dispatch mode so the wire scale is ISA-independent.
    double scale = 0.0;
    for (int64_t i = bucket_begin; i < bucket_end; ++i) {
      scale += static_cast<double>(grad[i]) * grad[i];
    }
    scale = std::sqrt(scale);
    scales[b] = static_cast<float>(scale);
    if (scale == 0.0) {
      // Zero fields decode to exact zeros; keep the stream position.
      for (int64_t i = bucket_begin; i < bucket_end; ++i) writer.Put(0u);
      continue;
    }

    args.begin = bucket_begin;
    args.end = bucket_end;
    args.scale = scale;
    kernels.nuq_quantize(args);
  }
  writer.Finish();
}

LPSGD_HOT_PATH
Status NuqsgdCodec::DecodeRange(const uint8_t* blob, const Shape& shape,
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
  args.magnitudes = levels_.data();
  args.out = out;
  for (int64_t b = begin / bucket_size_; b * bucket_size_ < end; ++b) {
    args.begin = b * bucket_size_;
    args.end = std::min(args.begin + bucket_size_, end);
    args.scale = scales[b];
    kernels.dequantize_sm(args);
  }
  return OkStatus();
}

CodecSpec NuqsgdSpec(int bits) {
  CodecSpec spec = QsgdSpec(bits);
  spec.kind = CodecKind::kNuqsgd;
  spec.norm = QsgdNorm::kL2;  // the norm the NUQSGD analysis assumes
  return spec;
}

namespace codec_internal {
// Force-link anchor referenced by registry.cc (see kCodecFamilyLinkAnchor).
int LinkNuqsgdCodecFamily() { return 0; }
}  // namespace codec_internal

namespace {

CodecFamily NuqsgdFamily() {
  CodecFamily family;
  family.kind = CodecKind::kNuqsgd;
  family.name = "nuq<bits>";
  family.help = "nonuniform (exponential-level) QSGD, bits in [2,16], "
                "optional :<bucket> or bucket=";
  family.keys = {"bucket"};
  family.matches = [](const std::string& head) {
    return MatchesBitsHead(head, "nuq");
  };
  family.parse = [](const std::string& head,
                    CodecParams* params) -> StatusOr<CodecSpec> {
    LPSGD_ASSIGN_OR_RETURN(const int bits,
                           ParseBitsHead(head, "nuq", "NUQSGD"));
    CodecSpec spec = NuqsgdSpec(bits);
    LPSGD_RETURN_IF_ERROR(TakeBucketParam(params, &spec));
    return spec;
  };
  family.create = [](const CodecSpec& spec)
      -> StatusOr<std::unique_ptr<GradientCodec>> {
    if (spec.bits < 2 || spec.bits > 16) {
      return InvalidArgumentError(
          StrCat("NUQSGD bits must be in [2, 16], got ", spec.bits));
    }
    if (spec.bucket_size <= 0) {
      return InvalidArgumentError(StrCat(
          "NUQSGD bucket size must be positive, got ", spec.bucket_size));
    }
    return std::unique_ptr<GradientCodec>(
        new NuqsgdCodec(spec.bits, spec.bucket_size, spec.seed));
  };
  family.label = [](const CodecSpec& spec) {
    return StrCat("NUQSGD ", spec.bits, "bit (b=", spec.bucket_size, ")");
  };
  family.short_label = [](const CodecSpec& spec) {
    return StrCat("NQ", spec.bits);
  };
  return family;
}

const CodecRegistrar registrar(NuqsgdFamily());

}  // namespace
}  // namespace lpsgd
