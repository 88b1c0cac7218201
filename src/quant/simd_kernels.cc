// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Scalar reference kernels and the ISA dispatch tables. The loop bodies
// here are the codec hot loops of qsgd.cc / terngrad.cc / one_bit_sgd.cc
// (via the shared per-element helpers in simd_kernels.h): they define the
// wire format, and every vector kernel is property-tested bit-identical
// against them.
#include "quant/simd_kernels.h"

namespace lpsgd {
namespace quant_simd {
namespace {

LPSGD_HOT_PATH
void ScalarQsgdQuantizeSm(const QuantizeArgs& args) {
  const double s = static_cast<double>(args.level_count);
  for (int64_t j = 0; j < args.end - args.begin; ++j) {
    const double u =
        StreamUniform(args.stream_seed, static_cast<uint64_t>(args.begin + j));
    args.writer->Put(QsgdFieldSm(args.values[j], args.scale, s,
                                 args.level_count, args.bits, u));
  }
}

LPSGD_HOT_PATH
void ScalarQsgdQuantizeSym(const QuantizeArgs& args) {
  const double s = static_cast<double>(args.level_count);
  for (int64_t j = 0; j < args.end - args.begin; ++j) {
    const double u =
        StreamUniform(args.stream_seed, static_cast<uint64_t>(args.begin + j));
    args.writer->Put(
        QsgdFieldSym(args.values[j], args.scale, s, args.level_count, u));
  }
}

LPSGD_HOT_PATH
void ScalarDequantizeSm(const DequantizeArgs& args) {
  for (int64_t j = 0; j < args.end - args.begin; ++j) {
    args.out[j] = DequantizeSm(args.reader->Next(), args.magnitudes,
                               args.scale, args.bits, args.magnitude_mask);
  }
}

LPSGD_HOT_PATH
void ScalarDequantizeSym(const DequantizeArgs& args) {
  const double two_scale = 2.0 * args.scale;
  for (int64_t j = 0; j < args.end - args.begin; ++j) {
    args.out[j] =
        DequantizeSym(args.reader->Next(), args.scale, two_scale, args.s);
  }
}

LPSGD_HOT_PATH
void ScalarNuqQuantize(const QuantizeArgs& args) {
  const int s_int = static_cast<int>(args.level_count);
  for (int64_t j = 0; j < args.end - args.begin; ++j) {
    const double u =
        StreamUniform(args.stream_seed, static_cast<uint64_t>(args.begin + j));
    args.writer->Put(NuqField(args.values[j], args.scale, args.magnitudes,
                              s_int, args.bits, u));
  }
}

LPSGD_HOT_PATH
void ScalarTernGradQuantize(const QuantizeArgs& args) {
  for (int64_t j = 0; j < args.end - args.begin; ++j) {
    const double u =
        StreamUniform(args.stream_seed, static_cast<uint64_t>(args.begin + j));
    args.writer->Put(
        TernGradField(args.values[j], args.scale, args.threshold, u));
  }
}

LPSGD_HOT_PATH
void ScalarTernGradDequantize(const DequantizeArgs& args) {
  const float scale = static_cast<float>(args.scale);
  for (int64_t j = 0; j < args.end - args.begin; ++j) {
    args.out[j] = TernGradValue(args.reader->Next(), scale);
  }
}

LPSGD_HOT_PATH
void ScalarOneBitQuantize(const float* grad, int64_t begin, int64_t end,
                          uint32_t* bits) {
  for (int64_t i = begin; i < end; ++i) OneBitStep(grad[i - begin], i, bits);
}

LPSGD_HOT_PATH
void ScalarOneBitDequantize(const uint32_t* bits, int64_t begin, int64_t end,
                            float avg_pos, float avg_neg, float* out) {
  for (int64_t i = begin; i < end; ++i) {
    out[i - begin] = OneBitValue(bits, i, avg_pos, avg_neg);
  }
}

}  // namespace

const CodecKernels& CodecKernelsForIsa(SimdIsa isa) {
  static const CodecKernels scalar = {
      ScalarQsgdQuantizeSm,     ScalarQsgdQuantizeSym,
      ScalarDequantizeSm,       ScalarDequantizeSym,
      ScalarNuqQuantize,
      ScalarTernGradQuantize,   ScalarTernGradDequantize,
      ScalarOneBitQuantize,     ScalarOneBitDequantize,
  };
#if defined(__x86_64__)
  static const CodecKernels avx2_table = {
      avx2::QsgdQuantizeSm,     avx2::QsgdQuantizeSym,
      avx2::DequantizeSm,       avx2::DequantizeSym,
      avx2::NuqQuantize,
      avx2::TernGradQuantize,   avx2::TernGradDequantize,
      avx2::OneBitQuantize,     avx2::OneBitDequantize,
  };
  if (isa == SimdIsa::kAvx2 && SimdIsaSupported(SimdIsa::kAvx2)) {
    return avx2_table;
  }
#endif
  (void)isa;
  return scalar;
}

}  // namespace quant_simd
}  // namespace lpsgd
