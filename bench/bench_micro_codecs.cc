// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Micro-benchmarks (google-benchmark) for the gradient codecs: host-side
// encode and decode throughput per codec and gradient size. These measure
// the actual C++ implementation (the simulator charges GPU-kernel virtual
// time separately through the cost model).
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

#include <vector>

#include "base/logging.h"
#include "base/rng.h"
#include "base/simd/simd.h"
#include "quant/codec.h"
#include "quant/workspace.h"
#include "tensor/tensor.h"

namespace lpsgd {
namespace {

Tensor MakeGradient(int64_t n) {
  Tensor grad(Shape({n}));
  Rng rng(42);
  grad.FillGaussian(&rng, 1.0f);
  return grad;
}

void RunEncode(benchmark::State& state, const CodecSpec& spec,
               bool column_matrix = false) {
  const int64_t n = state.range(0);
  auto codec = spec.Create();
  CHECK_OK(codec.status());
  // Column-matrix mode mimics a conv tensor: 3 rows, n/3 columns.
  Tensor grad = MakeGradient(n);
  const Shape shape = column_matrix ? Shape({3, n / 3}) : Shape({n});
  std::vector<float> error(
      (*codec)->UsesErrorFeedback() ? static_cast<size_t>(n) : 0, 0.0f);
  std::vector<float>* error_ptr =
      (*codec)->UsesErrorFeedback() ? &error : nullptr;

  // Steady-state measurement: one reused workspace, like the aggregators'
  // per-slot workspaces — the loop body never allocates.
  CodecWorkspace workspace;
  std::vector<uint8_t> blob;
  uint64_t tag = 0;
  for (auto _ : state) {
    (*codec)->Encode(grad.data(), shape, tag++, error_ptr, &workspace,
                     &blob);
    benchmark::DoNotOptimize(blob.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["bytes_per_elem"] =
      static_cast<double>((*codec)->EncodedSizeBytes(shape)) /
      static_cast<double>(n);
}

void RunDecode(benchmark::State& state, const CodecSpec& spec) {
  CodecWorkspace workspace;
  const int64_t n = state.range(0);
  auto codec = spec.Create();
  CHECK_OK(codec.status());
  Tensor grad = MakeGradient(n);
  const Shape shape({n});
  std::vector<float> error(
      (*codec)->UsesErrorFeedback() ? static_cast<size_t>(n) : 0, 0.0f);
  std::vector<uint8_t> blob;
  (*codec)->Encode(grad.data(), shape, 0,
                   (*codec)->UsesErrorFeedback() ? &error : nullptr,
                   &workspace, &blob);
  std::vector<float> decoded(static_cast<size_t>(n));
  for (auto _ : state) {
    CHECK_OK((*codec)->Decode(blob.data(), static_cast<int64_t>(blob.size()), shape,
                     &workspace, decoded.data()));
    benchmark::DoNotOptimize(decoded.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_EncodeFullPrecision(benchmark::State& state) {
  RunEncode(state, FullPrecisionSpec());
}
void BM_EncodeQsgd2(benchmark::State& state) {
  RunEncode(state, QsgdSpec(2));
}
void BM_EncodeQsgd4(benchmark::State& state) {
  RunEncode(state, QsgdSpec(4));
}
void BM_EncodeQsgd8(benchmark::State& state) {
  RunEncode(state, QsgdSpec(8));
}
void BM_EncodeQsgd16(benchmark::State& state) {
  RunEncode(state, QsgdSpec(16));
}
void BM_EncodeOneBitReshaped(benchmark::State& state) {
  RunEncode(state, OneBitSgdReshapedSpec(64));
}
// Stock CNTK 1bitSGD on a conv-shaped tensor (3-row columns): the
// pathological per-column case of Section 3.2.
void BM_EncodeOneBitColumnConvShape(benchmark::State& state) {
  RunEncode(state, OneBitSgdSpec(), /*column_matrix=*/true);
}

void BM_EncodeTernGrad(benchmark::State& state) {
  RunEncode(state, TernGradSpec());
}
void BM_EncodeNuq4(benchmark::State& state) {
  RunEncode(state, NuqsgdSpec(4));
}
void BM_EncodeEcq4(benchmark::State& state) {
  RunEncode(state, EcqSgdSpec(4));
}
// Top-K at the paper's 1% density: the magnitude selection and the
// index-run packing dominate.
void BM_EncodeTopK1pct(benchmark::State& state) {
  RunEncode(state, TopKSpec(0.01));
}
// Top-K at lstm_sparse_nccl's 25% density on its 16384-element Wh shape:
// the keep/drop decision is least predictable and k packed indices and
// values are written per call.
void BM_EncodeTopK25pct(benchmark::State& state) {
  RunEncode(state, TopKSpec(0.25));
}

void BM_DecodeFullPrecision(benchmark::State& state) {
  RunDecode(state, FullPrecisionSpec());
}
void BM_DecodeQsgd2(benchmark::State& state) {
  RunDecode(state, QsgdSpec(2));
}
void BM_DecodeQsgd4(benchmark::State& state) {
  RunDecode(state, QsgdSpec(4));
}
void BM_DecodeQsgd8(benchmark::State& state) {
  RunDecode(state, QsgdSpec(8));
}
void BM_DecodeQsgd16(benchmark::State& state) {
  RunDecode(state, QsgdSpec(16));
}
void BM_DecodeEcq4(benchmark::State& state) {
  RunDecode(state, EcqSgdSpec(4));
}
void BM_DecodeOneBitReshaped(benchmark::State& state) {
  RunDecode(state, OneBitSgdReshapedSpec(64));
}
void BM_DecodeTernGrad(benchmark::State& state) {
  RunDecode(state, TernGradSpec());
}
void BM_DecodeNuq4(benchmark::State& state) {
  RunDecode(state, NuqsgdSpec(4));
}
// Sparse decode is a scatter into a zero-filled dense buffer — measures
// the memset + index-run unpack cost the aggregators pay per rank.
void BM_DecodeTopK1pct(benchmark::State& state) {
  RunDecode(state, TopKSpec(0.01));
}

// Scalar-forced twins: dispatch pinned to the golden reference kernels
// for the duration of the benchmark. Speedup of the vectorized path =
// SIMD bench / scalar twin, both in the committed baseline.
void BM_EncodeQsgd4Scalar(benchmark::State& state) {
  ScopedSimdIsa force_scalar(SimdIsa::kScalar);
  RunEncode(state, QsgdSpec(4));
}
void BM_EncodeTernGradScalar(benchmark::State& state) {
  ScopedSimdIsa force_scalar(SimdIsa::kScalar);
  RunEncode(state, TernGradSpec());
}
void BM_EncodeNuq4Scalar(benchmark::State& state) {
  ScopedSimdIsa force_scalar(SimdIsa::kScalar);
  RunEncode(state, NuqsgdSpec(4));
}
void BM_EncodeEcq4Scalar(benchmark::State& state) {
  ScopedSimdIsa force_scalar(SimdIsa::kScalar);
  RunEncode(state, EcqSgdSpec(4));
}
void BM_EncodeOneBitReshapedScalar(benchmark::State& state) {
  ScopedSimdIsa force_scalar(SimdIsa::kScalar);
  RunEncode(state, OneBitSgdReshapedSpec(64));
}
void BM_DecodeQsgd4Scalar(benchmark::State& state) {
  ScopedSimdIsa force_scalar(SimdIsa::kScalar);
  RunDecode(state, QsgdSpec(4));
}
void BM_DecodeTernGradScalar(benchmark::State& state) {
  ScopedSimdIsa force_scalar(SimdIsa::kScalar);
  RunDecode(state, TernGradSpec());
}
void BM_DecodeOneBitReshapedScalar(benchmark::State& state) {
  ScopedSimdIsa force_scalar(SimdIsa::kScalar);
  RunDecode(state, OneBitSgdReshapedSpec(64));
}

constexpr int64_t kSmall = 3 << 10;
constexpr int64_t kLarge = 3 << 18;  // ~786k elements
constexpr int64_t kLstmWh = 1 << 14;

BENCHMARK(BM_EncodeFullPrecision)->Arg(kSmall)->Arg(kLarge);
BENCHMARK(BM_EncodeQsgd2)->Arg(kSmall)->Arg(kLarge);
BENCHMARK(BM_EncodeQsgd4)->Arg(kSmall)->Arg(kLarge);
BENCHMARK(BM_EncodeQsgd8)->Arg(kSmall)->Arg(kLarge);
BENCHMARK(BM_EncodeQsgd16)->Arg(kSmall)->Arg(kLarge);
BENCHMARK(BM_EncodeOneBitReshaped)->Arg(kSmall)->Arg(kLarge);
BENCHMARK(BM_EncodeOneBitColumnConvShape)->Arg(kSmall)->Arg(kLarge);
BENCHMARK(BM_EncodeTernGrad)->Arg(kSmall)->Arg(kLarge);
BENCHMARK(BM_EncodeNuq4)->Arg(kSmall)->Arg(kLarge);
BENCHMARK(BM_EncodeEcq4)->Arg(kSmall)->Arg(kLarge);
BENCHMARK(BM_EncodeTopK1pct)->Arg(kSmall)->Arg(kLarge);
BENCHMARK(BM_EncodeTopK25pct)->Arg(kLstmWh);
BENCHMARK(BM_DecodeFullPrecision)->Arg(kSmall)->Arg(kLarge);
BENCHMARK(BM_DecodeQsgd2)->Arg(kSmall)->Arg(kLarge);
BENCHMARK(BM_DecodeQsgd4)->Arg(kSmall)->Arg(kLarge);
BENCHMARK(BM_DecodeQsgd8)->Arg(kSmall)->Arg(kLarge);
BENCHMARK(BM_DecodeQsgd16)->Arg(kSmall)->Arg(kLarge);
BENCHMARK(BM_DecodeEcq4)->Arg(kSmall)->Arg(kLarge);
BENCHMARK(BM_DecodeOneBitReshaped)->Arg(kSmall)->Arg(kLarge);
BENCHMARK(BM_DecodeTernGrad)->Arg(kSmall)->Arg(kLarge);
BENCHMARK(BM_DecodeNuq4)->Arg(kSmall)->Arg(kLarge);
BENCHMARK(BM_DecodeTopK1pct)->Arg(kSmall)->Arg(kLarge);
BENCHMARK(BM_EncodeQsgd4Scalar)->Arg(kSmall)->Arg(kLarge);
BENCHMARK(BM_EncodeTernGradScalar)->Arg(kSmall)->Arg(kLarge);
BENCHMARK(BM_EncodeNuq4Scalar)->Arg(kSmall)->Arg(kLarge);
BENCHMARK(BM_EncodeEcq4Scalar)->Arg(kSmall)->Arg(kLarge);
BENCHMARK(BM_EncodeOneBitReshapedScalar)->Arg(kSmall)->Arg(kLarge);
BENCHMARK(BM_DecodeQsgd4Scalar)->Arg(kSmall)->Arg(kLarge);
BENCHMARK(BM_DecodeTernGradScalar)->Arg(kSmall)->Arg(kLarge);
BENCHMARK(BM_DecodeOneBitReshapedScalar)->Arg(kSmall)->Arg(kLarge);

}  // namespace
}  // namespace lpsgd

// Expanded BENCHMARK_MAIN() with the BenchRun harness in front: it
// strips --metrics_out/--obs/--obs_out before benchmark::Initialize
// sees (and would reject) them.
int main(int argc, char** argv) {
  lpsgd::bench::BenchRun bench_run(&argc, argv, "bench_micro_codecs");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
