// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Micro-benchmarks (google-benchmark) for the gradient aggregation
// engines: wall-clock cost of one AllReduce on the host (real data
// movement between simulated ranks), by codec, engine, and rank count.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

#include <memory>
#include <vector>

#include "base/logging.h"
#include "base/rng.h"
#include "comm/mpi_reduce_bcast.h"
#include "comm/nccl_ring.h"
#include "machine/specs.h"
#include "tensor/tensor.h"

namespace lpsgd {
namespace {

struct Fixture {
  std::vector<Tensor> grads;
  std::vector<std::vector<float>> errors;
  std::vector<MatrixSlot> slots;

  Fixture(int ranks, int64_t n) {
    Rng rng(1);
    MatrixSlot slot;
    slot.quant_shape = Shape({n});
    for (int r = 0; r < ranks; ++r) {
      grads.emplace_back(Shape({n}));
      grads.back().FillGaussian(&rng, 1.0f);
      errors.emplace_back(static_cast<size_t>(n), 0.0f);
    }
    for (int r = 0; r < ranks; ++r) {
      slot.rank_grads.push_back(grads[static_cast<size_t>(r)].data());
      slot.rank_errors.push_back(&errors[static_cast<size_t>(r)]);
    }
    slots.push_back(std::move(slot));
  }
};

void RunMpi(benchmark::State& state, const CodecSpec& spec) {
  const int ranks = static_cast<int>(state.range(0));
  const int64_t n = state.range(1);
  auto agg = CreateAggregator(CommPrimitive::kMpi, ranks, spec,
                              Ec2P2_16xlarge(), ExecutionContext::Serial());
  CHECK_OK(agg.status());
  Fixture fixture(ranks, n);
  int64_t iteration = 0;
  for (auto _ : state) {
    auto stats = (*agg)->AllReduce(&fixture.slots, iteration++);
    CHECK_OK(stats.status());
    benchmark::DoNotOptimize(fixture.grads[0].data());
  }
  state.SetItemsProcessed(state.iterations() * n * ranks);
}

void RunNccl(benchmark::State& state, const CodecSpec& spec) {
  const int ranks = static_cast<int>(state.range(0));
  const int64_t n = state.range(1);
  auto agg = CreateAggregator(CommPrimitive::kNccl, ranks, spec,
                              Ec2P2_8xlarge(), ExecutionContext::Serial());
  CHECK_OK(agg.status());
  Fixture fixture(ranks, n);
  int64_t iteration = 0;
  for (auto _ : state) {
    auto stats = (*agg)->AllReduce(&fixture.slots, iteration++);
    CHECK_OK(stats.status());
    benchmark::DoNotOptimize(fixture.grads[0].data());
  }
  state.SetItemsProcessed(state.iterations() * n * ranks);
}

void BM_MpiFullPrecision(benchmark::State& state) {
  RunMpi(state, FullPrecisionSpec());
}
void BM_MpiQsgd4(benchmark::State& state) { RunMpi(state, QsgdSpec(4)); }
void BM_MpiOneBitReshaped(benchmark::State& state) {
  RunMpi(state, OneBitSgdReshapedSpec(64));
}
void BM_NcclFullPrecision(benchmark::State& state) {
  RunNccl(state, FullPrecisionSpec());
}
void BM_NcclSimulatedQsgd4(benchmark::State& state) {
  RunNccl(state, QsgdSpec(4));
}

constexpr int64_t kElems = 1 << 16;

BENCHMARK(BM_MpiFullPrecision)
    ->Args({2, kElems})
    ->Args({4, kElems})
    ->Args({8, kElems})
    ->Args({16, kElems});
BENCHMARK(BM_MpiQsgd4)
    ->Args({2, kElems})
    ->Args({4, kElems})
    ->Args({8, kElems})
    ->Args({16, kElems});
BENCHMARK(BM_MpiOneBitReshaped)->Args({4, kElems})->Args({8, kElems});
BENCHMARK(BM_NcclFullPrecision)
    ->Args({2, kElems})
    ->Args({4, kElems})
    ->Args({8, kElems});
BENCHMARK(BM_NcclSimulatedQsgd4)->Args({4, kElems})->Args({8, kElems});

}  // namespace
}  // namespace lpsgd

// Expanded BENCHMARK_MAIN() with the BenchRun harness in front: it
// strips --metrics_out/--obs/--obs_out before benchmark::Initialize
// sees (and would reject) them.
int main(int argc, char** argv) {
  lpsgd::bench::BenchRun bench_run(&argc, argv, "bench_micro_allreduce");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
