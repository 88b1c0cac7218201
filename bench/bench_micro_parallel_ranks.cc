// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Micro-benchmark (google-benchmark) for the parallel rank-execution
// engine: end-to-end training throughput (samples/sec) of a 4-rank
// QSGD-4bit run at 1, 2, 4, and 8 host threads, plus the bare aggregator
// exchange at the same thread counts. Results are byte-identical across
// thread counts (a tested invariant); only the wall clock moves.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

#include <memory>
#include <vector>

#include "base/logging.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "comm/allreduce.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "machine/specs.h"
#include "nn/model_zoo.h"
#include "tensor/tensor.h"

namespace lpsgd {
namespace {

constexpr int kRanks = 4;
constexpr int64_t kTrainSamples = 256;

SyntheticImageDataset MakeImages(int64_t n, int64_t offset = 0) {
  SyntheticImageOptions options;
  options.num_classes = 10;
  options.channels = 1;
  options.height = 8;
  options.width = 8;
  options.num_samples = n;
  options.signal = 1.2f;
  options.noise = 0.8f;
  options.sample_offset = offset;
  return SyntheticImageDataset(options);
}

// One epoch of 4-rank QSGD-4bit MiniAlexNet training per iteration;
// state.range(0) is the host thread count.
void BM_TrainEpochParallelRanks(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const auto train = MakeImages(kTrainSamples);
  const auto test = MakeImages(16, 1 << 20);

  TrainerOptions options;
  options.num_gpus = kRanks;
  options.global_batch_size = 64;
  options.codec = QsgdSpec(4);
  options.seed = 42;
  options.execution = ExecutionContext::WithThreads(threads);
  auto trainer = SyncTrainer::Create(
      [](uint64_t seed) { return BuildMiniAlexNet(1, 8, 10, seed); },
      options);
  CHECK_OK(trainer.status());

  for (auto _ : state) {
    auto metrics = (*trainer)->Train(train, test, 1);
    CHECK_OK(metrics.status());
    benchmark::DoNotOptimize(metrics->back().train_loss);
  }
  state.SetItemsProcessed(state.iterations() * kTrainSamples);
}

// The bare gradient exchange at each thread count (no forward/backward):
// isolates the codec-kernel parallelism inside the MPI aggregator.
void BM_AllReduceParallelRanks(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  constexpr int64_t kElems = 1 << 16;

  auto agg = CreateAggregator(CommPrimitive::kMpi, kRanks, QsgdSpec(4),
                              Ec2P2_8xlarge(),
                              ExecutionContext::WithThreads(threads));
  CHECK_OK(agg.status());

  Rng rng(1);
  std::vector<Tensor> grads;
  std::vector<std::vector<float>> errors;
  MatrixSlot slot;
  slot.quant_shape = Shape({kElems});
  for (int r = 0; r < kRanks; ++r) {
    grads.emplace_back(Shape({kElems}));
    grads.back().FillGaussian(&rng, 1.0f);
    errors.emplace_back(static_cast<size_t>(kElems), 0.0f);
  }
  for (int r = 0; r < kRanks; ++r) {
    slot.rank_grads.push_back(grads[static_cast<size_t>(r)].data());
    slot.rank_errors.push_back(&errors[static_cast<size_t>(r)]);
  }
  std::vector<MatrixSlot> slots{std::move(slot)};

  int64_t iteration = 0;
  for (auto _ : state) {
    auto stats = (*agg)->AllReduce(&slots, iteration++);
    CHECK_OK(stats.status());
    benchmark::DoNotOptimize(grads[0].data());
  }
  state.SetItemsProcessed(state.iterations() * kElems * kRanks);
}

BENCHMARK(BM_TrainEpochParallelRanks)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AllReduceParallelRanks)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
}  // namespace lpsgd

// Expanded BENCHMARK_MAIN() with the BenchRun harness in front: it
// strips --metrics_out/--obs/--obs_out before benchmark::Initialize
// sees (and would reject) them.
int main(int argc, char** argv) {
  lpsgd::bench::BenchRun bench_run(&argc, argv,
                                   "bench_micro_parallel_ranks");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
