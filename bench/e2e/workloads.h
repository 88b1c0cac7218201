// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// The four training workloads of the end-to-end benchmark (README.md in
// this directory says why each one was chosen). A workload fixes the
// model, the synthetic data, the trainer configuration, and the Gemm
// shapes of its two heaviest layers; the benchmark seed picks the data,
// the initial weights, and the fault positions.
#ifndef LPSGD_BENCH_E2E_WORKLOADS_H_
#define LPSGD_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "data/dataset.h"
#include "nn/network.h"

namespace lpsgd {
namespace e2e {

// Every workload runs its K ranks on a pool of this many threads. At 4
// threads on a shared 4-core host repeat runs spread 11-37% in samples/s;
// at 2 they spread 3-7%.
inline constexpr int kThreads = 2;

// One Gemm call as the layers issue it: op(A) is m x k, op(B) is k x n.
struct GemmCall {
  bool transpose_a = false;
  bool transpose_b = false;
  int64_t m = 0;
  int64_t k = 0;
  int64_t n = 0;
};

// The forward, weight-gradient, and input-gradient Gemm of one layer.
struct GemmShape {
  std::string name;
  GemmCall fwd;
  GemmCall dw;
  GemmCall dx;
};

struct DataPair {
  std::unique_ptr<Dataset> train;
  std::unique_ptr<Dataset> test;
};

struct Workload {
  std::string name;
  // Timed epochs when the run length is given in epochs, and the epoch
  // count golden.json records for seed 1.
  int epochs = 1;
  // Lowest final test accuracy a correct run reaches on any seed.
  double min_test_accuracy = 0.0;
  // Gemm shapes of the two layers with the most multiply-adds, heaviest
  // first.
  std::vector<GemmShape> gemms;

  // `samples_scale` < 1 shrinks both splits (the smoke test's short
  // epochs); the global batch stays a divisor of the training split.
  DataPair (*make_data)(uint64_t seed, double samples_scale) = nullptr;
  Network (*build)(uint64_t seed) = nullptr;
  // Trainer options minus the execution context and, when save_every is
  // set, the durable checkpoint directory and storage: the benchmark fills
  // those in per trainer.
  TrainerOptions (*options)(uint64_t seed) = nullptr;
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

}  // namespace e2e
}  // namespace lpsgd

#endif  // LPSGD_BENCH_E2E_WORKLOADS_H_
