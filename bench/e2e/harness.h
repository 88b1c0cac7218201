// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Direct-call measurements the traced run adds after training: the
// exchange path replayed on fresh replicas, the Gemm shapes of the
// heaviest layers, and durable checkpoint saves. Each times public entry
// points (GradientCodec, CreateAggregator(...)->AllReduce,
// SgdMomentumOptimizer::Step, Gemm, CheckpointManager::Save) with the
// workload's own configuration.
#ifndef LPSGD_BENCH_E2E_HARNESS_H_
#define LPSGD_BENCH_E2E_HARNESS_H_

#include <string>
#include <vector>

#include "base/statusor.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "probes.h"
#include "workloads.h"

namespace lpsgd {
namespace e2e {

// Per-step means over the replayed steps. Encode/decode cover every
// rank's gradient for every matrix the engine runs the codec on, each
// blob decoded once.
struct ExchangeCosts {
  double encode_ms = 0.0;
  double decode_ms = 0.0;
  double encode_melem_s = 0.0;
  double decode_melem_s = 0.0;
  double bytes_per_elem = 0.0;
  double allreduce_ms = 0.0;
  double virtual_ms = 0.0;  // cost-model time of the AllReduce
  double messages = 0.0;
  double optimizer_ms = 0.0;  // 1/K scaling + K optimizer steps
};

// Replays `steps` steps of the workload's exchange on K fresh replicas
// copied from `source`, with real per-rank gradients from `train`, on
// `options.execution`'s pool (pass a trainer's resolved options). Fails
// when an exchange fails or leaves the ranks' reduced gradients
// different or non-finite.
[[nodiscard]] StatusOr<ExchangeCosts> MeasureExchange(
    const Workload& workload, const TrainerOptions& options, Network& source,
    const Dataset& train, int steps);

struct GemmRate {
  std::string name;
  double fwd_gflops = 0.0;
  double dw_gflops = 0.0;
  double dx_gflops = 0.0;
};

std::vector<GemmRate> MeasureGemms(const std::vector<GemmShape>& shapes);

// Saves `trainer`'s state `saves` times into `dir` through a TimedStorage.
[[nodiscard]] StatusOr<StorageStats> MeasureCheckpointSaves(
    const SyncTrainer& trainer, const std::string& dir, int saves);

}  // namespace e2e
}  // namespace lpsgd

#endif  // LPSGD_BENCH_E2E_HARNESS_H_
