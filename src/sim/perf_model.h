// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_SIM_PERF_MODEL_H_
#define LPSGD_SIM_PERF_MODEL_H_

#include <algorithm>
#include <string>
#include <vector>

#include "base/statusor.h"
#include "comm/allreduce.h"
#include "comm/cost_model.h"
#include "machine/specs.h"
#include "nn/model_zoo.h"
#include "obs/json.h"
#include "quant/codec.h"
#include "quant/policy.h"

namespace lpsgd {

// Timing estimate for one training configuration (network x machine x
// GPU count x precision x primitive).
struct PerfEstimate {
  std::string network;
  std::string codec_label;
  CommPrimitive primitive = CommPrimitive::kMpi;
  int gpus = 1;
  int global_batch = 0;
  int per_gpu_batch = 0;

  double compute_seconds = 0.0;  // per iteration, per GPU (in parallel)
  double encode_seconds = 0.0;   // per iteration quantize/unquantize
  double comm_seconds = 0.0;     // per iteration wire + staging + latency
  int64_t wire_bytes = 0;        // one rank's encoded gradient
  int64_t raw_bytes = 0;         // one rank's fp32 gradient

  double IterationSeconds() const {
    return compute_seconds + encode_seconds + comm_seconds;
  }
  // Iteration time with ideal double buffering (Section 3.2.1: CNTK
  // overlaps the exchange of finished gradients with the remaining
  // backpropagation). This is the upper bound on overlap gains; the
  // paper's reported bars are the additive split above.
  double OverlappedIterationSeconds() const {
    return std::max(compute_seconds, encode_seconds + comm_seconds);
  }
  // All ratio helpers below return 0.0 on a zero denominator (an empty or
  // default-constructed estimate) instead of inf/NaN.
  double OverlappedSamplesPerSecond() const {
    const double seconds = OverlappedIterationSeconds();
    return seconds > 0.0 ? static_cast<double>(global_batch) / seconds : 0.0;
  }
  double SamplesPerSecond() const {
    const double seconds = IterationSeconds();
    return seconds > 0.0 ? static_cast<double>(global_batch) / seconds : 0.0;
  }
  double EpochSeconds(int64_t dataset_samples) const {
    if (global_batch <= 0) return 0.0;
    return static_cast<double>(dataset_samples) /
           static_cast<double>(global_batch) * IterationSeconds();
  }
  // Communication share of the iteration, counting encode/decode kernels
  // as communication overhead (the paper's bar-chart split).
  double CommFraction() const {
    const double seconds = IterationSeconds();
    return seconds > 0.0 ? (encode_seconds + comm_seconds) / seconds : 0.0;
  }
};

// The run-report "perf_estimate" entry for one estimate (PerfModel emits
// one per Estimate call into obs::RunReport::Global() while reporting is
// enabled, so every bench binary's --metrics_out output carries its full
// per-configuration compute/encode/comm split).
obs::JsonValue PerfEstimateToJson(const PerfEstimate& estimate);

// The network's parameter matrices in inventory order as buffer-less
// exchange slots: column counts scaled by `model_scale` (Figure 16's dummy
// parameters), `quantized` set by the small-matrix bypass policy
// (Section 3.2.2). PerfModel prices these slots with ExchangeCost.
std::vector<MatrixSlot> InventorySlots(const NetworkStats& network,
                                       double model_scale = 1.0);

// Analytic reproduction of the paper's performance methodology: compute
// time is calibrated to the paper's measured single-GPU throughput
// (Figure 10, 1-GPU column) and scaled by GPU architecture and per-GPU
// batch; communication time follows the aggregation algorithms of
// Section 2.4 with the codec's exact wire sizes.
class PerfModel {
 public:
  PerfModel(NetworkStats network, MachineSpec machine);

  const NetworkStats& network() const { return network_; }
  const MachineSpec& machine() const { return machine_; }

  // Estimates one configuration. Fails if the machine has fewer than
  // `gpus` GPUs, NCCL is requested beyond its GPU limit, or the network
  // has no batch size for `gpus`.
  StatusOr<PerfEstimate> Estimate(const CodecSpec& spec,
                                  CommPrimitive primitive, int gpus) const;

  // Scalability as defined in Section 5.3: samples/sec of the
  // configuration divided by the 1-GPU full-precision samples/sec.
  StatusOr<double> Scalability(const CodecSpec& spec,
                               CommPrimitive primitive, int gpus) const;

  // Dollar cost of running the published recipe (recipe_epochs) in this
  // configuration at the machine's hourly price.
  StatusOr<double> RecipeCostUsd(const CodecSpec& spec,
                                 CommPrimitive primitive, int gpus) const;

  // Figure 16 (right): multiplies every parameter matrix's column count by
  // `model_scale` (dummy parameters add communication but no computation,
  // like the paper's dummy models) and returns the resulting estimate.
  StatusOr<PerfEstimate> EstimateScaledModel(const CodecSpec& spec,
                                             CommPrimitive primitive,
                                             int gpus,
                                             double model_scale) const;

  // Model-size-to-computation ratio (MB / GFLOPs), the x-axis of
  // Figure 16 (right).
  double ModelSizeToComputeRatio(double model_scale = 1.0) const;

 private:
  StatusOr<PerfEstimate> EstimateInternal(const CodecSpec& spec,
                                          CommPrimitive primitive, int gpus,
                                          double model_scale) const;

  NetworkStats network_;
  MachineSpec machine_;
  CommCostModel cost_model_;
};

// Convenience: estimate for a network name on a machine.
StatusOr<PerfEstimate> EstimateConfiguration(const std::string& network,
                                             const MachineSpec& machine,
                                             const CodecSpec& spec,
                                             CommPrimitive primitive,
                                             int gpus);

}  // namespace lpsgd

#endif  // LPSGD_SIM_PERF_MODEL_H_
