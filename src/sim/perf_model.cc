// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "sim/perf_model.h"

#include <cmath>

#include "base/logging.h"
#include "base/strings.h"
#include "obs/metrics.h"
#include "obs/run_report.h"

namespace lpsgd {
namespace {

// Counts the estimate and records a "perf_estimate" run-report entry so
// bench binaries emit their per-configuration splits via --metrics_out.
void RecordEstimate(const PerfEstimate& est) {
  if (obs::MetricsEnabled()) {
    obs::Count("sim/perf_estimates");
  }
  if (obs::ReportEnabled()) {
    obs::RecordEntry("perf_estimate", PerfEstimateToJson(est));
  }
}

}  // namespace

obs::JsonValue PerfEstimateToJson(const PerfEstimate& estimate) {
  obs::JsonValue v = obs::JsonValue::Object();
  v.Set("network", estimate.network);
  v.Set("codec", estimate.codec_label);
  v.Set("primitive", CommPrimitiveName(estimate.primitive));
  v.Set("gpus", estimate.gpus);
  v.Set("global_batch", estimate.global_batch);
  v.Set("per_gpu_batch", estimate.per_gpu_batch);
  v.Set("compute_seconds", estimate.compute_seconds);
  v.Set("encode_seconds", estimate.encode_seconds);
  v.Set("comm_seconds", estimate.comm_seconds);
  v.Set("iteration_seconds", estimate.IterationSeconds());
  v.Set("wire_bytes", estimate.wire_bytes);
  v.Set("raw_bytes", estimate.raw_bytes);
  v.Set("samples_per_second", estimate.SamplesPerSecond());
  v.Set("comm_fraction", estimate.CommFraction());
  return v;
}

std::vector<MatrixSlot> InventorySlots(const NetworkStats& network,
                                       double model_scale) {
  std::vector<Shape> shapes;
  std::vector<ParamKind> kinds;
  for (const MatrixStat& m : network.matrices) {
    const int64_t cols = static_cast<int64_t>(
        std::llround(static_cast<double>(m.cols) * model_scale));
    for (int c = 0; c < m.count; ++c) {
      shapes.push_back(Shape({m.rows, cols}));
      kinds.push_back(m.kind);
    }
  }
  QuantizationPolicyOptions policy;
  policy.always_bypass_biases = false;  // inventory has no bias entries
  const std::vector<bool> quantize =
      ChooseQuantizedMatrices(shapes, kinds, policy);
  std::vector<MatrixSlot> slots(shapes.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    slots[i].quant_shape = shapes[i];
    slots[i].quantized = quantize[i];
  }
  return slots;
}

PerfModel::PerfModel(NetworkStats network, MachineSpec machine)
    : network_(std::move(network)),
      machine_(std::move(machine)),
      cost_model_(machine_) {}

StatusOr<PerfEstimate> PerfModel::Estimate(const CodecSpec& spec,
                                           CommPrimitive primitive,
                                           int gpus) const {
  return EstimateInternal(spec, primitive, gpus, /*model_scale=*/1.0);
}

StatusOr<PerfEstimate> PerfModel::EstimateScaledModel(
    const CodecSpec& spec, CommPrimitive primitive, int gpus,
    double model_scale) const {
  return EstimateInternal(spec, primitive, gpus, model_scale);
}

StatusOr<PerfEstimate> PerfModel::EstimateInternal(
    const CodecSpec& spec, CommPrimitive primitive, int gpus,
    double model_scale) const {
  if (gpus < 1 || gpus > machine_.num_gpus) {
    return InvalidArgumentError(
        StrCat(machine_.name, " cannot run ", gpus, " GPUs"));
  }
  if (primitive == CommPrimitive::kNccl &&
      !machine_.NcclAvailableFor(gpus)) {
    return FailedPreconditionError(
        StrCat("NCCL supports at most ", machine_.nccl_max_gpus, " GPUs"));
  }
  if (network_.batch_for_gpus.find(gpus) == network_.batch_for_gpus.end()) {
    return InvalidArgumentError(
        StrCat(network_.name, " has no batch size for ", gpus, " GPUs"));
  }
  if (model_scale < 1.0) {
    return InvalidArgumentError("model_scale must be >= 1");
  }

  PerfEstimate est;
  est.network = network_.name;
  est.codec_label = spec.Label();
  est.primitive = primitive;
  est.gpus = gpus;
  est.global_batch = network_.BatchForGpus(gpus);
  est.per_gpu_batch = est.global_batch / gpus;
  CHECK_GT(est.per_gpu_batch, 0);

  // --- Computation: calibrated single-GPU throughput, scaled by GPU
  // architecture and batch efficiency. Dummy parameters (model_scale > 1)
  // add no compute, matching the paper's extrapolation methodology.
  const double per_gpu_sps = network_.k80_samples_per_sec *
                             machine_.gpu.relative_speed *
                             network_.EfficiencyAt(est.per_gpu_batch);
  est.compute_seconds = est.per_gpu_batch / per_gpu_sps;

  if (gpus == 1) {
    // No gradient exchange; CNTK also skips quantization entirely.
    est.raw_bytes = static_cast<int64_t>(
        network_.ModelBytes() * model_scale);
    est.wire_bytes = 0;
    RecordEstimate(est);
    return est;
  }

  // --- Communication: the engines' own pricing of one exchange of the
  // inventory under the small-matrix bypass policy.
  LPSGD_ASSIGN_OR_RETURN(std::unique_ptr<GradientCodec> codec,
                         spec.Create());
  const CommStats exchange =
      ExchangeCost(cost_model_, primitive, gpus, spec, *codec,
                   InventorySlots(network_, model_scale));
  est.raw_bytes = exchange.raw_bytes;
  est.wire_bytes = exchange.wire_bytes;
  est.comm_seconds = exchange.comm_seconds;
  est.encode_seconds = exchange.encode_seconds;
  RecordEstimate(est);
  return est;
}

StatusOr<double> PerfModel::Scalability(const CodecSpec& spec,
                                        CommPrimitive primitive,
                                        int gpus) const {
  LPSGD_ASSIGN_OR_RETURN(PerfEstimate est, Estimate(spec, primitive, gpus));
  // The 1-GPU full-precision baseline is machine-local (same GPU model).
  LPSGD_ASSIGN_OR_RETURN(PerfEstimate base,
                         Estimate(FullPrecisionSpec(), primitive, 1));
  return est.SamplesPerSecond() / base.SamplesPerSecond();
}

StatusOr<double> PerfModel::RecipeCostUsd(const CodecSpec& spec,
                                          CommPrimitive primitive,
                                          int gpus) const {
  LPSGD_ASSIGN_OR_RETURN(PerfEstimate est, Estimate(spec, primitive, gpus));
  const double epoch_hours =
      est.EpochSeconds(network_.dataset_samples) / 3600.0;
  return epoch_hours * network_.recipe_epochs * machine_.price_per_hour_usd;
}

double PerfModel::ModelSizeToComputeRatio(double model_scale) const {
  const double megabytes = network_.ModelBytes() * model_scale / 1e6;
  return megabytes / network_.gflops_per_sample;
}

StatusOr<PerfEstimate> EstimateConfiguration(const std::string& network,
                                             const MachineSpec& machine,
                                             const CodecSpec& spec,
                                             CommPrimitive primitive,
                                             int gpus) {
  LPSGD_ASSIGN_OR_RETURN(NetworkStats stats, FindNetworkStats(network));
  PerfModel model(std::move(stats), machine);
  return model.Estimate(spec, primitive, gpus);
}

}  // namespace lpsgd
