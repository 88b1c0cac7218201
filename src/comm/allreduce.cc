// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "comm/allreduce.h"

#include <algorithm>
#include <utility>

#include "base/rng.h"
#include "base/thread_annotations.h"
#include "comm/mpi_reduce_bcast.h"
#include "comm/nccl_ring.h"
#include "comm/retry.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace lpsgd {
namespace {

// Transparent observer between the retry wrapper and the engine/decorator
// stack: every non-OK AllReduce from below files a flight-recorder dump
// (exactly once per failure — the retry layer above re-attempts without
// re-reporting, and adds its own dump only for the deadline overruns it
// synthesizes itself). Successful exchanges leave a breadcrumb record.
class FlightRecordingAggregator : public GradientAggregator {
 public:
  explicit FlightRecordingAggregator(
      std::unique_ptr<GradientAggregator> inner)
      : inner_(std::move(inner)) {}

  std::string Name() const override { return inner_->Name(); }
  int num_ranks() const override { return inner_->num_ranks(); }
  void ExportExchangeState(
      std::vector<std::vector<float>>* state) const override {
    inner_->ExportExchangeState(state);
  }
  [[nodiscard]] Status ImportExchangeState(
      const std::vector<std::vector<float>>& state) override {
    return inner_->ImportExchangeState(state);
  }

  StatusOr<CommStats> AllReduce(std::vector<MatrixSlot>* slots,
                                int64_t iteration) override {
    StatusOr<CommStats> result = inner_->AllReduce(slots, iteration);
    if (!obs::FlightRecorderEnabled()) return result;
    if (result.ok()) {
      obs::FlightRecorder::Global().Record(
          iteration, /*phase=*/-1, /*matrix=*/-1, /*rank=*/-1,
          /*wall_seconds=*/0.0, result.value().TotalSeconds(),
          "exchange_ok");
    } else {
      obs::FlightRecorder::Global().OnExchangeFailure(result.status(),
                                                      iteration);
    }
    return result;
  }

 private:
  std::unique_ptr<GradientAggregator> inner_;
};

}  // namespace

std::string CommPrimitiveName(CommPrimitive primitive) {
  return primitive == CommPrimitive::kMpi ? "MPI" : "NCCL";
}

CommStats ExchangeCost(const CommCostModel& cost_model,
                       CommPrimitive primitive, int k, const CodecSpec& spec,
                       const GradientCodec& codec,
                       const std::vector<MatrixSlot>& slots) {
  const bool mpi = primitive == CommPrimitive::kMpi;
  const bool identity_codec = spec.kind == CodecKind::kFullPrecision;
  // MPI: encode the own gradient, decode the aggregate, and an amortized
  // share of the owner-side decodes and re-encode. NCCL: encode before and
  // decode after the collective.
  const double kernel_passes = mpi ? 3.0 : 2.0;
  CommStats stats;
  for (const MatrixSlot& slot : slots) {
    const Shape& shape = slot.quant_shape;
    const int64_t n = shape.element_count();
    const int64_t raw_bytes = n * static_cast<int64_t>(sizeof(float));
    stats.raw_bytes += raw_bytes;
    stats.messages += mpi ? 2 : 1;
    if (!slot.quantized || identity_codec) {
      stats.wire_bytes += raw_bytes;
      continue;
    }
    int64_t payload = codec.EncodedSizeBytes(shape);
    if (!mpi && codec.SparseCount(shape) > 0) payload *= k;
    stats.wire_bytes += payload;
    const int64_t chunks = codec.NumChunks(shape);
    stats.encode_seconds +=
        kernel_passes * cost_model.QuantKernelSeconds(n, chunks);
  }
  stats.comm_seconds =
      mpi ? cost_model.MpiExchangeSeconds(stats.wire_bytes, stats.messages, k)
          : cost_model.NcclAllReduceSeconds(stats.wire_bytes, stats.messages,
                                            k);
  return stats;
}

double RetryBackoffSeconds(const ExchangeRetryOptions& options, int attempt) {
  double backoff = options.backoff_base_seconds;
  for (int i = 1; i < attempt; ++i) backoff *= 2.0;
  return backoff;
}

StatusOr<std::unique_ptr<GradientAggregator>> CreateAggregator(
    CommPrimitive primitive, int num_ranks, const CodecSpec& codec,
    const MachineSpec& machine, const ExecutionContext& execution) {
  if (primitive == CommPrimitive::kMpi) {
    LPSGD_ASSIGN_OR_RETURN(auto aggregator,
                           MpiReduceBcastAggregator::Create(
                               num_ranks, codec, machine, execution));
    return std::unique_ptr<GradientAggregator>(std::move(aggregator));
  }
  LPSGD_ASSIGN_OR_RETURN(
      auto aggregator,
      NcclRingAggregator::Create(num_ranks, codec, machine, execution));
  return std::unique_ptr<GradientAggregator>(std::move(aggregator));
}

StatusOr<std::unique_ptr<GradientAggregator>> CreateAggregator(
    CommPrimitive primitive, int num_ranks, const CodecSpec& codec,
    const MachineSpec& machine, const ExecutionContext& execution,
    const ExchangeRetryOptions& retry,
    const AggregatorDecorator& decorator) {
  LPSGD_ASSIGN_OR_RETURN(
      std::unique_ptr<GradientAggregator> aggregator,
      CreateAggregator(primitive, num_ranks, codec, machine, execution));
  if (decorator) {
    LPSGD_ASSIGN_OR_RETURN(aggregator, decorator(std::move(aggregator)));
  }
  // Stacked below the retry loop so each failed attempt — injected or real
  // — produces its own dump before being retried.
  aggregator = std::make_unique<FlightRecordingAggregator>(
      std::move(aggregator));
  if (retry.enabled()) {
    LPSGD_ASSIGN_OR_RETURN(
        aggregator, RetryingAggregator::Create(std::move(aggregator), retry));
  }
  return aggregator;
}

void CommStats::Add(const CommStats& other) {
  comm_seconds += other.comm_seconds;
  encode_seconds += other.encode_seconds;
  wire_bytes += other.wire_bytes;
  raw_bytes += other.raw_bytes;
  messages += other.messages;
}

double CommStats::CompressionRatio() const {
  // Guard the zero denominator (no exchange yet, or byte accounting
  // disabled): 1.0 means "no compression observed", never inf/NaN.
  if (wire_bytes <= 0) return 1.0;
  return static_cast<double>(raw_bytes) / static_cast<double>(wire_bytes);
}

namespace comm_internal {

void RecordAllReduceStats(const CommStats& stats) {
  if (!obs::MetricsEnabled()) return;
  obs::Count("comm/allreduce_calls");
  obs::Count("comm/wire_bytes", stats.wire_bytes);
  obs::Count("comm/raw_bytes", stats.raw_bytes);
  obs::Count("comm/messages", stats.messages);
  obs::Observe("comm/virtual_comm_seconds", stats.comm_seconds);
  obs::Observe("comm/virtual_encode_seconds", stats.encode_seconds);
}

namespace {

// Per-(iteration, matrix) counter both stages hash: golden-ratio spreading
// of the iteration keeps consecutive iterations' counters far apart.
uint64_t ExchangeCounter(int64_t iteration, int64_t matrix) {
  return static_cast<uint64_t>(iteration) * 0x9e3779b9ULL +
         static_cast<uint64_t>(matrix);
}

}  // namespace

uint64_t ExchangeRankTag(int64_t iteration, int64_t matrix, int rank) {
  return HashCounter(ExchangeCounter(iteration, matrix),
                     static_cast<uint64_t>(rank));
}

uint64_t ExchangeAggregateTag(int64_t iteration, int64_t matrix, int owner) {
  return HashCounter(ExchangeCounter(iteration, matrix),
                     0xa66e6a7eULL + static_cast<uint64_t>(owner));
}

LPSGD_HOT_PATH
void ScatterAddRanks(const std::vector<std::vector<uint32_t>>& indices,
                     const std::vector<std::vector<float>>& values, int k,
                     int64_t count, int64_t n, float* sum) {
  std::fill(sum, sum + n, 0.0f);
  for (int r = 0; r < k; ++r) {
    const uint32_t* rank_indices = indices[static_cast<size_t>(r)].data();
    const float* rank_values = values[static_cast<size_t>(r)].data();
    for (int64_t i = 0; i < count; ++i) {
      sum[rank_indices[i]] += rank_values[i];
    }
  }
}

}  // namespace comm_internal

}  // namespace lpsgd
