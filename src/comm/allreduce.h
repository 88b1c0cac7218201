// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_COMM_ALLREDUCE_H_
#define LPSGD_COMM_ALLREDUCE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/statusor.h"
#include "base/thread_pool.h"
#include "comm/cost_model.h"
#include "machine/specs.h"
#include "quant/codec.h"
#include "tensor/shape.h"

namespace lpsgd {

// Which collective engine moves the gradients (Section 2.4): CNTK's MPI
// reduce-and-broadcast or the NCCL ring.
enum class CommPrimitive { kMpi, kNccl };

// "MPI" or "NCCL".
std::string CommPrimitiveName(CommPrimitive primitive);

// Accounting for one (or many accumulated) gradient exchanges.
struct CommStats {
  double comm_seconds = 0.0;    // virtual wire + staging + latency time
  double encode_seconds = 0.0;  // virtual quantize/unquantize kernel time
  int64_t wire_bytes = 0;       // encoded bytes of one rank's full gradient
  int64_t raw_bytes = 0;        // fp32 bytes of one rank's full gradient
  int64_t messages = 0;

  void Add(const CommStats& other);
  double TotalSeconds() const { return comm_seconds + encode_seconds; }
  // Compression ratio achieved on the wire (raw / encoded). Defined for
  // empty accounting: returns 1.0 when no bytes were sent yet.
  double CompressionRatio() const;
};

namespace comm_internal {

// Flushes one AllReduce call's accounting into the comm/* metrics of the
// global registry (comm/allreduce_calls, comm/wire_bytes, comm/raw_bytes,
// comm/messages, comm/virtual_{comm,encode}_seconds). No-op while the
// registry is disabled. Both aggregation engines call this so their
// reports stay comparable.
void RecordAllReduceStats(const CommStats& stats);

// Stochastic-tag derivation for the MPI exchange's two quantization
// stages. Both hash the same per-(iteration, matrix) counter — iteration
// is spread by the 64-bit golden ratio so consecutive iterations land far
// apart — with a stage-distinct stream index, giving every codec call in a
// run an independent, schedule-invariant random stream. These formulas are
// wire-format-stable: changing them changes every stochastic codec's
// encoded bytes (and thus the checkpoint/determinism goldens).
//
// Stage 1: rank `rank` encodes its local gradient for matrix `matrix`.
uint64_t ExchangeRankTag(int64_t iteration, int64_t matrix, int rank);
// Stage 2: owner rank `owner` re-encodes the summed aggregate. The
// 0xa66e6a7e stream offset keeps owner streams disjoint from the rank
// streams of stage 1 (ranks are < 2^31, well under the offset).
uint64_t ExchangeAggregateTag(int64_t iteration, int64_t matrix, int owner);

// The aggregate of a sparse codec's k rank blobs, shared by both engines:
// zeroes sum[0, n) and scatter-adds rank r's `count` (indices[r][i],
// values[r][i]) pairs for r = 0, 1, ..., k - 1 in that order. Each absent
// component contributes an exact 0.0f, so the result is element-equal to
// the dense rank-order sum.
void ScatterAddRanks(const std::vector<std::vector<uint32_t>>& indices,
                     const std::vector<std::vector<float>>& values, int k,
                     int64_t count, int64_t n, float* sum);

}  // namespace comm_internal

// One gradient matrix as seen by the aggregation engine: every rank's
// local gradient buffer (all the same shape) plus, for error-feedback
// codecs, every rank's persistent residual buffer.
struct MatrixSlot {
  Shape quant_shape;                        // CNTK quantization view
  std::vector<float*> rank_grads;           // K buffers, element_count each
  std::vector<std::vector<float>*> rank_errors;  // K residuals (may be empty)
  // Policy decision: false sends this matrix through the full-precision
  // pipeline regardless of the configured codec (small-matrix bypass).
  bool quantized = true;
};

// The one pricing of an exchange of `slots` over `primitive` at `k` ranks
// with `codec` (created from `spec`), summed in matrix order: fp32 raw
// bytes; wire bytes (the blob size, times k for a sparse codec over NCCL,
// whose allgather delivers every rank's blob; fp32 bytes for a bypassed
// matrix or the fp32 codec); 2 messages per matrix for MPI, 1 for NCCL;
// 3 (MPI) or 2 (NCCL) kernel passes per quantized matrix; and the
// primitive's wire time. Reads only shapes and flags and does not
// allocate. Both engines return it from AllReduce; PerfModel prices its
// estimates with it.
CommStats ExchangeCost(const CommCostModel& cost_model,
                       CommPrimitive primitive, int k, const CodecSpec& spec,
                       const GradientCodec& codec,
                       const std::vector<MatrixSlot>& slots);

// Synchronous gradient aggregation: after AllReduce, every rank's buffer
// holds the SUM over ranks of the (possibly quantization-approximated)
// gradients. Implementations move real bytes between rank buffers and
// charge virtual time through a CommCostModel.
class GradientAggregator {
 public:
  virtual ~GradientAggregator() = default;

  virtual std::string Name() const = 0;

  // `iteration` seeds the stochastic codecs so runs are reproducible.
  // Contract with the retry layer: on a non-OK return the aggregator's
  // internal persistent state (e.g. owner-side aggregation residuals) is
  // unchanged — implementations restore it before returning. Caller-owned
  // slot buffers (rank_grads, rank_errors) may be partially written; the
  // retry wrapper snapshots and restores those.
  virtual StatusOr<CommStats> AllReduce(std::vector<MatrixSlot>* slots,
                                        int64_t iteration) = 0;

  virtual int num_ranks() const = 0;

  // Exchange-state hooks, the one way to copy an aggregator's persistent
  // cross-call state (the MPI owner-side aggregation residuals) in and
  // out: one flat float vector per matrix. The retry layer exports before
  // the first attempt and re-imports when it discards an attempt; durable
  // checkpoints (src/ckpt) serialize the export and re-import it on
  // restore, so a restored run replays bit-identically to one that never
  // stopped. Stateless engines keep the defaults: export nothing, accept
  // only an empty import.
  virtual void ExportExchangeState(
      std::vector<std::vector<float>>* state) const {
    state->clear();
  }
  [[nodiscard]] virtual Status ImportExchangeState(
      const std::vector<std::vector<float>>& state) {
    if (!state.empty()) {
      return FailedPreconditionError(
          "aggregator is stateless but checkpoint carries exchange state");
    }
    return OkStatus();
  }
};

// Per-exchange fault-tolerance budget (DESIGN.md "Fault model and
// recovery"): when enabled, AllReduce calls are wrapped in a retry loop
// with exponential backoff and an optional virtual-time deadline.
struct ExchangeRetryOptions {
  // Maximum number of re-attempts after the first try. 0 disables the
  // retry loop (but timeout_seconds alone still enables the wrapper).
  int max_retries = 0;
  // Virtual-time budget for one exchange; an attempt whose TotalSeconds()
  // exceeds it is discarded and retried as if it had failed. 0 = no
  // deadline.
  double timeout_seconds = 0.0;
  // Backoff penalty charged to virtual comm time before retry r (1-based):
  // backoff_base_seconds * 2^(r-1).
  double backoff_base_seconds = 0.001;

  bool enabled() const { return max_retries > 0 || timeout_seconds > 0.0; }
};

// Backoff penalty before retry `attempt` (1-based):
// backoff_base_seconds * 2^(attempt-1). Shared by the retrying aggregator
// and the durable-checkpoint writer so both layers charge the same
// schedule for transient failures.
double RetryBackoffSeconds(const ExchangeRetryOptions& options, int attempt);

// Hook for layering a decorator (e.g. fault::FaultInjectingAggregator)
// between the retry wrapper and the real engine built by CreateAggregator.
using AggregatorDecorator =
    std::function<StatusOr<std::unique_ptr<GradientAggregator>>(
        std::unique_ptr<GradientAggregator>)>;

// The single aggregator entry point: builds the engine for `primitive`
// with `num_ranks` simulated GPUs exchanging gradients encoded per
// `codec`, timed on `machine`, running host work on `execution`'s pool
// (ExecutionContext::Serial() reproduces the historical sequential
// order — as does any thread count; see DESIGN.md "Execution model").
// The concrete classes keep a 4-argument Create for call sites that need
// the concrete type (test seams like set_wire_tamper); everything else
// goes through here.
[[nodiscard]] StatusOr<std::unique_ptr<GradientAggregator>> CreateAggregator(
    CommPrimitive primitive, int num_ranks, const CodecSpec& codec,
    const MachineSpec& machine, const ExecutionContext& execution);

// Fault-tolerant variant: builds the engine, applies `decorator` (fault
// injection layer; may be empty), inserts the flight-recorder observer,
// then wraps the result in the retrying aggregator when `retry.enabled()`.
// Stacking order — the retry loop is outermost so injected faults are
// retried like real ones, and the observer sits below it so every failed
// attempt files exactly one flight-recorder dump (obs/profile.h):
//   Retrying(Observer(decorator(engine)))
[[nodiscard]] StatusOr<std::unique_ptr<GradientAggregator>> CreateAggregator(
    CommPrimitive primitive, int num_ranks, const CodecSpec& codec,
    const MachineSpec& machine, const ExecutionContext& execution,
    const ExchangeRetryOptions& retry,
    const AggregatorDecorator& decorator = nullptr);

}  // namespace lpsgd

#endif  // LPSGD_COMM_ALLREDUCE_H_
