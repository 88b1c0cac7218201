// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_FAULT_FAULT_INJECTOR_H_
#define LPSGD_FAULT_FAULT_INJECTOR_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "comm/allreduce.h"
#include "fault/fault_plan.h"
#include "quant/codec.h"
#include "quant/workspace.h"

namespace lpsgd {
namespace fault {

// Everything the trainer needs to survive a FaultPlan (or real faults with
// the same signatures): the plan itself, the exchange retry budget, and
// the checkpoint/recovery policy.
struct FaultToleranceOptions {
  FaultPlan plan;
  ExchangeRetryOptions retry;
  // Take an in-memory recovery snapshot every N completed steps; 0
  // disables checkpointing (a non-crash exchange failure then propagates).
  int checkpoint_every = 0;
  // Ceiling on rollback/degrade recoveries per run, a runaway guard.
  int max_recoveries = 16;
  // Drop a crashed rank and renormalize over survivors instead of failing
  // the run.
  bool degrade_to_survivors = true;

  bool enabled() const {
    return !plan.empty() || retry.enabled() || checkpoint_every > 0;
  }
  [[nodiscard]] Status Validate() const;
};

// Decorator that replays a FaultPlan at the GradientAggregator boundary.
// Injected failures are indistinguishable from real ones to the layers
// above: transient failures return UNAVAILABLE before touching the inner
// engine; corruption runs a real encode → bit-flip → decode probe through
// the codec's checksum path and returns its DATA_LOSS; a crash returns
// ABORTED (RankCrashError) forever after its iteration; a straggler
// inflates the successful exchange's virtual time.
//
// Determinism: events are keyed by iteration, and a per-iteration attempt
// counter — monotonic across trainer rollbacks — decides which attempt
// each fault strikes, so fail@i x2 costs exactly two retries no matter how
// the recovery machinery replays the schedule.
class FaultInjectingAggregator : public GradientAggregator {
 public:
  // `codec_spec` configures the corruption probe's codec (the same one the
  // run exchanges gradients with, so the probe exercises the real wire
  // format).
  [[nodiscard]] static StatusOr<std::unique_ptr<FaultInjectingAggregator>>
  Create(std::unique_ptr<GradientAggregator> inner, FaultPlan plan,
         const CodecSpec& codec_spec);

  std::string Name() const override;
  StatusOr<CommStats> AllReduce(std::vector<MatrixSlot>* slots,
                                int64_t iteration) override;
  int num_ranks() const override { return inner_->num_ranks(); }
  void ExportExchangeState(
      std::vector<std::vector<float>>* state) const override {
    inner_->ExportExchangeState(state);
  }
  [[nodiscard]] Status ImportExchangeState(
      const std::vector<std::vector<float>>& state) override {
    return inner_->ImportExchangeState(state);
  }

  GradientAggregator* inner() const { return inner_.get(); }

 private:
  FaultInjectingAggregator(std::unique_ptr<GradientAggregator> inner,
                           FaultPlan plan,
                           std::unique_ptr<GradientCodec> probe_codec);

  // Encodes one victim gradient with the probe codec, flips a seeded bit,
  // and decodes through the checksum path; returns the resulting DataLoss.
  Status RunCorruptionProbe(const std::vector<MatrixSlot>& slots,
                            int64_t iteration, int attempt);

  std::unique_ptr<GradientAggregator> inner_;
  FaultPlan plan_;
  std::unique_ptr<GradientCodec> probe_codec_;
  // Exchange attempts seen per iteration; never reset, so replayed
  // iterations continue the count instead of re-arming consumed faults.
  std::unordered_map<int64_t, int> attempts_;
  // Corruption-probe scratch (reused across probes).
  CodecWorkspace probe_workspace_;
  std::vector<float> probe_error_;
  std::vector<float> probe_out_;
  std::vector<uint8_t> probe_blob_;
};

// Adapter for CreateAggregator's decorator hook: returns an empty function
// when the plan is empty (no decoration), else a factory wrapping the
// engine in a FaultInjectingAggregator.
AggregatorDecorator MakeAggregatorDecorator(const FaultPlan& plan,
                                            const CodecSpec& codec_spec);

}  // namespace fault
}  // namespace lpsgd

#endif  // LPSGD_FAULT_FAULT_INJECTOR_H_
