// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_COMM_RETRY_H_
#define LPSGD_COMM_RETRY_H_

#include <memory>
#include <string>
#include <vector>

#include "comm/allreduce.h"
#include "obs/profile.h"

namespace lpsgd {

// Retry-with-exponential-backoff wrapper around any GradientAggregator
// (DESIGN.md "Fault model and recovery"), and the one layer that undoes a
// failed exchange: engines leave a failed call's state partly written
// (comm/allreduce.h). Each AllReduce call becomes an atomic transaction:
//
//   - Before the first attempt the caller-visible slot state (rank_grads
//     and rank_errors) and the inner aggregator's exported cross-call
//     state are snapshotted into persistent member buffers.
//   - A failed attempt with a transient code (IsTransient: UNAVAILABLE,
//     DEADLINE_EXCEEDED, DATA_LOSS, INTERNAL) restores the snapshot,
//     re-imports the inner aggregator's state, charges the backoff penalty
//     (backoff_base_seconds * 2^(attempt-1)) to virtual comm time, bumps
//     comm/retries, and re-runs with the same `iteration` — so stochastic
//     codec tags replay and the retried exchange is bit-identical.
//   - A successful attempt whose TotalSeconds() exceeds timeout_seconds is
//     discarded the same way (DEADLINE_EXCEEDED), except its own virtual
//     duration is also charged.
//   - Non-transient codes (e.g. ABORTED: a crashed rank) and exhausted
//     budgets restore the snapshot and return the error, leaving every
//     buffer and the inner aggregator's state as they were before the call.
class RetryingAggregator : public GradientAggregator {
 public:
  [[nodiscard]] static StatusOr<std::unique_ptr<RetryingAggregator>> Create(
      std::unique_ptr<GradientAggregator> inner, ExchangeRetryOptions options);

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
  const ExchangeRetryOptions& options() const { return options_; }

 private:
  RetryingAggregator(std::unique_ptr<GradientAggregator> inner,
                     ExchangeRetryOptions options)
      : inner_(std::move(inner)), options_(options) {}

  // Folds the accumulated retry-phase spans (plus `penalty_seconds` of
  // virtual backoff time) into the global profiler and clears the scratch.
  void FoldPhases(double penalty_seconds);
  // Copies every slot's rank_grads / rank_errors contents and the inner
  // aggregator's exported exchange state into the persistent snapshot
  // buffers (capacity-reusing; steady-state calls allocate nothing once
  // the buffers have grown to the model size).
  void Snapshot(const std::vector<MatrixSlot>& slots);
  // Restores the slot contents and re-imports the inner aggregator's
  // exchange state from the last Snapshot call.
  void Restore(std::vector<MatrixSlot>* slots);
  // Purity exemptions: the snapshot buffers grow once to the model size
  // and are capacity-reused afterwards (the comment on Snapshot is the
  // contract); Restore only runs on the retry path after a failure.
  LPSGD_HOT_CALLEE_OK(Snapshot);
  LPSGD_HOT_CALLEE_OK(Restore);

  std::unique_ptr<GradientAggregator> inner_;
  ExchangeRetryOptions options_;
  // grad_snapshot_ / error_snapshot_: flattened [matrix * ranks + rank]
  // copies of the caller-owned buffers, reused across calls.
  std::vector<std::vector<float>> grad_snapshot_;
  std::vector<std::vector<float>> error_snapshot_;
  // The inner aggregator's exported exchange state, reused across calls.
  std::vector<std::vector<float>> exchange_state_;
  // Profiler scratch for the snapshot/restore copies (wall) and the
  // backoff penalty (virtual), folded into the open step per call.
  // AllReduce calls are serial, so one block suffices.
  obs::PhaseTimes phases_;
};

}  // namespace lpsgd

#endif  // LPSGD_COMM_RETRY_H_
