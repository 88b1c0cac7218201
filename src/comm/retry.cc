// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "comm/retry.h"

#include <cstring>
#include <utility>

#include "base/logging.h"
#include "base/strings.h"
#include "base/thread_annotations.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace lpsgd {
namespace {

// Codes worth re-attempting: the failure is tied to this exchange, not to
// the system's ability to ever complete one. ABORTED (a crashed rank) is
// deliberately excluded — the trainer must reconfigure, not retry.
bool IsTransient(StatusCode code) {
  return code == StatusCode::kUnavailable ||
         code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kDataLoss || code == StatusCode::kInternal;
}

}  // namespace

StatusOr<std::unique_ptr<RetryingAggregator>> RetryingAggregator::Create(
    std::unique_ptr<GradientAggregator> inner, ExchangeRetryOptions options) {
  if (inner == nullptr) {
    return InvalidArgumentError("RetryingAggregator needs an inner engine");
  }
  if (options.max_retries < 0) {
    return InvalidArgumentError(
        StrCat("max_retries must be >= 0, got ", options.max_retries));
  }
  if (options.timeout_seconds < 0.0 || options.backoff_base_seconds < 0.0) {
    return InvalidArgumentError("retry time budgets must be >= 0");
  }
  return std::unique_ptr<RetryingAggregator>(
      new RetryingAggregator(std::move(inner), options));
}

std::string RetryingAggregator::Name() const {
  return StrCat(inner_->Name(), " + retry(", options_.max_retries, ")");
}

void RetryingAggregator::Snapshot(const std::vector<MatrixSlot>& slots) {
  const size_t k = static_cast<size_t>(inner_->num_ranks());
  const size_t total = slots.size() * k;
  if (grad_snapshot_.size() < total) grad_snapshot_.resize(total);
  if (error_snapshot_.size() < total) error_snapshot_.resize(total);
  for (size_t m = 0; m < slots.size(); ++m) {
    const MatrixSlot& slot = slots[m];
    const size_t n = static_cast<size_t>(slot.quant_shape.element_count());
    for (size_t r = 0; r < slot.rank_grads.size(); ++r) {
      grad_snapshot_[m * k + r].assign(slot.rank_grads[r],
                                       slot.rank_grads[r] + n);
      std::vector<float>& errors = error_snapshot_[m * k + r];
      if (r < slot.rank_errors.size() && slot.rank_errors[r] != nullptr) {
        errors.assign(slot.rank_errors[r]->begin(),
                      slot.rank_errors[r]->end());
      } else {
        errors.clear();
      }
    }
  }
  inner_->ExportExchangeState(&exchange_state_);
}

void RetryingAggregator::Restore(std::vector<MatrixSlot>* slots) {
  const size_t k = static_cast<size_t>(inner_->num_ranks());
  for (size_t m = 0; m < slots->size(); ++m) {
    MatrixSlot& slot = (*slots)[m];
    const size_t n = static_cast<size_t>(slot.quant_shape.element_count());
    for (size_t r = 0; r < slot.rank_grads.size(); ++r) {
      const std::vector<float>& grads = grad_snapshot_[m * k + r];
      CHECK_EQ(grads.size(), n);
      std::memcpy(slot.rank_grads[r], grads.data(), n * sizeof(float));
      if (r < slot.rank_errors.size() && slot.rank_errors[r] != nullptr) {
        slot.rank_errors[r]->assign(error_snapshot_[m * k + r].begin(),
                                    error_snapshot_[m * k + r].end());
      }
    }
  }
  // The state is the engine's own export, so the import cannot fail.
  const Status imported = inner_->ImportExchangeState(exchange_state_);
  CHECK_OK(imported);
}

LPSGD_HOT_PATH
StatusOr<CommStats> RetryingAggregator::AllReduce(
    std::vector<MatrixSlot>* slots, int64_t iteration) {
  CHECK(slots != nullptr);
  // The snapshot copies are serial, attempt-0-only work outside the inner
  // engine's parallel hot loops; they reuse their capacity, so
  // steady-state exchanges stay allocation-free.
  {
    obs::Span snapshot_span(obs::kPhaseRetry, &phases_);
    Snapshot(*slots);
  }

  double penalty_seconds = 0.0;
  Status last_error = OkStatus();
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      obs::Span restore_span(obs::kPhaseRetry, &phases_);
      Restore(slots);
      if (obs::MetricsEnabled()) obs::Count("comm/retries");
      penalty_seconds += RetryBackoffSeconds(options_, attempt);
    }
    StatusOr<CommStats> result = inner_->AllReduce(slots, iteration);
    if (result.ok()) {
      CommStats stats = result.value();
      if (options_.timeout_seconds > 0.0 &&
          stats.TotalSeconds() > options_.timeout_seconds) {
        // The exchange completed but blew its deadline (e.g. a straggling
        // rank): a real implementation cancels and re-issues, so the
        // attempt's own virtual time is charged and its effects discarded.
        last_error = DeadlineExceededError(
            StrCat("exchange took ", FormatDouble(stats.TotalSeconds(), 4),
                   "s, budget ",
                   FormatDouble(options_.timeout_seconds, 4), "s"));
        penalty_seconds += stats.TotalSeconds();
        // This failure is synthesized above the exchange observer, so it
        // must file its own flight record (everything the inner engine
        // returns non-OK is dumped by the observer instead).
        obs::FlightRecorder::Global().OnExchangeFailure(last_error,
                                                        iteration);
        continue;
      }
      stats.comm_seconds += penalty_seconds;
      FoldPhases(penalty_seconds);
      return stats;
    }
    last_error = result.status();
    if (!IsTransient(last_error.code())) break;
  }

  // Budget exhausted or non-retryable: leave every caller-visible buffer
  // and the inner engine exactly as they were before the call.
  {
    obs::Span restore_span(obs::kPhaseRetry, &phases_);
    Restore(slots);
  }
  FoldPhases(penalty_seconds);
  return last_error;
}

void RetryingAggregator::FoldPhases(double penalty_seconds) {
  if (!obs::ProfileEnabled()) {
    phases_.Clear();
    return;
  }
  // The backoff penalty is virtual retry time (it is also folded into the
  // returned comm_seconds — the breakdown attributes where the virtual
  // total came from, it does not re-sum it).
  phases_.AddVirtual(obs::kPhaseRetry, penalty_seconds);
  obs::Profiler::Global().AddPhases(phases_);
  phases_.Clear();
}

}  // namespace lpsgd
