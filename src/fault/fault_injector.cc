// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "fault/fault_injector.h"

#include <utility>

#include "base/logging.h"
#include "base/rng.h"
#include "base/strings.h"
#include "obs/metrics.h"
#include "obs/run_report.h"

namespace lpsgd {
namespace fault {
namespace {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kStraggle:
      return "straggle";
    case FaultKind::kTransientFail:
      return "fail";
    case FaultKind::kCorruptWire:
      return "corrupt";
    case FaultKind::kRankCrash:
      return "crash";
    case FaultKind::kTornWrite:
      return "torn";
    case FaultKind::kShortWrite:
      return "shortwrite";
    case FaultKind::kDiskFull:
      return "enospc";
    case FaultKind::kKill:
      return "kill";
  }
  return "unknown";
}

void RecordInjection(FaultKind kind, int64_t iteration, int attempt) {
  if (obs::MetricsEnabled()) obs::Count("fault/injected");
  if (obs::ReportEnabled()) {
    obs::JsonValue fields = obs::JsonValue::Object();
    fields.Set("fault", FaultKindName(kind));
    fields.Set("iteration", iteration);
    fields.Set("attempt", attempt);
    obs::RecordEntry("fault_injected", std::move(fields));
  }
}

}  // namespace

Status FaultToleranceOptions::Validate() const {
  if (checkpoint_every < 0) {
    return InvalidArgumentError(
        StrCat("checkpoint_every must be >= 0, got ", checkpoint_every));
  }
  if (max_recoveries < 0) {
    return InvalidArgumentError(
        StrCat("max_recoveries must be >= 0, got ", max_recoveries));
  }
  if (retry.max_retries < 0 || retry.timeout_seconds < 0.0 ||
      retry.backoff_base_seconds < 0.0) {
    return InvalidArgumentError("retry budgets must be >= 0");
  }
  for (const FaultEvent& event : plan.events) {
    if (event.iteration < 0 || event.count < 1 ||
        event.delay_seconds < 0.0 || event.rank < 0) {
      return InvalidArgumentError(
          StrCat("malformed fault event at iteration ", event.iteration));
    }
  }
  return OkStatus();
}

StatusOr<std::unique_ptr<FaultInjectingAggregator>>
FaultInjectingAggregator::Create(std::unique_ptr<GradientAggregator> inner,
                                 FaultPlan plan,
                                 const CodecSpec& codec_spec) {
  if (inner == nullptr) {
    return InvalidArgumentError(
        "FaultInjectingAggregator needs an inner engine");
  }
  LPSGD_ASSIGN_OR_RETURN(std::unique_ptr<GradientCodec> probe_codec,
                         codec_spec.Create());
  return std::unique_ptr<FaultInjectingAggregator>(
      new FaultInjectingAggregator(std::move(inner), std::move(plan),
                                   std::move(probe_codec)));
}

FaultInjectingAggregator::FaultInjectingAggregator(
    std::unique_ptr<GradientAggregator> inner, FaultPlan plan,
    std::unique_ptr<GradientCodec> probe_codec)
    : inner_(std::move(inner)),
      plan_(std::move(plan)),
      probe_codec_(std::move(probe_codec)) {}

std::string FaultInjectingAggregator::Name() const {
  return StrCat(inner_->Name(), " + faults(", plan_.events.size(), ")");
}

Status FaultInjectingAggregator::RunCorruptionProbe(
    const std::vector<MatrixSlot>& slots, int64_t iteration, int attempt) {
  CHECK(!slots.empty());
  const MatrixSlot& slot = slots[0];
  const size_t n = static_cast<size_t>(slot.quant_shape.element_count());
  const int victim = static_cast<int>(
      HashCounter(plan_.seed, static_cast<uint64_t>(iteration)) %
      static_cast<uint64_t>(slot.rank_grads.size()));

  // Encode the victim's real gradient through the run's codec, into probe
  // scratch; a zeroed residual stand-in keeps the caller's error-feedback
  // state untouched.
  probe_error_.assign(n, 0.0f);
  std::vector<float>* error =
      probe_codec_->UsesErrorFeedback() ? &probe_error_ : nullptr;
  const uint64_t tag = comm_internal::ExchangeRankTag(iteration, 0, victim);
  probe_codec_->Encode(slot.rank_grads[static_cast<size_t>(victim)],
                       slot.quant_shape, tag, error, &probe_workspace_,
                       &probe_blob_);

  // Flip one seeded bit and decode through the real checksum path; the
  // mismatch is the DATA_LOSS the caller sees. A different attempt picks a
  // different bit, like a real flaky link.
  const uint64_t total_bits = static_cast<uint64_t>(probe_blob_.size()) * 8;
  CHECK_GT(total_bits, 0u);
  const uint64_t bit =
      HashCounter(plan_.seed ^ static_cast<uint64_t>(attempt),
                  static_cast<uint64_t>(iteration)) %
      total_bits;
  probe_blob_[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));

  probe_out_.assign(n, 0.0f);
  const Status decoded = probe_codec_->Decode(
      probe_blob_.data(), static_cast<int64_t>(probe_blob_.size()),
      slot.quant_shape, &probe_workspace_, probe_out_.data());
  if (decoded.ok()) {
    // A single flipped bit always breaks the CRC-32C word; reaching here
    // means the codec skipped verification.
    return InternalError("corruption probe decoded a tampered blob");
  }
  return decoded;
}

StatusOr<CommStats> FaultInjectingAggregator::AllReduce(
    std::vector<MatrixSlot>* slots, int64_t iteration) {
  CHECK(slots != nullptr);
  const int attempt = attempts_[iteration]++;

  // A crashed rank stays dead: every exchange at or after its iteration
  // aborts before touching the inner engine.
  for (const FaultEvent& event : plan_.events) {
    if (event.kind == FaultKind::kRankCrash &&
        iteration >= event.iteration) {
      RecordInjection(FaultKind::kRankCrash, iteration, attempt);
      return RankCrashError(event.rank);
    }
  }

  // Consecutive-attempt faults: the first `fail_budget` attempts at this
  // iteration fail transiently, the next `corrupt_budget` hit corruption.
  int fail_budget = 0;
  int corrupt_budget = 0;
  double delay_seconds = 0.0;
  for (const FaultEvent& event : plan_.events) {
    if (event.iteration != iteration) continue;
    switch (event.kind) {
      case FaultKind::kTransientFail:
        fail_budget += event.count;
        break;
      case FaultKind::kCorruptWire:
        corrupt_budget += event.count;
        break;
      case FaultKind::kStraggle:
        delay_seconds += event.delay_seconds;
        break;
      case FaultKind::kRankCrash:
        break;  // handled above
      case FaultKind::kTornWrite:
      case FaultKind::kShortWrite:
      case FaultKind::kDiskFull:
        break;  // storage verbs: injected by ckpt::FaultInjectingStorage
      case FaultKind::kKill:
        break;  // process verb: honoured by SyncTrainer after the commit
    }
  }
  if (attempt < fail_budget) {
    RecordInjection(FaultKind::kTransientFail, iteration, attempt);
    return UnavailableError(
        StrCat("injected transient exchange failure at iteration ",
               iteration, ", attempt ", attempt));
  }
  if (attempt < fail_budget + corrupt_budget) {
    RecordInjection(FaultKind::kCorruptWire, iteration, attempt);
    return RunCorruptionProbe(*slots, iteration, attempt);
  }

  LPSGD_ASSIGN_OR_RETURN(CommStats stats,
                         inner_->AllReduce(slots, iteration));
  if (delay_seconds > 0.0) {
    RecordInjection(FaultKind::kStraggle, iteration, attempt);
    stats.comm_seconds += delay_seconds;
  }
  return stats;
}

AggregatorDecorator MakeAggregatorDecorator(const FaultPlan& plan,
                                            const CodecSpec& codec_spec) {
  if (plan.empty()) return nullptr;
  return [plan, codec_spec](std::unique_ptr<GradientAggregator> inner)
             -> StatusOr<std::unique_ptr<GradientAggregator>> {
    LPSGD_ASSIGN_OR_RETURN(
        auto injector,
        FaultInjectingAggregator::Create(std::move(inner), plan, codec_spec));
    return std::unique_ptr<GradientAggregator>(std::move(injector));
  };
}

}  // namespace fault
}  // namespace lpsgd
