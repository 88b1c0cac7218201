// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// RetryingAggregator transaction semantics, driven through a flaky
// test-double engine: transient failures are retried with the caller's
// slot buffers and the engine's exchange state restored, exhausted
// budgets and non-transient codes return the error with every buffer and
// the engine's state untouched, and over-deadline successes are discarded
// and re-attempted.
#include "comm/retry.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "comm/allreduce.h"
#include "machine/specs.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "tensor/shape.h"

namespace lpsgd {
namespace {

// A scripted engine: call i fails (scribbling over the caller's buffers
// and leaving its own state advanced, like a half-finished exchange) while
// i < fail_attempts; later calls "aggregate" by doubling every gradient
// element and report a scripted duration. Internal cross-call state
// (state) advances on every attempt and round-trips through the
// exchange-state hooks, so only the wrapper's import can rewind it.
class FlakyAggregator : public GradientAggregator {
 public:
  explicit FlakyAggregator(int num_ranks) : num_ranks_(num_ranks) {}

  std::string Name() const override { return "flaky"; }
  int num_ranks() const override { return num_ranks_; }

  int fail_attempts = 0;
  StatusCode fail_code = StatusCode::kUnavailable;
  std::vector<double> durations;  // comm_seconds per successful call

  int calls = 0;
  int imports = 0;
  int state = 0;

  void ExportExchangeState(
      std::vector<std::vector<float>>* exported) const override {
    *exported = {{static_cast<float>(state)}};
  }
  [[nodiscard]] Status ImportExchangeState(
      const std::vector<std::vector<float>>& imported) override {
    ++imports;
    state = static_cast<int>(imported.at(0).at(0));
    return OkStatus();
  }

  StatusOr<CommStats> AllReduce(std::vector<MatrixSlot>* slots,
                                int64_t iteration) override {
    (void)iteration;
    const int call = calls++;
    ++state;
    if (call < fail_attempts) {
      // Half-finished exchange: scribble over the caller's buffers and
      // leave the advanced state, as the AllReduce contract allows.
      for (MatrixSlot& slot : *slots) {
        const int64_t n = slot.quant_shape.element_count();
        for (float* grad : slot.rank_grads) {
          for (int64_t i = 0; i < n; ++i) grad[i] = -777.0f;
        }
        for (std::vector<float>* error : slot.rank_errors) {
          if (error != nullptr) error->assign(error->size(), -888.0f);
        }
      }
      switch (fail_code) {
        case StatusCode::kAborted:
          return AbortedError("rank 1 crashed");
        case StatusCode::kDataLoss:
          return DataLossError("wire checksum mismatch");
        default:
          return UnavailableError("link flap");
      }
    }
    for (MatrixSlot& slot : *slots) {
      const int64_t n = slot.quant_shape.element_count();
      for (float* grad : slot.rank_grads) {
        for (int64_t i = 0; i < n; ++i) grad[i] *= 2.0f;
      }
    }
    CommStats stats;
    const size_t success_index =
        static_cast<size_t>(call - fail_attempts);
    stats.comm_seconds = success_index < durations.size()
                             ? durations[success_index]
                             : 0.25;
    stats.messages = 1;
    return stats;
  }

 private:
  int num_ranks_;
};

struct SlotFixture {
  std::vector<std::vector<float>> grads;           // [rank]
  std::vector<std::vector<float>> errors;          // [rank]
  std::vector<MatrixSlot> slots;

  explicit SlotFixture(int k, int64_t n) {
    MatrixSlot slot;
    slot.quant_shape = Shape({n});
    for (int r = 0; r < k; ++r) {
      std::vector<float> grad(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) {
        grad[static_cast<size_t>(i)] =
            static_cast<float>(r * 100 + i) * 0.5f;
      }
      grads.push_back(std::move(grad));
      errors.emplace_back(static_cast<size_t>(n),
                          static_cast<float>(r) + 0.125f);
    }
    for (int r = 0; r < k; ++r) {
      slot.rank_grads.push_back(grads[static_cast<size_t>(r)].data());
      slot.rank_errors.push_back(&errors[static_cast<size_t>(r)]);
    }
    slots.push_back(std::move(slot));
  }
};

int64_t RetriesCounter() {
  return obs::MetricsRegistry::Global().CounterValue("comm/retries");
}

// The global registry starts disabled; retry accounting only counts while
// it is on. Restores the previous state so other tests see no change.
class MetricsGuard {
 public:
  MetricsGuard() : was_(obs::MetricsRegistry::Global().enabled()) {
    obs::MetricsRegistry::Global().set_enabled(true);
  }
  ~MetricsGuard() { obs::MetricsRegistry::Global().set_enabled(was_); }

 private:
  bool was_;
};

TEST(RetryingAggregatorTest, TransientFailureIsRetriedBitEqually) {
  MetricsGuard metrics;
  const int k = 3;
  const int64_t n = 17;

  // Reference: the same engine logic with no failures.
  SlotFixture expected(k, n);
  {
    FlakyAggregator clean(k);
    ASSERT_TRUE(clean.AllReduce(&expected.slots, 0).ok());
  }

  auto inner = std::make_unique<FlakyAggregator>(k);
  FlakyAggregator* flaky = inner.get();
  flaky->fail_attempts = 2;
  ExchangeRetryOptions options;
  options.max_retries = 3;
  options.backoff_base_seconds = 0.001;
  auto retrying = RetryingAggregator::Create(std::move(inner), options);
  ASSERT_TRUE(retrying.ok());

  const int64_t retries_before = RetriesCounter();
  SlotFixture fixture(k, n);
  auto stats = (*retrying)->AllReduce(&fixture.slots, 0);
  ASSERT_TRUE(stats.ok());

  EXPECT_EQ(flaky->calls, 3);  // two failures + the success
  EXPECT_EQ(RetriesCounter() - retries_before, 2);
  EXPECT_EQ(fixture.grads, expected.grads)
      << "retried exchange is not bit-equal to the clean one";
  EXPECT_EQ(fixture.errors, expected.errors);
  // Backoff penalty: 0.001 before retry 1, 0.002 before retry 2, on top
  // of the successful attempt's own duration.
  EXPECT_NEAR(stats->comm_seconds, 0.25 + 0.003, 1e-12);
  // Internal state advanced exactly once: the wrapper re-imported it
  // before each of the two retries.
  EXPECT_EQ(flaky->imports, 2);
  EXPECT_EQ(flaky->state, 1);
}

TEST(RetryingAggregatorTest, ExhaustedBudgetRestoresSlotsAndReturnsError) {
  MetricsGuard metrics;
  const int k = 2;
  const int64_t n = 9;
  auto inner = std::make_unique<FlakyAggregator>(k);
  FlakyAggregator* flaky = inner.get();
  flaky->fail_attempts = 100;
  flaky->fail_code = StatusCode::kDataLoss;
  ExchangeRetryOptions options;
  options.max_retries = 2;
  auto retrying = RetryingAggregator::Create(std::move(inner), options);
  ASSERT_TRUE(retrying.ok());

  SlotFixture fixture(k, n);
  const auto grads_before = fixture.grads;
  const auto errors_before = fixture.errors;
  const int64_t retries_before = RetriesCounter();
  auto stats = (*retrying)->AllReduce(&fixture.slots, 5);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(flaky->calls, 3);  // initial + 2 retries
  EXPECT_EQ(RetriesCounter() - retries_before, 2);
  EXPECT_EQ(fixture.grads, grads_before)
      << "failed exchange leaked partial writes into the gradients";
  EXPECT_EQ(fixture.errors, errors_before);
  // One import before each retry and one before returning the error.
  EXPECT_EQ(flaky->imports, 3);
  EXPECT_EQ(flaky->state, 0) << "inner state not rolled back on failure";
}

TEST(RetryingAggregatorTest, NonTransientErrorIsNotRetried) {
  MetricsGuard metrics;
  const int k = 2;
  const int64_t n = 5;
  auto inner = std::make_unique<FlakyAggregator>(k);
  FlakyAggregator* flaky = inner.get();
  flaky->fail_attempts = 1;
  flaky->fail_code = StatusCode::kAborted;
  ExchangeRetryOptions options;
  options.max_retries = 5;
  auto retrying = RetryingAggregator::Create(std::move(inner), options);
  ASSERT_TRUE(retrying.ok());

  SlotFixture fixture(k, n);
  const auto grads_before = fixture.grads;
  const int64_t retries_before = RetriesCounter();
  auto stats = (*retrying)->AllReduce(&fixture.slots, 0);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kAborted);
  EXPECT_EQ(flaky->calls, 1) << "ABORTED must not be retried";
  EXPECT_EQ(RetriesCounter() - retries_before, 0);
  EXPECT_EQ(fixture.grads, grads_before);
  EXPECT_EQ(flaky->state, 0) << "inner state not rolled back on failure";
}

TEST(RetryingAggregatorTest, OverDeadlineSuccessIsDiscardedAndRetried) {
  const int k = 2;
  const int64_t n = 13;

  SlotFixture expected(k, n);
  {
    FlakyAggregator clean(k);
    ASSERT_TRUE(clean.AllReduce(&expected.slots, 0).ok());
  }

  auto inner = std::make_unique<FlakyAggregator>(k);
  FlakyAggregator* flaky = inner.get();
  flaky->durations = {10.0, 0.5};  // first exchange blows the deadline
  ExchangeRetryOptions options;
  options.max_retries = 1;
  options.timeout_seconds = 1.0;
  options.backoff_base_seconds = 0.001;
  auto retrying = RetryingAggregator::Create(std::move(inner), options);
  ASSERT_TRUE(retrying.ok());

  SlotFixture fixture(k, n);
  auto stats = (*retrying)->AllReduce(&fixture.slots, 0);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(flaky->calls, 2);
  EXPECT_GE(flaky->imports, 1)
      << "discarding a slow success must restore the inner engine's state";
  EXPECT_EQ(flaky->state, 1)
      << "inner state not restored after the deadline discard";
  EXPECT_EQ(fixture.grads, expected.grads)
      << "slow first exchange leaked into the accepted result";
  // The discarded attempt's 10s and the backoff are charged as penalty on
  // top of the accepted attempt's 0.5s.
  EXPECT_NEAR(stats->comm_seconds, 0.5 + 10.0 + 0.001, 1e-9);

  // With no deadline the same slow exchange is accepted first try.
  auto relaxed_inner = std::make_unique<FlakyAggregator>(k);
  relaxed_inner->durations = {10.0};
  ExchangeRetryOptions relaxed;
  relaxed.max_retries = 1;
  auto relaxed_retrying =
      RetryingAggregator::Create(std::move(relaxed_inner), relaxed);
  ASSERT_TRUE(relaxed_retrying.ok());
  SlotFixture relaxed_fixture(k, n);
  auto relaxed_stats = (*relaxed_retrying)->AllReduce(&relaxed_fixture.slots, 0);
  ASSERT_TRUE(relaxed_stats.ok());
  EXPECT_NEAR(relaxed_stats->comm_seconds, 10.0, 1e-9);
}

// A deadline overrun is synthesized by the retry layer itself — above the
// exchange observer, which only sees the inner engine's OK result — so the
// retry layer must file its own flight record, exactly once per overrun.
TEST(RetryingAggregatorTest, DeadlineOverrunFilesOneFlightRecord) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  const bool was_enabled = recorder.enabled();
  recorder.set_enabled(true);
  recorder.Reset();

  auto inner = std::make_unique<FlakyAggregator>(2);
  inner->durations = {10.0, 0.5};  // only the first attempt overruns
  ExchangeRetryOptions options;
  options.max_retries = 1;
  options.timeout_seconds = 1.0;
  auto retrying = RetryingAggregator::Create(std::move(inner), options);
  ASSERT_TRUE(retrying.ok());

  SlotFixture fixture(2, 13);
  ASSERT_TRUE((*retrying)->AllReduce(&fixture.slots, 7).ok());

  EXPECT_EQ(recorder.dump_count(), 1);
  const obs::JsonValue dump = recorder.LastDump();
  EXPECT_EQ(dump.At("kind").AsString(), "flight_record");
  EXPECT_EQ(dump.At("trigger").At("code_name").AsString(),
            "DEADLINE_EXCEEDED");
  EXPECT_EQ(dump.At("trigger").At("iteration").AsInt(), 7);

  recorder.Reset();
  recorder.set_enabled(was_enabled);
}

TEST(RetryingAggregatorTest, CreateAggregatorWrapsOnlyWhenEnabled) {
  ExchangeRetryOptions disabled;
  auto plain = CreateAggregator(CommPrimitive::kMpi, 4, QsgdSpec(4),
                                Ec2P2_8xlarge(), ExecutionContext::Serial(),
                                disabled);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ((*plain)->Name().find("retry"), std::string::npos);

  ExchangeRetryOptions enabled;
  enabled.max_retries = 2;
  auto wrapped = CreateAggregator(CommPrimitive::kMpi, 4, QsgdSpec(4),
                                  Ec2P2_8xlarge(), ExecutionContext::Serial(),
                                  enabled);
  ASSERT_TRUE(wrapped.ok());
  EXPECT_NE((*wrapped)->Name().find("retry(2)"), std::string::npos)
      << (*wrapped)->Name();
  EXPECT_EQ((*wrapped)->num_ranks(), 4);
}

TEST(RetryingAggregatorTest, CreateRejectsBadBudgets) {
  ExchangeRetryOptions negative;
  negative.max_retries = -1;
  EXPECT_FALSE(
      RetryingAggregator::Create(std::make_unique<FlakyAggregator>(2),
                                 negative)
          .ok());
  EXPECT_FALSE(
      RetryingAggregator::Create(nullptr, ExchangeRetryOptions{}).ok());
}

}  // namespace
}  // namespace lpsgd
