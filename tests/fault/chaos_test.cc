// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Seeded chaos runs (ISSUE: deterministic fault injection and recovery):
// a training run that survives stragglers, transient exchange failures,
// and corrupted wire bytes via retry + rollback-and-replay must end in a
// committed trainer state (params, momentum, per-rank residuals,
// iteration) bit-equal to the fault-free run, with every recovery metric
// matching the fault plan exactly. A rank crash instead degrades to the
// survivors and completes.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/strings.h"
#include "ckpt/format.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "nn/model_zoo.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace lpsgd {
namespace {

SyntheticImageDataset MakeImages(int64_t n, int64_t offset = 0) {
  SyntheticImageOptions options;
  options.num_classes = 4;
  options.channels = 1;
  options.height = 4;
  options.width = 4;
  options.num_samples = n;
  options.signal = 2.0f;
  options.noise = 0.5f;
  options.sample_offset = offset;
  return SyntheticImageDataset(options);
}

SyncTrainer::NetworkFactory MlpFactory() {
  return [](uint64_t seed) { return BuildMlp({16, 12, 4}, seed); };
}

TrainerOptions BaseOptions(const CodecSpec& codec, CommPrimitive primitive) {
  TrainerOptions options;
  options.num_gpus = 4;
  options.global_batch_size = 32;
  options.learning_rate = 0.05f;
  options.codec = codec;
  options.primitive = primitive;
  options.seed = 7;
  options.execution = ExecutionContext::Serial();
  return options;
}

struct RunResult {
  std::vector<EpochMetrics> metrics;
  ckpt::TrainerState state;
  int live_gpus = 0;
};

// The sections rollback and replay must reproduce bit for bit, serialized
// so they compare bytewise: params, optimizer momentum, per-rank residuals
// and the iteration. The virtual clock and the comm totals legitimately
// differ (retries, replay and stragglers cost time), and rollback leaves
// the MPI owner residuals at their latest value.
std::string CommittedBytes(const ckpt::TrainerState& state) {
  ckpt::TrainerState committed;
  committed.iteration = state.iteration;
  committed.params = state.params;
  committed.optimizer = state.optimizer;
  committed.residuals = state.residuals;
  return ckpt::Serialize(committed);
}

// Runs `epochs` epochs and returns the metrics plus the final trainer
// state. Fails the test (and returns empty) if anything errors.
RunResult RunTraining(TrainerOptions options, const Dataset& train,
                      const Dataset& test, int epochs) {
  auto trainer = SyncTrainer::Create(MlpFactory(), options);
  EXPECT_TRUE(trainer.ok()) << trainer.status();
  if (!trainer.ok()) return {};
  auto metrics = (*trainer)->Train(train, test, epochs);
  EXPECT_TRUE(metrics.ok()) << metrics.status();
  if (!metrics.ok()) return {};
  return RunResult{*std::move(metrics), (*trainer)->CaptureState(),
                   (*trainer)->live_gpus()};
}

// Counter deltas around one chaos run, with the global registry enabled
// for the duration (it starts disabled; restored afterwards).
struct FaultCounters {
  int64_t injected = 0;
  int64_t retries = 0;
  int64_t rollbacks = 0;
  int64_t checksum_failures = 0;

  static FaultCounters Snapshot() {
    const auto& registry = obs::MetricsRegistry::Global();
    return FaultCounters{registry.CounterValue("fault/injected"),
                         registry.CounterValue("comm/retries"),
                         registry.CounterValue("trainer/rollbacks"),
                         registry.CounterValue("comm/checksum_failures")};
  }

  FaultCounters Since(const FaultCounters& before) const {
    return FaultCounters{injected - before.injected,
                         retries - before.retries,
                         rollbacks - before.rollbacks,
                         checksum_failures - before.checksum_failures};
  }
};

class MetricsGuard {
 public:
  MetricsGuard() : was_(obs::MetricsRegistry::Global().enabled()) {
    obs::MetricsRegistry::Global().set_enabled(true);
  }
  ~MetricsGuard() { obs::MetricsRegistry::Global().set_enabled(was_); }

 private:
  bool was_;
};

// Enables the global flight recorder (memory-only) for one test and
// restores the previous state afterwards.
class FlightRecorderGuard {
 public:
  FlightRecorderGuard() : was_(obs::FlightRecorder::Global().enabled()) {
    obs::FlightRecorder::Global().set_enabled(true);
    obs::FlightRecorder::Global().Reset();
  }
  ~FlightRecorderGuard() {
    obs::FlightRecorder::Global().Reset();
    obs::FlightRecorder::Global().set_enabled(was_);
  }

 private:
  bool was_;
};

// The quality metrics (loss/accuracy per epoch) must be exactly equal;
// communication accounting legitimately differs (retries, replay, and
// straggler delays all cost extra virtual time and bytes).
void ExpectSameLearningCurve(const std::vector<EpochMetrics>& fault_free,
                             const std::vector<EpochMetrics>& recovered) {
  ASSERT_EQ(fault_free.size(), recovered.size());
  for (size_t e = 0; e < fault_free.size(); ++e) {
    SCOPED_TRACE(e);
    EXPECT_DOUBLE_EQ(fault_free[e].train_loss, recovered[e].train_loss);
    EXPECT_DOUBLE_EQ(fault_free[e].train_accuracy,
                     recovered[e].train_accuracy);
    EXPECT_DOUBLE_EQ(fault_free[e].test_loss, recovered[e].test_loss);
    EXPECT_DOUBLE_EQ(fault_free[e].test_accuracy,
                     recovered[e].test_accuracy);
  }
}

struct ChaosConfig {
  const char* name;
  CodecSpec codec;
  CommPrimitive primitive;
  // The run keeps per-rank error-feedback residuals, so rollback must
  // rewind them.
  bool has_residuals = false;
};

class ChaosRecoveryTest : public ::testing::TestWithParam<ChaosConfig> {};

// 128 samples / batch 32 = 4 iterations per epoch; 2 epochs = iterations
// 0..7. The plan strikes a straggler at 2, two consecutive transient
// failures at 3 (which with max_retries=1 exhausts the exchange budget
// and forces a trainer rollback), and one corrupted exchange at 5 (which
// a single retry absorbs). Exact expected accounting:
//   fault/injected          5  (straggle twice: original + replay;
//                               fail twice; corrupt once)
//   comm/retries            2  (one failed retry at 3, one good at 5)
//   trainer/rollbacks       1  (budget exhausted at iteration 3)
//   comm/checksum_failures  1  (the corruption probe's decode)
TEST_P(ChaosRecoveryTest, RecoveredRunIsBitEqualToFaultFreeRun) {
  MetricsGuard metrics;
  const auto train = MakeImages(128);
  const auto test = MakeImages(64, 1 << 20);
  const ChaosConfig& config = GetParam();

  const RunResult fault_free = RunTraining(
      BaseOptions(config.codec, config.primitive), train, test, 2);
  ASSERT_EQ(fault_free.state.iteration, 8);
  ASSERT_FALSE(fault_free.state.optimizer.empty());
  if (config.has_residuals) {
    const auto& rank0 = fault_free.state.residuals.at(0);
    ASSERT_TRUE(std::any_of(rank0.begin(), rank0.end(),
                            [](const auto& r) { return !r.empty(); }));
  }

  TrainerOptions faulted = BaseOptions(config.codec, config.primitive);
  auto plan = fault::FaultPlan::Parse("straggle@2:0.5;fail@3x2;corrupt@5");
  ASSERT_TRUE(plan.ok()) << plan.status();
  faulted.fault_tolerance.plan = *plan;
  faulted.fault_tolerance.retry.max_retries = 1;
  faulted.fault_tolerance.checkpoint_every = 2;

  const FaultCounters before = FaultCounters::Snapshot();
  const RunResult recovered = RunTraining(faulted, train, test, 2);
  const FaultCounters delta = FaultCounters::Snapshot().Since(before);

  EXPECT_EQ(CommittedBytes(recovered.state), CommittedBytes(fault_free.state))
      << "recovery did not reproduce the fault-free params, momentum, "
         "residuals and iteration bit-for-bit";
  ExpectSameLearningCurve(fault_free.metrics, recovered.metrics);
  EXPECT_EQ(recovered.live_gpus, 4);

  EXPECT_EQ(delta.injected, 5);
  EXPECT_EQ(delta.retries, 2);
  EXPECT_EQ(delta.rollbacks, 1);
  EXPECT_EQ(delta.checksum_failures, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Fabrics, ChaosRecoveryTest,
    ::testing::Values(
        ChaosConfig{"Fp32Mpi", FullPrecisionSpec(), CommPrimitive::kMpi},
        ChaosConfig{"Fp32Nccl", FullPrecisionSpec(), CommPrimitive::kNccl},
        ChaosConfig{"Qsgd4Mpi", QsgdSpec(4), CommPrimitive::kMpi},
        ChaosConfig{"Qsgd4Nccl", QsgdSpec(4), CommPrimitive::kNccl},
        ChaosConfig{"TopK025Nccl", TopKSpec(0.25), CommPrimitive::kNccl,
                    /*has_residuals=*/true},
        ChaosConfig{"Ecq4Nccl", EcqSgdSpec(4), CommPrimitive::kNccl}),
    [](const ::testing::TestParamInfo<ChaosConfig>& info) {
      return info.param.name;
    });

// Replaying the identical seed and plan must reproduce the identical run:
// full trainer states and learning curves are bit-equal between two chaos
// runs.
TEST(ChaosRecoveryTest, SameSeedReplaysIdentically) {
  MetricsGuard metrics;
  const auto train = MakeImages(128);
  const auto test = MakeImages(64, 1 << 20);

  TrainerOptions options = BaseOptions(QsgdSpec(4), CommPrimitive::kMpi);
  auto plan = fault::FaultPlan::Parse("straggle@2:0.5;fail@3x2;corrupt@5");
  ASSERT_TRUE(plan.ok());
  options.fault_tolerance.plan = *plan;
  options.fault_tolerance.retry.max_retries = 1;
  options.fault_tolerance.checkpoint_every = 2;

  const RunResult first = RunTraining(options, train, test, 2);
  const RunResult second = RunTraining(options, train, test, 2);
  ASSERT_EQ(first.state.iteration, 8);
  EXPECT_EQ(ckpt::Serialize(first.state), ckpt::Serialize(second.state));
  ExpectSameLearningCurve(first.metrics, second.metrics);
}

// A rank crash at iteration 5 (epoch 2) aborts the exchange; the trainer
// drops the dead rank, rolls back to the epoch's snapshot, replays, and
// finishes on the 3 survivors. Exactly one injection (the ABORTED
// exchange) and one rollback; the rebuilt aggregator has the satisfied
// crash stripped, so nothing fires again.
TEST(ChaosRecoveryTest, RankCrashDegradesToSurvivors) {
  MetricsGuard metrics;
  const auto train = MakeImages(128);
  const auto test = MakeImages(64, 1 << 20);

  TrainerOptions options = BaseOptions(QsgdSpec(4), CommPrimitive::kMpi);
  auto plan = fault::FaultPlan::Parse("crash@5:1");
  ASSERT_TRUE(plan.ok());
  options.fault_tolerance.plan = *plan;
  options.fault_tolerance.retry.max_retries = 1;
  options.fault_tolerance.checkpoint_every = 2;

  const FaultCounters before = FaultCounters::Snapshot();
  const RunResult result = RunTraining(options, train, test, 2);
  const FaultCounters delta = FaultCounters::Snapshot().Since(before);

  ASSERT_EQ(result.metrics.size(), 2u);
  EXPECT_EQ(result.live_gpus, 3);
  EXPECT_EQ(result.state.rank_count, 3);
  // Both epochs trained on real data (batches re-trimmed to multiples of
  // the 3 survivors after the drop).
  EXPECT_GT(result.metrics[1].train_accuracy, 0.0);

  EXPECT_EQ(delta.injected, 1);
  EXPECT_EQ(delta.rollbacks, 1);
  EXPECT_EQ(delta.retries, 0);
  EXPECT_EQ(delta.checksum_failures, 0);
}

// Which rank crashes must not matter: the survivors hold identical
// parameters and share one optimizer, and shards follow live-rank order.
// Losing rank 0 — the rank whose parameters the trainer steps and mirrors —
// must therefore commit the same state as losing rank 1.
TEST(ChaosRecoveryTest, DroppingRankZeroMatchesDroppingRankOne) {
  const auto train = MakeImages(128);
  const auto test = MakeImages(64, 1 << 20);
  for (const CodecSpec& codec : {FullPrecisionSpec(), QsgdSpec(4)}) {
    for (CommPrimitive primitive :
         {CommPrimitive::kMpi, CommPrimitive::kNccl}) {
      SCOPED_TRACE(StrCat(codec.Label(), " ", CommPrimitiveName(primitive)));
      std::string committed[2];
      for (int rank : {0, 1}) {
        TrainerOptions options = BaseOptions(codec, primitive);
        auto plan = fault::FaultPlan::Parse(StrCat("crash@5:", rank));
        ASSERT_TRUE(plan.ok()) << plan.status();
        options.fault_tolerance.plan = *plan;
        options.fault_tolerance.retry.max_retries = 1;
        options.fault_tolerance.checkpoint_every = 2;
        const RunResult result = RunTraining(options, train, test, 2);
        ASSERT_EQ(result.live_gpus, 3);
        committed[rank] = CommittedBytes(result.state);
      }
      EXPECT_EQ(committed[0], committed[1]);
    }
  }
}

// Without checkpoints (and without retry budget) a crash still degrades:
// the failed iteration committed nothing, so the trainer just drops the
// rank and re-runs the current batch on the survivors.
TEST(ChaosRecoveryTest, RankCrashRecoversWithoutCheckpoints) {
  MetricsGuard metrics;
  const auto train = MakeImages(128);
  const auto test = MakeImages(64, 1 << 20);

  TrainerOptions options = BaseOptions(FullPrecisionSpec(),
                                       CommPrimitive::kMpi);
  auto plan = fault::FaultPlan::Parse("crash@2:0");
  ASSERT_TRUE(plan.ok());
  options.fault_tolerance.plan = *plan;

  const FaultCounters before = FaultCounters::Snapshot();
  const RunResult result = RunTraining(options, train, test, 2);
  const FaultCounters delta = FaultCounters::Snapshot().Since(before);

  ASSERT_EQ(result.metrics.size(), 2u);
  EXPECT_EQ(result.live_gpus, 3);
  EXPECT_EQ(delta.injected, 1);
  EXPECT_EQ(delta.rollbacks, 0);
  EXPECT_EQ(delta.retries, 0);
}

// Disabling degrade-to-survivors turns the crash into a hard run failure.
TEST(ChaosRecoveryTest, CrashFailsRunWhenDegradeDisabled) {
  const auto train = MakeImages(128);
  const auto test = MakeImages(64, 1 << 20);

  TrainerOptions options = BaseOptions(FullPrecisionSpec(),
                                       CommPrimitive::kMpi);
  auto plan = fault::FaultPlan::Parse("crash@1:2");
  ASSERT_TRUE(plan.ok());
  options.fault_tolerance.plan = *plan;
  options.fault_tolerance.degrade_to_survivors = false;

  auto trainer = SyncTrainer::Create(MlpFactory(), options);
  ASSERT_TRUE(trainer.ok()) << trainer.status();
  auto metrics = (*trainer)->Train(train, test, 1);
  ASSERT_FALSE(metrics.ok());
  int rank = -1;
  EXPECT_TRUE(fault::IsRankCrash(metrics.status(), &rank));
  EXPECT_EQ(rank, 2);
}

// Every injected failure surfaces as exactly one flight-recorder dump:
// two transient failures at iteration 1 (each non-OK exchange below the
// retry layer is dumped by the observer before the retry re-attempts), one
// corrupted exchange at 3, and the ABORTED crash at 5. The replay after
// degrading to survivors injects nothing, so the total stays 4 and the
// last dump's trigger is the crash.
TEST(ChaosRecoveryTest, FlightRecorderDumpsOncePerInjectedFailure) {
  MetricsGuard metrics;
  FlightRecorderGuard flight;
  const auto train = MakeImages(128);
  const auto test = MakeImages(64, 1 << 20);

  TrainerOptions options = BaseOptions(QsgdSpec(4), CommPrimitive::kMpi);
  auto plan = fault::FaultPlan::Parse("fail@1x2;corrupt@3;crash@5:1");
  ASSERT_TRUE(plan.ok()) << plan.status();
  options.fault_tolerance.plan = *plan;
  options.fault_tolerance.retry.max_retries = 2;
  options.fault_tolerance.checkpoint_every = 2;

  const RunResult result = RunTraining(options, train, test, 2);
  ASSERT_EQ(result.metrics.size(), 2u);
  EXPECT_EQ(result.live_gpus, 3);

  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  EXPECT_EQ(recorder.dump_count(), 4)
      << "expected one dump per injected failure (2 fails + corrupt + crash)";

  // The last dump is the crash; validate the documented schema.
  const obs::JsonValue dump = recorder.LastDump();
  EXPECT_EQ(dump.At("schema_version").AsInt(), 1);
  EXPECT_EQ(dump.At("kind").AsString(), "flight_record");
  const obs::JsonValue& trigger = dump.At("trigger");
  EXPECT_EQ(trigger.At("code_name").AsString(), "ABORTED");
  EXPECT_EQ(trigger.At("iteration").AsInt(), 5);
  EXPECT_GE(trigger.At("sequence").AsInt(), 0);
  EXPECT_GE(dump.At("metric_deltas").At("fault/injected").AsInt(), 1);

  // The ring history carries the earlier failures' trigger markers and the
  // successful exchanges between them.
  const auto& records = dump.At("records").AsArray();
  ASSERT_FALSE(records.empty());
  bool saw_unavailable_marker = false;
  bool saw_ok_exchange = false;
  for (const obs::JsonValue& record : records) {
    const std::string& label = record.At("label").AsString();
    if (label == "fail:UNAVAILABLE") saw_unavailable_marker = true;
    if (label == "exchange_ok") saw_ok_exchange = true;
  }
  EXPECT_TRUE(saw_unavailable_marker);
  EXPECT_TRUE(saw_ok_exchange);

  // Schema-valid means it round-trips through the JSON parser.
  auto parsed = obs::JsonValue::Parse(dump.Dump(2));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->At("trigger").At("code_name").AsString(), "ABORTED");
}

// With the recorder disabled (the default), the same chaos run files
// nothing: no records, no dumps.
TEST(ChaosRecoveryTest, DisabledFlightRecorderStaysEmptyUnderChaos) {
  MetricsGuard metrics;
  obs::FlightRecorder::Global().Reset();
  const auto train = MakeImages(128);
  const auto test = MakeImages(64, 1 << 20);

  TrainerOptions options = BaseOptions(QsgdSpec(4), CommPrimitive::kMpi);
  auto plan = fault::FaultPlan::Parse("fail@1x2;corrupt@3");
  ASSERT_TRUE(plan.ok());
  options.fault_tolerance.plan = *plan;
  options.fault_tolerance.retry.max_retries = 2;

  const RunResult result = RunTraining(options, train, test, 1);
  ASSERT_EQ(result.metrics.size(), 1u);
  EXPECT_EQ(obs::FlightRecorder::Global().dump_count(), 0);
  EXPECT_EQ(obs::FlightRecorder::Global().record_count(), 0);
}

}  // namespace
}  // namespace lpsgd
