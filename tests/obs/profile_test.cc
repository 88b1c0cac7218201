// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "obs/profile.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/logging.h"
#include "base/rng.h"
#include "obs/json.h"
#include "quant/codec.h"
#include "quant/workspace.h"
#include "tensor/tensor.h"

namespace lpsgd {
namespace obs {
namespace {

// Enables the global profiler for one test and restores it after (a
// span's fast path consults the global mask, not a local instance).
class ProfileGuard {
 public:
  ProfileGuard() : was_(Profiler::Global().enabled()) {
    Profiler::Global().set_enabled(true);
    Profiler::Global().Reset();
  }
  ~ProfileGuard() {
    Profiler::Global().Reset();
    Profiler::Global().set_enabled(was_);
  }

 private:
  bool was_;
};

// One-phase PhaseTimes blocks, as a span or a virtual charge leaves them.
PhaseTimes Wall(int phase, double seconds) {
  PhaseTimes times;
  times.Add(phase, seconds);
  return times;
}

PhaseTimes Virtual(int phase, double seconds) {
  PhaseTimes times;
  times.AddVirtual(phase, seconds);
  return times;
}

class FlightGuard {
 public:
  FlightGuard() : was_(FlightRecorder::Global().enabled()) {
    FlightRecorder::Global().set_enabled(true);
    FlightRecorder::Global().Reset();
  }
  ~FlightGuard() {
    FlightRecorder::Global().Reset();
    FlightRecorder::Global().set_output_prefix("");
    FlightRecorder::Global().set_enabled(was_);
  }

 private:
  bool was_;
};

TEST(PhaseTimesTest, AddMergeAndTotals) {
  PhaseTimes times;
  times.Add(kPhaseEncode, 0.25);
  times.Add(kPhaseEncode, 0.25);
  times.AddVirtual(kPhaseWire, 1.5);
  EXPECT_DOUBLE_EQ(times.wall[kPhaseEncode], 0.5);
  EXPECT_EQ(times.calls[kPhaseEncode], 2);
  EXPECT_DOUBLE_EQ(times.WallTotal(), 0.5);
  EXPECT_DOUBLE_EQ(times.VirtualTotal(), 1.5);

  PhaseTimes other;
  other.Add(kPhaseDecode, 0.5);
  times.Merge(other);
  EXPECT_DOUBLE_EQ(times.WallTotal(), 1.0);
  EXPECT_EQ(times.calls[kPhaseDecode], 1);

  times.Clear();
  EXPECT_DOUBLE_EQ(times.WallTotal(), 0.0);
  EXPECT_DOUBLE_EQ(times.VirtualTotal(), 0.0);
  EXPECT_EQ(times.calls[kPhaseEncode], 0);
}

TEST(PhaseTimesTest, PhaseNamesAreStable) {
  EXPECT_STREQ(ProfilePhaseName(kPhaseForward), "forward");
  EXPECT_STREQ(ProfilePhaseName(kPhaseBackward), "backward");
  EXPECT_STREQ(ProfilePhaseName(kPhaseOptimizer), "optimizer");
  EXPECT_STREQ(ProfilePhaseName(kPhaseEncode), "encode");
  EXPECT_STREQ(ProfilePhaseName(kPhaseWire), "wire");
  EXPECT_STREQ(ProfilePhaseName(kPhaseDecode), "decode");
  EXPECT_STREQ(ProfilePhaseName(kPhaseSum), "sum");
  EXPECT_STREQ(ProfilePhaseName(kPhaseRetry), "retry");
}

TEST(TimeBreakdownTest, CoverageIsAttributedOverMeasured) {
  TimeBreakdown breakdown;
  breakdown.wall_total = 2.0;
  breakdown.phases.Add(kPhaseForward, 1.0);
  breakdown.phases.Add(kPhaseBackward, 0.98);
  EXPECT_DOUBLE_EQ(breakdown.AttributedWall(), 1.98);
  EXPECT_DOUBLE_EQ(breakdown.Coverage(), 0.99);
  // Nothing measured yet: coverage is vacuously complete, not NaN.
  EXPECT_DOUBLE_EQ(TimeBreakdown{}.Coverage(), 1.0);
}

TEST(ProfilerTest, StepsFoldIntoHistoryAndTotals) {
  Profiler profiler(/*enabled=*/true);
  for (int64_t step = 0; step < 3; ++step) {
    profiler.BeginStep(step);
    profiler.AddPhases(Wall(kPhaseForward, 0.5));
    profiler.AddPhases(Virtual(kPhaseWire, 2.0));
    profiler.EndStep(/*virtual_seconds=*/2.5);
  }

  EXPECT_EQ(profiler.steps_recorded(), 3);
  const TimeBreakdown last = profiler.LastStep();
  EXPECT_EQ(last.step, 2);
  EXPECT_DOUBLE_EQ(last.phases.wall[kPhaseForward], 0.5);
  EXPECT_GE(last.wall_total, 0.0);

  const TimeBreakdown totals = profiler.Totals();
  EXPECT_EQ(totals.steps, 3);
  EXPECT_DOUBLE_EQ(totals.phases.wall[kPhaseForward], 1.5);
  EXPECT_DOUBLE_EQ(totals.virtual_total, 7.5);

  const std::vector<TimeBreakdown> steps = profiler.Steps();
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps.front().step, 0);
  EXPECT_EQ(steps.back().step, 2);
}

TEST(ProfilerTest, DisabledProfilerRecordsNothing) {
  Profiler profiler(/*enabled=*/false);
  profiler.BeginStep(0);
  profiler.AddPhases(Wall(kPhaseForward, 1.0));
  profiler.EndStep(1.0);
  EXPECT_EQ(profiler.steps_recorded(), 0);
  EXPECT_DOUBLE_EQ(profiler.Totals().phases.WallTotal(), 0.0);
}

TEST(ProfilerTest, AbandonedStepIsDiscardedByNextBegin) {
  Profiler profiler(/*enabled=*/true);
  profiler.BeginStep(0);
  profiler.AddPhases(Wall(kPhaseForward, 1.0));  // step 0 never ends (failed)
  profiler.BeginStep(1);
  profiler.AddPhases(Wall(kPhaseBackward, 0.25));
  profiler.EndStep(0.0);

  EXPECT_EQ(profiler.steps_recorded(), 1);
  const TimeBreakdown totals = profiler.Totals();
  EXPECT_DOUBLE_EQ(totals.phases.wall[kPhaseForward], 0.0);
  EXPECT_DOUBLE_EQ(totals.phases.wall[kPhaseBackward], 0.25);
}

TEST(ProfilerTest, JsonExportMatchesSchema) {
  Profiler profiler(/*enabled=*/true);
  profiler.BeginStep(7);
  profiler.AddPhases(Wall(kPhaseEncode, 0.125));
  profiler.AddPhases(Virtual(kPhaseWire, 3.0));
  profiler.EndStep(3.0);

  // Round-trip through the serializer: the export must stay parseable.
  auto parsed = JsonValue::Parse(profiler.ToJson().Dump(2));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const JsonValue& root = *parsed;
  EXPECT_EQ(root.At("schema_version").AsInt(), 1);
  EXPECT_EQ(root.At("kind").AsString(), "profile");
  EXPECT_EQ(root.At("steps_recorded").AsInt(), 1);

  const JsonValue& totals = root.At("totals");
  EXPECT_TRUE(totals.Has("coverage"));
  EXPECT_TRUE(totals.Has("attributed_wall"));
  const JsonValue& phases = totals.At("phases");
  for (int p = 0; p < kNumProfilePhases; ++p) {
    ASSERT_TRUE(phases.Has(ProfilePhaseName(p))) << ProfilePhaseName(p);
    const JsonValue& entry = phases.At(ProfilePhaseName(p));
    EXPECT_TRUE(entry.Has("wall"));
    EXPECT_TRUE(entry.Has("virtual"));
    EXPECT_TRUE(entry.Has("calls"));
    EXPECT_TRUE(entry.Has("wall_share"));
  }
  EXPECT_DOUBLE_EQ(
      phases.At("encode").At("wall_share").AsDouble(), 1.0);

  const JsonValue& steps = root.At("steps");
  ASSERT_EQ(steps.size(), 1u);
  EXPECT_EQ(steps.AsArray()[0].At("step").AsInt(), 7);
}

// The one trace writer places phase spans at their measured times: inside
// the step's own wall span, on the opening thread's lane, categorized by
// phase.
TEST(ProfilerTest, PhaseSpansLandInTraceAtMeasuredTimes) {
  static constexpr SpanSite kStepSite{"test/step"};
  static constexpr SpanSite kForwardSite{"test/forward", kPhaseForward};
  ProfileGuard guard;
  const bool was_tracing = Tracer::Global().enabled();
  Tracer::Global().set_enabled(true);
  Tracer::Global().Reset();
  PhaseTimes times;
  {
    Span step(kStepSite);
    Profiler::Global().BeginStep(3);
    { Span forward(kForwardSite, &times); }
    Profiler::Global().AddPhases(times);
    Profiler::Global().EndStep(1.0);
  }
  EXPECT_EQ(Profiler::Global().LastStep().phases.calls[kPhaseForward], 1);

  const JsonValue trace = Tracer::Global().ToChromeTraceJson();
  Tracer::Global().Reset();
  Tracer::Global().set_enabled(was_tracing);
  const auto& events = trace.At("traceEvents").AsArray();
  ASSERT_EQ(events.size(), 2u);
  // Close order: the phase span first, then the enclosing step.
  const JsonValue& forward = events[0];
  const JsonValue& step = events[1];
  EXPECT_EQ(forward.At("cat").AsString(), "forward");
  EXPECT_EQ(forward.At("tid").AsInt(), step.At("tid").AsInt());
  EXPECT_GE(forward.At("ts").AsDouble(), step.At("ts").AsDouble());
  EXPECT_LE(forward.At("ts").AsDouble() + forward.At("dur").AsDouble(),
            step.At("ts").AsDouble() + step.At("dur").AsDouble());
}

TEST(ProfilerTest, TableListsEveryPhaseAndCoverage) {
  Profiler profiler(/*enabled=*/true);
  profiler.BeginStep(0);
  profiler.AddPhases(Wall(kPhaseDecode, 0.5));
  profiler.EndStep(0.5);

  std::ostringstream os;
  profiler.PrintTable(os);
  const std::string table = os.str();
  for (int p = 0; p < kNumProfilePhases; ++p) {
    EXPECT_NE(table.find(ProfilePhaseName(p)), std::string::npos);
  }
  EXPECT_NE(table.find("total (measured)"), std::string::npos);
  EXPECT_NE(table.find("% covered"), std::string::npos);
}

TEST(ProfilerTest, WriteFileProducesParseableJson) {
  Profiler profiler(/*enabled=*/true);
  profiler.BeginStep(0);
  profiler.AddPhases(Wall(kPhaseForward, 0.1));
  profiler.EndStep(0.1);

  const std::string path = ::testing::TempDir() + "/profile_test_out.json";
  ASSERT_TRUE(WriteJsonFile(path, profiler.ToJson()).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream contents;
  contents << in.rdbuf();
  EXPECT_TRUE(JsonValue::Parse(contents.str()).ok()) << path;
  std::remove(path.c_str());
}

TEST(PhaseSpanTest, RecordsIntoSinkWhileProfiling) {
  static constexpr SpanSite kSite{"test/encode", kPhaseEncode};
  ProfileGuard guard;
  PhaseTimes times;
  { Span span(kSite, &times); }
  EXPECT_EQ(times.calls[kPhaseEncode], 1);
  EXPECT_GE(times.wall[kPhaseEncode], 0.0);
}

// The disabled-cost contract: with every exporter off a span is one
// relaxed load and a branch, and no clock read. Measured directly — the
// minimum-of-trials cost of 10^6 disabled spans in a tight loop — times
// the number of spans one encode opens (counted from one traced encode),
// it must stay within 1% of the encode's own minimum time. Timing the
// disabled span in isolation keeps the encode's run-to-run noise, which is
// larger than 1%, out of the comparison.
TEST(PhaseSpanTest, DisabledSpansCostUnderOnePercentOfAnEncode) {
  static constexpr SpanSite kSite{"test/encode", kPhaseEncode,
                                  "test/encode_seconds"};
  const uint32_t saved = Exporters();
  const int64_t n = 3 << 17;  // ~393k elements, ~1 ms per encode
  Tensor grad(Shape({n}));
  Rng rng(42);
  grad.FillGaussian(&rng, 1.0f);
  auto codec = QsgdSpec(4).Create();
  ASSERT_TRUE(codec.ok());
  CodecWorkspace workspace;
  std::vector<uint8_t> blob;
  uint64_t tag = 0;

  // Spans per encode, from one encode with the trace exporter on.
  SetExporters(kExportTrace);
  Tracer::Global().Reset();
  (*codec)->Encode(grad.data(), grad.shape(), tag++, nullptr, &workspace,
                   &blob);
  const size_t spans_per_encode = Tracer::Global().Records().size();
  Tracer::Global().Reset();
  SetExporters(0);
  ASSERT_GE(spans_per_encode, 1u);

  constexpr int kTrials = 9;
  double encode_seconds = 1e300;
  for (int trial = 0; trial < kTrials; ++trial) {
    const double start = MonotonicSeconds();
    (*codec)->Encode(grad.data(), grad.shape(), tag++, nullptr, &workspace,
                     &blob);
    encode_seconds = std::min(encode_seconds, MonotonicSeconds() - start);
  }

  constexpr int kSpans = 1000000;
  PhaseTimes times;
  double loop_seconds = 1e300;
  for (int trial = 0; trial < kTrials; ++trial) {
    const double start = MonotonicSeconds();
    for (int i = 0; i < kSpans; ++i) {
      Span span(kSite, &times);
    }
    loop_seconds = std::min(loop_seconds, MonotonicSeconds() - start);
  }
  SetExporters(saved);

  EXPECT_EQ(times.calls[kPhaseEncode], 0) << "spans recorded while disabled";
  const double span_seconds = loop_seconds / kSpans;
  EXPECT_LE(static_cast<double>(spans_per_encode) * span_seconds,
            0.01 * encode_seconds)
      << spans_per_encode << " disabled spans of " << span_seconds * 1e9
      << " ns each vs a " << encode_seconds * 1e3 << " ms encode";
}

TEST(FlightRecorderTest, DisabledRecorderDropsRecords) {
  FlightRecorder recorder(/*enabled=*/false);
  recorder.Record(0, kPhaseEncode, 0, 0, 0.1, 0.0, "encode");
  recorder.OnExchangeFailure(DataLossError("x"), 0);
  EXPECT_EQ(recorder.record_count(), 0);
  EXPECT_EQ(recorder.dump_count(), 0);
  EXPECT_TRUE(recorder.LastDump().is_null());
}

TEST(FlightRecorderTest, DumpCarriesTriggerRecordsAndDeltas) {
  FlightRecorder recorder(/*enabled=*/true);
  recorder.Record(4, kPhaseEncode, 2, 1, 0.25, 0.0, "encode");
  recorder.Record(4, -1, -1, -1, 0.5, 1.5, "step");
  recorder.OnExchangeFailure(DataLossError("checksum mismatch"), 5);

  EXPECT_EQ(recorder.dump_count(), 1);
  // The trigger itself lands in the ring after the dump.
  EXPECT_EQ(recorder.record_count(), 3);

  auto parsed = JsonValue::Parse(recorder.LastDump().Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const JsonValue& dump = *parsed;
  EXPECT_EQ(dump.At("schema_version").AsInt(), 1);
  EXPECT_EQ(dump.At("kind").AsString(), "flight_record");
  const JsonValue& trigger = dump.At("trigger");
  EXPECT_EQ(trigger.At("code_name").AsString(), "DATA_LOSS");
  EXPECT_EQ(trigger.At("iteration").AsInt(), 5);
  EXPECT_NE(trigger.At("message").AsString().find("checksum"),
            std::string::npos);
  EXPECT_TRUE(dump.Has("metric_deltas"));
  EXPECT_TRUE(dump.At("metric_deltas").Has("comm/retries"));

  const auto& records = dump.At("records").AsArray();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].At("label").AsString(), "encode");
  EXPECT_EQ(records[0].At("phase_name").AsString(), "encode");
  EXPECT_EQ(records[0].At("matrix").AsInt(), 2);
  EXPECT_EQ(records[1].At("label").AsString(), "step");
}

TEST(FlightRecorderTest, RingKeepsOnlyTheMostRecentRecords) {
  FlightRecorder recorder(/*enabled=*/true);
  const int64_t total = static_cast<int64_t>(FlightRecorder::kCapacity) + 16;
  for (int64_t i = 0; i < total; ++i) {
    recorder.Record(i, kPhaseSum, -1, -1, 0.0, 0.0, "sum");
  }
  recorder.OnExchangeFailure(UnavailableError("boom"), total);

  const JsonValue dump = recorder.LastDump();
  const auto& records = dump.At("records").AsArray();
  ASSERT_EQ(records.size(), FlightRecorder::kCapacity);
  // Oldest retained record is exactly `capacity` back from the end.
  EXPECT_EQ(records.front().At("sequence").AsInt(),
            total - static_cast<int64_t>(FlightRecorder::kCapacity));
  EXPECT_EQ(records.back().At("sequence").AsInt(), total - 1);
}

TEST(FlightRecorderTest, PrefixWritesOneFilePerDump) {
  FlightRecorder recorder(/*enabled=*/true);
  const std::string prefix = ::testing::TempDir() + "/flight_test";
  recorder.set_output_prefix(prefix);
  recorder.Record(0, kPhaseWire, -1, -1, 0.0, 0.0, "wire");
  recorder.OnExchangeFailure(DeadlineExceededError("late"), 1);
  recorder.OnExchangeFailure(AbortedError("rank 2 crashed"), 2);
  EXPECT_EQ(recorder.dump_count(), 2);

  for (int dump = 0; dump < 2; ++dump) {
    const std::string path =
        prefix + "." + std::to_string(dump) + ".json";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::ostringstream contents;
    contents << in.rdbuf();
    auto parsed = JsonValue::Parse(contents.str());
    ASSERT_TRUE(parsed.ok()) << path << ": " << parsed.status();
    EXPECT_EQ(parsed->At("kind").AsString(), "flight_record");
    std::remove(path.c_str());
  }
  // The second dump's history contains the first failure's marker record.
  const JsonValue last = recorder.LastDump();
  const auto& records = last.At("records").AsArray();
  bool found_fail_marker = false;
  for (const JsonValue& record : records) {
    if (record.At("label").AsString().rfind("fail:", 0) == 0) {
      found_fail_marker = true;
    }
  }
  EXPECT_TRUE(found_fail_marker);
}

TEST(FlightRecorderTest, ProfilerEndStepFeedsRecorder) {
  ProfileGuard profile_guard;
  FlightGuard flight_guard;
  Profiler& profiler = Profiler::Global();
  profiler.BeginStep(11);
  profiler.AddPhases(Wall(kPhaseForward, 0.5));
  profiler.AddPhases(Virtual(kPhaseWire, 2.0));
  profiler.EndStep(2.0);

  // One record per active phase (forward, wire) plus the step span.
  EXPECT_EQ(FlightRecorder::Global().record_count(), 3);
  FlightRecorder::Global().OnExchangeFailure(InternalError("x"), 11);
  const JsonValue dump = FlightRecorder::Global().LastDump();
  const auto& records = dump.At("records").AsArray();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].At("phase_name").AsString(), "forward");
  EXPECT_EQ(records[1].At("phase_name").AsString(), "wire");
  EXPECT_EQ(records[2].At("label").AsString(), "step");
  EXPECT_EQ(records[2].At("step").AsInt(), 11);
}

}  // namespace
}  // namespace obs
}  // namespace lpsgd
