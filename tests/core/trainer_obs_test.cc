// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Smoke test for the observability instrumentation threaded through the
// trainer and aggregators: one epoch with the global registry enabled must
// leave trainer/* and comm/* metrics that agree with the trainer's own
// accounting, and a traced parallel epoch must nest cleanly per lane.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/trainer.h"
#include "data/synthetic.h"
#include "nn/model_zoo.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/span.h"

namespace lpsgd {
namespace {

SyntheticImageDataset SmallSet(int64_t n, int64_t offset = 0) {
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

class TrainerObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_metrics_ = obs::MetricsRegistry::Global().enabled();
    was_trace_ = obs::Tracer::Global().enabled();
    was_report_ = obs::RunReport::Global().enabled();
    obs::MetricsRegistry::Global().set_enabled(true);
    obs::Tracer::Global().set_enabled(true);
    obs::RunReport::Global().set_enabled(true);
    obs::MetricsRegistry::Global().Reset();
    obs::Tracer::Global().Reset();
    obs::RunReport::Global().Reset();
  }

  void TearDown() override {
    obs::MetricsRegistry::Global().Reset();
    obs::Tracer::Global().Reset();
    obs::RunReport::Global().Reset();
    obs::MetricsRegistry::Global().set_enabled(was_metrics_);
    obs::Tracer::Global().set_enabled(was_trace_);
    obs::RunReport::Global().set_enabled(was_report_);
  }

  bool was_metrics_ = false;
  bool was_trace_ = false;
  bool was_report_ = false;
};

TEST_F(TrainerObservabilityTest, OneEpochPopulatesConsistentMetrics) {
  TrainerOptions options;
  options.num_gpus = 4;
  options.global_batch_size = 32;
  options.codec = QsgdSpec(4);
  options.seed = 11;
  auto trainer = SyncTrainer::Create(
      [](uint64_t seed) { return BuildMlp({16, 8, 4}, seed); }, options);
  ASSERT_TRUE(trainer.ok()) << trainer.status();

  const SyntheticImageDataset train = SmallSet(64);
  const SyntheticImageDataset test = SmallSet(32, /*offset=*/1 << 20);
  auto metrics = (*trainer)->Train(train, test, /*epochs=*/1);
  ASSERT_TRUE(metrics.ok()) << metrics.status();

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();

  // Trainer-side instrumentation: 64 samples / batch 32 = 2 iterations.
  EXPECT_EQ(reg.CounterValue("trainer/iterations"), 2);
  EXPECT_EQ(reg.CounterValue("trainer/samples"), 64);
  EXPECT_EQ(reg.CounterValue("trainer/epochs"), 1);
  EXPECT_EQ(reg.HistogramFor("trainer/iteration_seconds").count, 2);
  EXPECT_GT(reg.HistogramFor("trainer/iteration_seconds").sum, 0.0);
  EXPECT_GT(reg.GaugeValue("trainer/virtual_seconds"), 0.0);
  EXPECT_EQ(reg.HistogramFor("trainer/eval_seconds").count, 1);

  // Comm-side instrumentation must agree exactly with the trainer's own
  // cumulative accounting (the aggregator is the sole comm/* writer).
  const CommStats& total = (*trainer)->total_comm();
  EXPECT_GT(total.wire_bytes, 0);
  EXPECT_EQ(reg.CounterValue("comm/wire_bytes"), total.wire_bytes);
  EXPECT_EQ(reg.CounterValue("comm/raw_bytes"), total.raw_bytes);
  EXPECT_EQ(reg.CounterValue("comm/messages"), total.messages);
  EXPECT_EQ(reg.CounterValue("comm/allreduce_calls"), 2);

  // Quantized training must have exercised the codec hooks.
  EXPECT_GT(reg.CounterValue("quant/qsgd/encode_calls"), 0);
  EXPECT_GT(reg.HistogramFor("quant/encode_seconds").count, 0);

  // The tracer captured iteration spans with virtual-clock annotations.
  bool found_iteration_span = false;
  for (const obs::TraceRecord& e : obs::Tracer::Global().Records()) {
    if (std::string(e.site->name) == "trainer/iteration") {
      found_iteration_span = true;
      EXPECT_GE(e.virtual_end, e.virtual_start);
    }
  }
  EXPECT_TRUE(found_iteration_span);

  // The run report carries one "epoch" entry matching the returned metrics.
  obs::RunReport& report = obs::RunReport::Global();
  ASSERT_EQ(report.entry_count(), 1u);
  const obs::JsonValue doc = report.ToJson(&reg);
  const auto& entries = doc.At("entries").AsArray();
  EXPECT_EQ(entries[0].At("kind").AsString(), "epoch");
  EXPECT_EQ(entries[0].At("wire_bytes").AsInt(), total.wire_bytes);
  EXPECT_DOUBLE_EQ(entries[0].At("test_accuracy").AsDouble(),
                   metrics->back().test_accuracy);
}

TEST_F(TrainerObservabilityTest, DisabledRegistryStaysEmpty) {
  obs::MetricsRegistry::Global().set_enabled(false);
  obs::Tracer::Global().set_enabled(false);
  obs::RunReport::Global().set_enabled(false);

  TrainerOptions options;
  options.num_gpus = 2;
  options.global_batch_size = 32;
  options.codec = FullPrecisionSpec();
  auto trainer = SyncTrainer::Create(
      [](uint64_t seed) { return BuildMlp({16, 8, 4}, seed); }, options);
  ASSERT_TRUE(trainer.ok()) << trainer.status();
  const SyntheticImageDataset train = SmallSet(32);
  const SyntheticImageDataset test = SmallSet(32, /*offset=*/1 << 20);
  ASSERT_TRUE((*trainer)->Train(train, test, 1).ok());

  EXPECT_TRUE(obs::MetricsRegistry::Global().Names().empty());
  EXPECT_EQ(obs::Tracer::Global().Records().size(), 0u);
  EXPECT_EQ(obs::RunReport::Global().entry_count(), 0u);
}

// Trace lanes are thread-pool slots, so the spans of one lane come from one
// thread and nest: a 2-thread, 8-step q4 epoch written through the Chrome
// writer must hold no partially overlapping pair of "X" events on any tid.
// The ranks' forward/backward is sized (a few ms each) so both threads run
// spans at once; with every span on one tid this run shows dozens of
// partial overlaps. SpanTest.TraceLaneIsThePoolSlot pins the slot-to-tid
// mapping itself.
TEST_F(TrainerObservabilityTest, ParallelEpochTraceNestsPerLane) {
  obs::MetricsRegistry::Global().set_enabled(false);
  obs::RunReport::Global().set_enabled(false);
  TrainerOptions options;
  options.num_gpus = 4;
  options.global_batch_size = 256;
  options.codec = QsgdSpec(4);
  options.seed = 5;
  options.execution = ExecutionContext::WithThreads(2);
  auto trainer = SyncTrainer::Create(
      [](uint64_t seed) { return BuildMlp({16, 512, 512, 4}, seed); },
      options);
  ASSERT_TRUE(trainer.ok()) << trainer.status();
  const SyntheticImageDataset train = SmallSet(2048);
  const SyntheticImageDataset test = SmallSet(32, /*offset=*/1 << 20);
  ASSERT_TRUE((*trainer)->Train(train, test, /*epochs=*/1).ok());

  const std::string path = ::testing::TempDir() + "/lanes.trace.json";
  ASSERT_TRUE(
      obs::WriteJsonFile(path, obs::Tracer::Global().ToChromeTraceJson())
          .ok());
  std::ifstream in(path);
  std::ostringstream contents;
  contents << in.rdbuf();
  std::remove(path.c_str());
  auto trace = obs::JsonValue::Parse(contents.str());
  ASSERT_TRUE(trace.ok()) << trace.status();

  struct Interval {
    double begin;
    double end;
    std::string name;
  };
  std::map<int64_t, std::vector<Interval>> lanes;
  std::set<std::string> categories;
  for (const obs::JsonValue& e : trace->At("traceEvents").AsArray()) {
    ASSERT_EQ(e.At("ph").AsString(), "X");
    const double ts = e.At("ts").AsDouble();
    lanes[e.At("tid").AsInt()].push_back(
        {ts, ts + e.At("dur").AsDouble(), e.At("name").AsString()});
    categories.insert(e.At("cat").AsString());
  }
  for (const char* phase : {"forward", "backward", "encode", "decode"}) {
    EXPECT_TRUE(categories.count(phase)) << phase << " spans missing";
  }

  // Sweep each lane in start order (enclosing spans first) with a stack of
  // open spans: an event that starts inside the innermost open span must
  // also end inside it. The tolerance absorbs microsecond rounding.
  constexpr double kEpsilonUs = 1e-3;
  int partial_overlaps = 0;
  for (auto& [tid, spans] : lanes) {
    std::sort(spans.begin(), spans.end(),
              [](const Interval& a, const Interval& b) {
                return a.begin != b.begin ? a.begin < b.begin
                                          : a.end > b.end;
              });
    std::vector<Interval> open;
    for (const Interval& span : spans) {
      while (!open.empty() && open.back().end <= span.begin + kEpsilonUs) {
        open.pop_back();
      }
      if (!open.empty() && span.end > open.back().end + kEpsilonUs) {
        ++partial_overlaps;
        ADD_FAILURE() << "tid " << tid << ": " << span.name
                      << " partially overlaps " << open.back().name;
      }
      open.push_back(span);
    }
  }
  EXPECT_EQ(partial_overlaps, 0);
}

}  // namespace
}  // namespace lpsgd
