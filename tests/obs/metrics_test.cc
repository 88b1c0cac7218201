// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "obs/metrics.h"

#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace lpsgd {
namespace obs {
namespace {

TEST(MetricsRegistryTest, CountersAccumulate) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.CounterValue("comm/wire_bytes"), 0);
  reg.Count("comm/wire_bytes", 128);
  reg.Count("comm/wire_bytes", 64);
  reg.Count("comm/messages");
  EXPECT_EQ(reg.CounterValue("comm/wire_bytes"), 192);
  EXPECT_EQ(reg.CounterValue("comm/messages"), 1);
}

TEST(MetricsRegistryTest, GaugesLastWriteWins) {
  MetricsRegistry reg;
  reg.SetGauge("trainer/virtual_seconds", 1.5);
  reg.SetGauge("trainer/virtual_seconds", 2.5);
  EXPECT_DOUBLE_EQ(reg.GaugeValue("trainer/virtual_seconds"), 2.5);
  EXPECT_DOUBLE_EQ(reg.GaugeValue("absent"), 0.0);
}

TEST(MetricsRegistryTest, HistogramBucketsAndStats) {
  MetricsRegistry reg;
  reg.ObserveWithBounds("lat", 0.5, {1.0, 10.0});
  reg.ObserveWithBounds("lat", 5.0, {1.0, 10.0});
  reg.ObserveWithBounds("lat", 50.0, {1.0, 10.0});  // overflow bucket

  const HistogramSnapshot snap = reg.HistogramFor("lat");
  ASSERT_EQ(snap.bounds.size(), 2u);
  ASSERT_EQ(snap.counts.size(), 3u);
  EXPECT_EQ(snap.counts[0], 1);  // <= 1.0
  EXPECT_EQ(snap.counts[1], 1);  // <= 10.0
  EXPECT_EQ(snap.counts[2], 1);  // > 10.0
  EXPECT_EQ(snap.count, 3);
  EXPECT_DOUBLE_EQ(snap.sum, 55.5);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 50.0);
  EXPECT_DOUBLE_EQ(snap.Mean(), 18.5);
}

TEST(MetricsRegistryTest, DefaultBoundsCoverTimingsAndByteCounts) {
  const std::vector<double>& bounds = MetricsRegistry::DefaultBounds();
  ASSERT_FALSE(bounds.empty());
  EXPECT_LE(bounds.front(), 1e-9);
  EXPECT_GE(bounds.back(), 1e12);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(MetricsRegistryTest, DisabledRegistryIgnoresMutations) {
  MetricsRegistry reg(/*enabled=*/false);
  reg.Count("c", 7);
  reg.SetGauge("g", 1.0);
  reg.Observe("h", 1.0);
  EXPECT_EQ(reg.CounterValue("c"), 0);
  EXPECT_DOUBLE_EQ(reg.GaugeValue("g"), 0.0);
  EXPECT_EQ(reg.HistogramFor("h").count, 0);
  EXPECT_TRUE(reg.Names().empty());
}

TEST(MetricsRegistryTest, ConcurrentIncrementsAreLossless) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < kIncrements; ++i) {
        reg.Count("shared/counter");
        reg.Observe("shared/histogram", 1.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(reg.CounterValue("shared/counter"), kThreads * kIncrements);
  EXPECT_EQ(reg.HistogramFor("shared/histogram").count,
            kThreads * kIncrements);
}

TEST(MetricsRegistryTest, ResetDropsMetricsKeepsFlag) {
  MetricsRegistry reg;
  reg.Count("a");
  reg.Reset();
  EXPECT_EQ(reg.CounterValue("a"), 0);
  EXPECT_TRUE(reg.enabled());
}

TEST(MetricsRegistryTest, JsonExportParsesBack) {
  MetricsRegistry reg;
  reg.Count("comm/wire_bytes", 42);
  reg.SetGauge("trainer/virtual_seconds", 3.25);
  reg.Observe("quant/encode_seconds", 1e-4);

  auto parsed = JsonValue::Parse(reg.ToJsonString());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->At("counters").At("comm/wire_bytes").AsInt(), 42);
  EXPECT_DOUBLE_EQ(
      parsed->At("gauges").At("trainer/virtual_seconds").AsDouble(), 3.25);
  const JsonValue& hist =
      parsed->At("histograms").At("quant/encode_seconds");
  EXPECT_EQ(hist.At("count").AsInt(), 1);
  EXPECT_DOUBLE_EQ(hist.At("sum").AsDouble(), 1e-4);
}

TEST(MetricsRegistryTest, PrintTableListsEveryMetric) {
  MetricsRegistry reg;
  reg.Count("comm/messages", 3);
  reg.SetGauge("trainer/virtual_seconds", 1.0);
  reg.Observe("quant/encode_seconds", 0.5);
  std::ostringstream os;
  reg.PrintTable(os);
  const std::string table = os.str();
  EXPECT_NE(table.find("comm/messages"), std::string::npos);
  EXPECT_NE(table.find("trainer/virtual_seconds"), std::string::npos);
  EXPECT_NE(table.find("quant/encode_seconds"), std::string::npos);
}

TEST(MetricsRegistryTest, QuantilesInterpolateInsideBuckets) {
  MetricsRegistry reg;
  // 20 integer observations 1..20 over bounds {10, 20}: ten per bucket.
  for (int v = 1; v <= 20; ++v) {
    reg.ObserveWithBounds("q", static_cast<double>(v), {10.0, 20.0});
  }
  const HistogramSnapshot snap = reg.HistogramFor("q");
  // p50 = rank 10, the last observation of bucket 0: exactly its bound.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.50), 10.0);
  // p95 = rank 19, 9/10 through bucket (10, 20].
  EXPECT_DOUBLE_EQ(snap.Quantile(0.95), 19.0);
  // p99 = rank 20, the top of the histogram.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.99), 20.0);
  // q=0 still returns a value inside the first bucket, above the min.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.0), 1.9);
}

TEST(MetricsRegistryTest, QuantilesClampToObservedRange) {
  MetricsRegistry reg;
  reg.ObserveWithBounds("single", 5.0, {10.0});
  // One observation: every quantile is that observation, not the bucket
  // bound above it.
  EXPECT_DOUBLE_EQ(reg.HistogramFor("single").Quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(reg.HistogramFor("single").Quantile(0.99), 5.0);

  reg.ObserveWithBounds("overflow", 50.0, {10.0});
  // Overflow bucket interpolates up to the observed max.
  EXPECT_DOUBLE_EQ(reg.HistogramFor("overflow").Quantile(0.99), 50.0);

  EXPECT_DOUBLE_EQ(HistogramSnapshot{}.Quantile(0.5), 0.0);
}

TEST(MetricsRegistryTest, JsonAndTableExportQuantiles) {
  MetricsRegistry reg;
  for (int v = 1; v <= 20; ++v) {
    reg.ObserveWithBounds("lat", static_cast<double>(v), {10.0, 20.0});
  }
  const JsonValue json = reg.ToJson();
  const JsonValue& entry = json.At("histograms").At("lat");
  EXPECT_DOUBLE_EQ(entry.At("p50").AsDouble(), 10.0);
  EXPECT_DOUBLE_EQ(entry.At("p95").AsDouble(), 19.0);
  EXPECT_DOUBLE_EQ(entry.At("p99").AsDouble(), 20.0);

  std::ostringstream os;
  reg.PrintTable(os);
  const std::string table = os.str();
  EXPECT_NE(table.find("p50"), std::string::npos);
  EXPECT_NE(table.find("p95"), std::string::npos);
  EXPECT_NE(table.find("p99"), std::string::npos);
}

TEST(MetricsRegistryTest, SpanRecordsElapsedIntoItsSiteHistogram) {
  static constexpr SpanSite kSite{"test/scoped", -1, "test/scoped_seconds"};
  MetricsRegistry& global = MetricsRegistry::Global();
  const bool was_enabled = global.enabled();
  global.set_enabled(true);
  global.Reset();
  { Span span(kSite); }
  EXPECT_EQ(global.HistogramFor("test/scoped_seconds").count, 1);
  EXPECT_GE(global.HistogramFor("test/scoped_seconds").sum, 0.0);
  global.Reset();
  global.set_enabled(was_enabled);
}

}  // namespace
}  // namespace obs
}  // namespace lpsgd
