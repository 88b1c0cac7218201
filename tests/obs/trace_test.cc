// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// The span, the exporter switch and the trace exporter's Chrome writer.
#include "obs/span.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/thread_pool.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace lpsgd {
namespace obs {
namespace {

constexpr SpanSite kPlainSite{"test/plain"};
constexpr SpanSite kPhaseSite{"test/encode", kPhaseEncode,
                              "test/encode_seconds"};
constexpr SpanSite kEscapedSite{"matrix \"W0\"\n"};
constexpr TraceRecord kPlainRecord{&kPlainSite, -1, -1, 0, 0.0, 0.0,
                                   -1.0, -1.0, -1};

// Sets the process exporter mask for one test, with empty global
// exporters, and restores the mask after.
class ExporterGuard {
 public:
  explicit ExporterGuard(uint32_t mask) : saved_(Exporters()) {
    SetExporters(mask);
    Tracer::Global().Reset();
    MetricsRegistry::Global().Reset();
  }
  ~ExporterGuard() {
    Tracer::Global().Reset();
    MetricsRegistry::Global().Reset();
    SetExporters(saved_);
  }

 private:
  uint32_t saved_;
};

TEST(ExportersTest, ParsesEverySubsetOfTheGrammar) {
  EXPECT_EQ(ParseExporters(""), 0u);
  EXPECT_EQ(ParseExporters("trace"), kExportTrace);
  EXPECT_EQ(ParseExporters("metrics,trace,profile,flight"),
            kExportMetrics | kExportTrace | kExportProfile | kExportFlight);
  EXPECT_EQ(ParseExporters("flight,profile"), kExportFlight | kExportProfile);
}

TEST(ExportersTest, UnknownTokensAreIgnored) {
  // "1" was the old on-switch; it is not an alias.
  EXPECT_EQ(ParseExporters("1"), 0u);
  EXPECT_EQ(ParseExporters("profile,bogus,,TRACE,metrics"),
            kExportProfile | kExportMetrics);
}

TEST(ExportersTest, GlobalExporterFlagsAreMaskBits) {
  ExporterGuard guard(0);
  MetricsRegistry::Global().set_enabled(true);
  Profiler::Global().set_enabled(true);
  EXPECT_EQ(Exporters(), kExportMetrics | kExportProfile);
  EnableFromFlags("trace,flight", "");
  EXPECT_TRUE(Tracer::Global().enabled());
  EXPECT_TRUE(FlightRecorder::Global().enabled());
  Profiler::Global().set_enabled(false);
  EXPECT_EQ(Exporters(), kExportMetrics | kExportTrace | kExportFlight);
  // Locally constructed exporters keep flags of their own.
  MetricsRegistry local(/*enabled=*/false);
  EXPECT_FALSE(local.enabled());
  EXPECT_TRUE(MetricsRegistry::Global().enabled());
}

TEST(SpanTest, RecordsAnnotationsIntoTheTrace) {
  ExporterGuard guard(kExportTrace);
  {
    Span span(kPlainSite);
    span.set_virtual_range(1.0, 1.5);
  }
  {
    Span span(kPlainSite, nullptr, /*matrix=*/3, /*rank=*/2);
    span.set_bytes(4096);
  }

  const std::vector<TraceRecord> records = Tracer::Global().Records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].site, &kPlainSite);
  EXPECT_GE(records[0].wall_duration, 0.0);
  EXPECT_DOUBLE_EQ(records[0].virtual_start, 1.0);
  EXPECT_DOUBLE_EQ(records[0].virtual_end, 1.5);
  EXPECT_EQ(records[0].bytes, -1);
  EXPECT_EQ(records[0].matrix, -1);
  EXPECT_EQ(records[0].slot, 0);  // not a pool worker
  EXPECT_EQ(records[1].bytes, 4096);
  EXPECT_LT(records[1].virtual_start, 0.0);
  EXPECT_EQ(records[1].matrix, 3);
  EXPECT_EQ(records[1].rank, 2);
}

TEST(SpanTest, FeedsEachEnabledExporterOfItsSite) {
  ExporterGuard guard(kExportMetrics | kExportProfile | kExportTrace);
  PhaseTimes times;
  { Span span(kPhaseSite, &times); }
  EXPECT_EQ(times.calls[kPhaseEncode], 1);
  EXPECT_GE(times.wall[kPhaseEncode], 0.0);
  EXPECT_EQ(MetricsRegistry::Global().HistogramFor("test/encode_seconds")
                .count,
            1);
  EXPECT_EQ(Tracer::Global().Records().size(), 1u);

  // A span without a sink is not profiled; one without a histogram
  // observes nothing.
  { Span span(kPhaseSite); }
  { Span span(kPlainSite, &times); }
  EXPECT_EQ(times.calls[kPhaseEncode], 1);
  EXPECT_EQ(MetricsRegistry::Global().HistogramFor("test/encode_seconds")
                .count,
            2);
  EXPECT_EQ(Tracer::Global().Records().size(), 3u);
}

TEST(SpanTest, DisabledSpanRecordsNothing) {
  ExporterGuard guard(0);
  PhaseTimes times;
  {
    Span span(kPhaseSite, &times, 1, 1);
    span.set_virtual_range(0.0, 1.0);
    span.set_bytes(8);
  }
  EXPECT_EQ(times.calls[kPhaseEncode], 0);
  EXPECT_DOUBLE_EQ(times.wall[kPhaseEncode], 0.0);
  EXPECT_EQ(Tracer::Global().Records().size(), 0u);
  EXPECT_TRUE(MetricsRegistry::Global().Names().empty());

  // The flight bit alone feeds no span exporter either.
  SetExporters(kExportFlight);
  { Span span(kPhaseSite, &times); }
  EXPECT_EQ(times.calls[kPhaseEncode], 0);
  EXPECT_EQ(Tracer::Global().Records().size(), 0u);
}

// Trace lanes are pool slots: a span lands on the tid of the slot that
// opened it. Task 0 cannot finish before task 1 has started, so the two
// tasks always run on different threads — the submitter (slot 0) and the
// pool's one worker (slot 1).
TEST(SpanTest, TraceLaneIsThePoolSlot) {
  ExporterGuard guard(kExportTrace);
  ThreadPool pool(2);
  std::atomic<bool> second_started{false};
  const Status status = pool.ParallelFor(0, 2, [&](int64_t i) -> Status {
    Span span(kPlainSite, nullptr, -1, static_cast<int>(i));
    if (i == 1) {
      second_started = true;
    } else {
      while (!second_started) std::this_thread::yield();
    }
    return OkStatus();
  });
  ASSERT_TRUE(status.ok()) << status;

  std::set<int64_t> tids;
  const JsonValue trace = Tracer::Global().ToChromeTraceJson();
  for (const JsonValue& e : trace.At("traceEvents").AsArray()) {
    tids.insert(e.At("tid").AsInt());
  }
  EXPECT_EQ(tids, (std::set<int64_t>{0, 1}));
}

TEST(TracerTest, DisabledTracerDropsAppends) {
  Tracer tracer(/*enabled=*/false);
  tracer.AppendRecord(kPlainRecord);
  EXPECT_EQ(tracer.Records().size(), 0u);
  EXPECT_EQ(tracer.dropped_count(), 0);
}

TEST(TracerTest, ChromeTraceJsonIsWellFormed) {
  Tracer tracer;
  tracer.AppendRecord(
      TraceRecord{&kPhaseSite, 2, 1, 3, 10.0, 0.5, 0.0, 0.25, -1});
  tracer.AppendRecord(
      TraceRecord{&kEscapedSite, -1, -1, 0, 10.1, 0.1, -1.0, -1.0, 512});
  const std::string path = ::testing::TempDir() + "/trace_test.trace.json";
  ASSERT_TRUE(WriteJsonFile(path, tracer.ToChromeTraceJson()).ok());
  std::ifstream in(path);
  std::ostringstream contents;
  contents << in.rdbuf();
  std::remove(path.c_str());

  // The document must parse back as JSON and follow the trace_event shape
  // chrome://tracing expects.
  auto parsed = JsonValue::Parse(contents.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->At("displayTimeUnit").AsString(), "ms");
  const auto& events = parsed->At("traceEvents").AsArray();
  ASSERT_EQ(events.size(), 2u);
  for (const JsonValue& e : events) {
    EXPECT_EQ(e.At("ph").AsString(), "X");
    EXPECT_TRUE(e.Has("name"));
    EXPECT_TRUE(e.Has("pid"));
    EXPECT_GE(e.At("ts").AsDouble(), 0.0);
    EXPECT_GE(e.At("dur").AsDouble(), 0.0);
  }
  // Measured times in microseconds, the pool slot as the lane, the phase
  // as the category.
  EXPECT_EQ(events[0].At("name").AsString(), "test/encode");
  EXPECT_EQ(events[0].At("cat").AsString(), "encode");
  EXPECT_EQ(events[0].At("tid").AsInt(), 3);
  EXPECT_DOUBLE_EQ(events[0].At("ts").AsDouble(), 10.0e6);
  EXPECT_DOUBLE_EQ(events[0].At("dur").AsDouble(), 0.5e6);
  const JsonValue& args = events[0].At("args");
  EXPECT_EQ(args.At("matrix").AsInt(), 2);
  EXPECT_EQ(args.At("rank").AsInt(), 1);
  EXPECT_DOUBLE_EQ(args.At("virtual_duration_s").AsDouble(), 0.25);
  EXPECT_EQ(events[1].At("name").AsString(), "matrix \"W0\"\n");
  EXPECT_EQ(events[1].At("cat").AsString(), "span");
  EXPECT_EQ(events[1].At("args").At("bytes").AsInt(), 512);
  EXPECT_FALSE(events[1].At("args").Has("virtual_start_s"));
}

TEST(TracerTest, ResetDropsRecords) {
  Tracer tracer;
  tracer.AppendRecord(kPlainRecord);
  EXPECT_EQ(tracer.Records().size(), 1u);
  tracer.Reset();
  EXPECT_EQ(tracer.Records().size(), 0u);
  EXPECT_EQ(tracer.ToChromeTraceJson().At("traceEvents").size(), 0u);
}

TEST(OutputsTest, WritesOneFilePerRequestedExporter) {
  ExporterGuard guard(0);
  const std::string prefix = ::testing::TempDir() + "/outputs_test";
  EnableFromFlags("trace,metrics,flight", prefix);
  { Span span(kPhaseSite); }

  std::vector<std::string> written;
  // Profile is not requested, so no profile file.
  ASSERT_TRUE(
      WriteOutputs(prefix, kExportTrace | kExportMetrics, &written).ok());
  ASSERT_EQ(written.size(), 2u);
  EXPECT_EQ(written[0], prefix + ".trace.json");
  EXPECT_EQ(written[1], prefix + ".metrics.json");
  for (const std::string& path : written) {
    std::ifstream in(path);
    std::ostringstream contents;
    contents << in.rdbuf();
    EXPECT_TRUE(JsonValue::Parse(contents.str()).ok()) << path;
    std::remove(path.c_str());
  }

  // The flight recorder's dumps follow the same prefix.
  FlightRecorder::Global().Reset();
  FlightRecorder::Global().OnExchangeFailure(DataLossError("x"), 0);
  const std::string dump = prefix + ".flight.0.json";
  EXPECT_TRUE(std::ifstream(dump).good()) << dump;
  std::remove(dump.c_str());
  FlightRecorder::Global().Reset();
  FlightRecorder::Global().set_output_prefix("");
}

}  // namespace
}  // namespace obs
}  // namespace lpsgd
