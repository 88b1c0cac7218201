// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "obs/span.h"

#include <chrono>
#include <cstdlib>

#include "base/logging.h"
#include "base/strings.h"
#include "base/thread_pool.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace lpsgd {
namespace obs {
namespace {

constexpr struct {
  const char* name;
  Exporter bit;
} kExporterNames[] = {
    {"metrics", kExportMetrics},
    {"trace", kExportTrace},
    {"profile", kExportProfile},
    {"flight", kExportFlight},
};

}  // namespace

namespace obs_internal {

std::atomic<uint32_t> exporter_mask{kMaskUnread};

uint32_t ReadEnvironment() {
  static const bool kApplied = [] {
    const char* env = std::getenv("LPSGD_OBS");
    exporter_mask.store(env == nullptr ? 0u : ParseExporters(env),
                        std::memory_order_relaxed);
    return true;
  }();
  (void)kApplied;
  return exporter_mask.load(std::memory_order_relaxed);
}

}  // namespace obs_internal

uint32_t ParseExporters(std::string_view list) {
  uint32_t mask = 0;
  for (const std::string& token : StrSplit(list, ',')) {
    if (token.empty()) continue;
    bool known = false;
    for (const auto& exporter : kExporterNames) {
      if (token == exporter.name) {
        mask |= exporter.bit;
        known = true;
      }
    }
    if (!known) {
      LOG(Warning) << "ignoring unknown observability exporter '" << token
                   << "' (known: metrics, trace, profile, flight)";
    }
  }
  return mask;
}

void SetExporters(uint32_t mask) {
  obs_internal::ReadEnvironment();
  obs_internal::exporter_mask.store(mask & ~obs_internal::kMaskUnread,
                                    std::memory_order_relaxed);
}

void EnableExporters(uint32_t exporters, bool enabled) {
  obs_internal::ReadEnvironment();
  exporters &= ~obs_internal::kMaskUnread;
  if (enabled) {
    obs_internal::exporter_mask.fetch_or(exporters, std::memory_order_relaxed);
  } else {
    obs_internal::exporter_mask.fetch_and(~exporters,
                                          std::memory_order_relaxed);
  }
}

void EnableFromFlags(std::string_view list, const std::string& prefix) {
  EnableExporters(ParseExporters(list), true);
  if (!prefix.empty()) {
    FlightRecorder::Global().set_output_prefix(StrCat(prefix, ".flight"));
  }
}

Status WriteOutputs(const std::string& prefix, uint32_t exporters,
                    std::vector<std::string>* written) {
  const auto write = [&](Exporter exporter, const char* suffix,
                         const JsonValue& doc) -> Status {
    if ((exporters & exporter) == 0) return OkStatus();
    const std::string path = StrCat(prefix, suffix);
    LPSGD_RETURN_IF_ERROR(WriteJsonFile(path, doc));
    written->push_back(path);
    return OkStatus();
  };
  LPSGD_RETURN_IF_ERROR(write(kExportTrace, ".trace.json",
                              Tracer::Global().ToChromeTraceJson()));
  LPSGD_RETURN_IF_ERROR(write(kExportProfile, ".profile.json",
                              Profiler::Global().ToJson()));
  return write(kExportMetrics, ".metrics.json",
               MetricsRegistry::Global().ToJson());
}

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* ProfilePhaseName(int phase) {
  CHECK_GE(phase, 0);
  CHECK_LT(phase, kNumProfilePhases);
  return kPhaseSpans[phase].name;
}

void Span::Open(const SpanSite& site, PhaseTimes* phases, int matrix,
                int rank) {
  if ((exporters_ & obs_internal::kMaskUnread) != 0) {
    exporters_ = Exporters() & site.exporters;
  }
  if (phases == nullptr) exporters_ &= ~kExportProfile;
  if (exporters_ == 0) return;
  phases_ = phases;
  record_ = TraceRecord{&site, matrix, rank, ThreadPool::CurrentSlot(),
                        MonotonicSeconds(), 0.0, -1.0, -1.0, -1};
}

void Span::Close() {
  record_.wall_duration = MonotonicSeconds() - record_.wall_start;
  if ((exporters_ & kExportMetrics) != 0) {
    MetricsRegistry::Global().Observe(record_.site->histogram,
                                      record_.wall_duration);
  }
  if ((exporters_ & kExportTrace) != 0) Tracer::Global().AppendRecord(record_);
}

Tracer::Tracer(bool enabled) : enabled_(enabled) {}

Tracer::Tracer(Exporter shared) : enabled_(shared) {}

Tracer& Tracer::Global() {
  static Tracer* const kTracer = new Tracer(kExportTrace);
  return *kTracer;
}

void Tracer::AppendRecord(const TraceRecord& record) {
  if (!enabled()) return;
  MutexLock lock(mu_);
  if (records_.size() >= kMaxEvents) {
    ++dropped_;
    return;
  }
  records_.push_back(record);
}

int64_t Tracer::dropped_count() const {
  MutexLock lock(mu_);
  return dropped_;
}

std::vector<TraceRecord> Tracer::Records() const {
  MutexLock lock(mu_);
  return records_;
}

void Tracer::Reset() {
  MutexLock lock(mu_);
  records_ = std::vector<TraceRecord>();
  dropped_ = 0;
}

JsonValue Tracer::ToChromeTraceJson() const {
  MutexLock lock(mu_);
  JsonValue trace_events = JsonValue::Array();
  for (const TraceRecord& record : records_) {
    const SpanSite& site = *record.site;
    JsonValue e = JsonValue::Object();
    e.Set("name", site.name);
    e.Set("cat", site.phase >= 0 ? kPhaseSpans[site.phase].name : "span");
    e.Set("ph", "X");
    e.Set("pid", int64_t{1});
    e.Set("tid", record.slot);
    e.Set("ts", record.wall_start * 1e6);  // microseconds
    e.Set("dur", record.wall_duration * 1e6);
    JsonValue args = JsonValue::Object();
    if (record.matrix >= 0) args.Set("matrix", record.matrix);
    if (record.rank >= 0) args.Set("rank", record.rank);
    if (record.virtual_start >= 0.0) {
      args.Set("virtual_start_s", record.virtual_start);
      args.Set("virtual_end_s", record.virtual_end);
      args.Set("virtual_duration_s",
               record.virtual_end - record.virtual_start);
    }
    if (record.bytes >= 0) args.Set("bytes", record.bytes);
    if (args.size() > 0) e.Set("args", std::move(args));
    trace_events.Append(std::move(e));
  }
  JsonValue root = JsonValue::Object();
  root.Set("traceEvents", std::move(trace_events));
  root.Set("displayTimeUnit", "ms");
  if (dropped_ > 0) root.Set("lpsgd_dropped_events", dropped_);
  return root;
}

}  // namespace obs
}  // namespace lpsgd
