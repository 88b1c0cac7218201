// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "obs/profile.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "base/logging.h"
#include "base/strings.h"
#include "base/table_printer.h"
#include "obs/run_report.h"

namespace lpsgd {
namespace obs {
namespace {

// Counters snapshotted at every dump so the flight record carries the
// deltas that accumulated since the previous one.
constexpr const char* kTrackedCounters[] = {
    "comm/allreduce_calls", "comm/retries",       "comm/checksum_failures",
    "fault/injected",       "trainer/iterations", "trainer/rollbacks",
};
constexpr size_t kNumTrackedCounters =
    sizeof(kTrackedCounters) / sizeof(kTrackedCounters[0]);

void CopyLabel(std::string_view label, char* out, size_t capacity) {
  const size_t n = std::min(label.size(), capacity - 1);
  std::memcpy(out, label.data(), n);
  out[n] = '\0';
}

JsonValue FlightRecordToJson(const FlightRecord& record) {
  JsonValue entry = JsonValue::Object();
  entry.Set("sequence", record.sequence);
  entry.Set("step", record.step);
  entry.Set("phase", record.phase);
  entry.Set("phase_name",
            record.phase >= 0 && record.phase < kNumProfilePhases
                ? ProfilePhaseName(record.phase)
                : "");
  entry.Set("matrix", record.matrix);
  entry.Set("rank", record.rank);
  entry.Set("wall_time", record.wall_time);
  entry.Set("wall_seconds", record.wall_seconds);
  entry.Set("virtual_seconds", record.virtual_seconds);
  entry.Set("label", std::string(record.label));
  return entry;
}

}  // namespace

JsonValue TimeBreakdown::ToJson() const {
  JsonValue root = JsonValue::Object();
  root.Set("step", step);
  root.Set("steps", steps);
  root.Set("wall_total", wall_total);
  root.Set("virtual_total", virtual_total);
  root.Set("attributed_wall", AttributedWall());
  root.Set("coverage", Coverage());
  JsonValue by_phase = JsonValue::Object();
  const double attributed = AttributedWall();
  for (int p = 0; p < kNumProfilePhases; ++p) {
    JsonValue entry = JsonValue::Object();
    entry.Set("wall", phases.wall[p]);
    entry.Set("virtual", phases.virt[p]);
    entry.Set("calls", phases.calls[p]);
    entry.Set("wall_share",
              attributed > 0.0 ? phases.wall[p] / attributed : 0.0);
    by_phase.Set(ProfilePhaseName(p), std::move(entry));
  }
  root.Set("phases", std::move(by_phase));
  return root;
}

Profiler::Profiler(bool enabled) : enabled_(enabled) {}

Profiler::Profiler(Exporter shared) : enabled_(shared) {}

Profiler& Profiler::Global() {
  static Profiler* const kProfiler = new Profiler(kExportProfile);
  return *kProfiler;
}

void Profiler::BeginStep(int64_t step) {
  if (!enabled()) return;
  MutexLock lock(mu_);
  step_open_ = true;
  current_step_ = step;
  step_wall_start_ = MonotonicSeconds();
  current_.Clear();
}

void Profiler::AddPhases(const PhaseTimes& delta) {
  if (!enabled()) return;
  MutexLock lock(mu_);
  current_.Merge(delta);
}

void Profiler::EndStep(double virtual_seconds) {
  if (!enabled()) return;
  TimeBreakdown done;
  {
    MutexLock lock(mu_);
    if (!step_open_) return;
    step_open_ = false;
    done.step = current_step_;
    done.steps = 1;
    done.wall_total = MonotonicSeconds() - step_wall_start_;
    done.virtual_total = virtual_seconds;
    done.phases = current_;
    current_.Clear();

    last_ = done;
    totals_.steps += 1;
    totals_.wall_total += done.wall_total;
    totals_.virtual_total += done.virtual_total;
    totals_.phases.Merge(done.phases);
    if (history_.size() < kMaxStepHistory) {
      history_.push_back(done);
    } else {
      history_[history_next_ % kMaxStepHistory] = done;
    }
    ++history_next_;
  }

  // Feed the flight recorder one record per active phase plus the step
  // span itself, so a later failure dump carries the recent breakdowns.
  FlightRecorder& recorder = FlightRecorder::Global();
  if (recorder.enabled()) {
    for (int p = 0; p < kNumProfilePhases; ++p) {
      if (done.phases.calls[p] == 0 && done.phases.virt[p] == 0.0) continue;
      recorder.Record(done.step, p, -1, -1, done.phases.wall[p],
                      done.phases.virt[p], ProfilePhaseName(p));
    }
    recorder.Record(done.step, -1, -1, -1, done.wall_total,
                    done.virtual_total, "step");
  }
  if (ReportEnabled()) {
    RecordEntry("step_breakdown", done.ToJson());
  }
}

int64_t Profiler::steps_recorded() const {
  MutexLock lock(mu_);
  return totals_.steps;
}

TimeBreakdown Profiler::LastStep() const {
  MutexLock lock(mu_);
  return last_;
}

TimeBreakdown Profiler::Totals() const {
  MutexLock lock(mu_);
  return totals_;
}

std::vector<TimeBreakdown> Profiler::Steps() const {
  MutexLock lock(mu_);
  std::vector<TimeBreakdown> steps;
  steps.reserve(history_.size());
  const size_t n = history_.size();
  // Oldest first: when the ring has wrapped, the oldest entry sits at
  // history_next_ % kMaxStepHistory.
  const size_t start = n < kMaxStepHistory ? 0 : history_next_ % kMaxStepHistory;
  for (size_t i = 0; i < n; ++i) {
    steps.push_back(history_[(start + i) % n]);
  }
  return steps;
}

JsonValue Profiler::ToJson() const {
  JsonValue root = JsonValue::Object();
  root.Set("schema_version", int64_t{1});
  root.Set("kind", "profile");
  const TimeBreakdown totals = Totals();
  root.Set("steps_recorded", totals.steps);
  root.Set("totals", totals.ToJson());
  JsonValue steps = JsonValue::Array();
  for (const TimeBreakdown& step : Steps()) steps.Append(step.ToJson());
  root.Set("steps", std::move(steps));
  return root;
}

void Profiler::PrintTable(std::ostream& os) const {
  const TimeBreakdown totals = Totals();
  TablePrinter table({"Phase", "Wall s", "Share", "Virtual s", "Calls"});
  const double attributed = totals.AttributedWall();
  for (int p = 0; p < kNumProfilePhases; ++p) {
    const double share =
        attributed > 0.0 ? totals.phases.wall[p] / attributed : 0.0;
    table.AddRow({ProfilePhaseName(p), FormatDouble(totals.phases.wall[p], 6),
                  StrCat(FormatDouble(share * 100.0, 1), "%"),
                  FormatDouble(totals.phases.virt[p], 6),
                  StrCat(totals.phases.calls[p])});
  }
  table.AddSeparator();
  table.AddRow({"total (attributed)", FormatDouble(attributed, 6), "",
                FormatDouble(totals.phases.VirtualTotal(), 6), ""});
  table.AddRow({"total (measured)", FormatDouble(totals.wall_total, 6),
                StrCat(FormatDouble(totals.Coverage() * 100.0, 1),
                       "% covered"),
                FormatDouble(totals.virtual_total, 6),
                StrCat(totals.steps, " steps")});
  table.Print(os);
}

void Profiler::Reset() {
  MutexLock lock(mu_);
  step_open_ = false;
  current_step_ = -1;
  current_.Clear();
  totals_ = TimeBreakdown{};
  last_ = TimeBreakdown{};
  history_.clear();
  history_next_ = 0;
}

FlightRecorder::FlightRecorder(bool enabled) : enabled_(enabled) {}

FlightRecorder::FlightRecorder(Exporter shared) : enabled_(shared) {}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* const kRecorder = new FlightRecorder(kExportFlight);
  return *kRecorder;
}

void FlightRecorder::set_output_prefix(std::string prefix) {
  MutexLock lock(mu_);
  prefix_ = std::move(prefix);
}

void FlightRecorder::Record(int64_t step, int phase, int matrix, int rank,
                            double wall_seconds, double virtual_seconds,
                            std::string_view label) {
  if (!enabled()) return;
  MutexLock lock(mu_);
  FlightRecord& slot = ring_[static_cast<size_t>(
      next_sequence_ % static_cast<int64_t>(kCapacity))];
  slot.sequence = next_sequence_++;
  slot.step = step;
  slot.phase = phase;
  slot.matrix = matrix;
  slot.rank = rank;
  slot.wall_time = MonotonicSeconds();
  slot.wall_seconds = wall_seconds;
  slot.virtual_seconds = virtual_seconds;
  CopyLabel(label, slot.label, sizeof(slot.label));
}

JsonValue FlightRecorder::DumpLocked(const Status& status,
                                     int64_t iteration) {
  JsonValue root = JsonValue::Object();
  root.Set("schema_version", int64_t{1});
  root.Set("kind", "flight_record");

  JsonValue trigger = JsonValue::Object();
  trigger.Set("code", static_cast<int64_t>(status.code()));
  trigger.Set("code_name", StatusCodeToString(status.code()));
  trigger.Set("message", status.message());
  trigger.Set("iteration", iteration);
  trigger.Set("sequence", next_sequence_);
  root.Set("trigger", std::move(trigger));

  JsonValue deltas = JsonValue::Object();
  metric_baseline_.resize(kNumTrackedCounters);  // zeros before any dump
  for (size_t i = 0; i < kNumTrackedCounters; ++i) {
    const int64_t value =
        MetricsRegistry::Global().CounterValue(kTrackedCounters[i]);
    deltas.Set(kTrackedCounters[i], value - metric_baseline_[i]);
    metric_baseline_[i] = value;
  }
  root.Set("metric_deltas", std::move(deltas));

  JsonValue records = JsonValue::Array();
  const int64_t capacity = static_cast<int64_t>(kCapacity);
  const int64_t count = std::min(next_sequence_, capacity);
  const int64_t first = next_sequence_ - count;
  for (int64_t seq = first; seq < next_sequence_; ++seq) {
    records.Append(FlightRecordToJson(
        ring_[static_cast<size_t>(seq % capacity)]));
  }
  root.Set("records", std::move(records));
  return root;
}

void FlightRecorder::OnExchangeFailure(const Status& status,
                                       int64_t iteration) {
  if (!enabled()) return;
  MutexLock lock(mu_);
  JsonValue dump = DumpLocked(status, iteration);
  if (!prefix_.empty()) {
    const Status written =
        WriteJsonFile(StrCat(prefix_, ".", dumps_, ".json"), dump);
    if (!written.ok()) LOG(Warning) << "flight recorder: " << written;
  }
  last_dump_ = std::move(dump);
  ++dumps_;
  // The failure itself becomes part of the subsequent history.
  FlightRecord& slot = ring_[static_cast<size_t>(
      next_sequence_ % static_cast<int64_t>(kCapacity))];
  slot = FlightRecord{};
  slot.sequence = next_sequence_++;
  slot.step = iteration;
  slot.wall_time = MonotonicSeconds();
  CopyLabel(StrCat("fail:", StatusCodeToString(status.code())), slot.label,
            sizeof(slot.label));
}

int64_t FlightRecorder::record_count() const {
  MutexLock lock(mu_);
  return next_sequence_;
}

int64_t FlightRecorder::dump_count() const {
  MutexLock lock(mu_);
  return dumps_;
}

JsonValue FlightRecorder::LastDump() const {
  MutexLock lock(mu_);
  return last_dump_;
}

void FlightRecorder::Reset() {
  MutexLock lock(mu_);
  ring_.assign(kCapacity, FlightRecord{});
  next_sequence_ = 0;
  dumps_ = 0;
  last_dump_ = JsonValue();
  metric_baseline_.clear();
}

}  // namespace obs
}  // namespace lpsgd
