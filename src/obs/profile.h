// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Step-phase attribution profiler and fault flight recorder: the "profile"
// and "flight" exporters of obs/span.h (DESIGN.md §5 "Observability").
//
// The profiler answers the paper's central empirical question — where does
// a training step's time go as communication precision drops — by folding
// the phase spans (forward, backward, optimizer, encode, wire, decode, sum,
// retry) into one TimeBreakdown per step, in both wall and virtual time.
// Spans accumulate into per-thread-slot PhaseTimes scratch and the owners
// merge it serially into the global Profiler at step boundaries.
//
// The flight recorder keeps a fixed-capacity ring of recent step phases
// plus tracked-counter deltas, and dumps the whole history as one JSON
// document whenever a gradient exchange returns non-OK (DATA_LOSS,
// DEADLINE_EXCEEDED, ABORTED, ...) — so every chaos failure ships with the
// context that led up to it.
#ifndef LPSGD_OBS_PROFILE_H_
#define LPSGD_OBS_PROFILE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "base/mutex.h"
#include "base/status.h"
#include "base/thread_annotations.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace lpsgd {
namespace obs {

// One step's (or an aggregate's) attributed time. wall_total is the
// measured BeginStep..EndStep wall span; AttributedWall() is the sum of
// the per-phase wall times inside it. Coverage() is their ratio — the
// completeness the acceptance test asserts is >= 0.99. Under a parallel
// ExecutionContext the attributed sum counts every worker's time, so
// coverage may legitimately exceed 1.
struct TimeBreakdown {
  int64_t step = -1;          // -1 for aggregated totals
  int64_t steps = 0;          // number of steps folded in (1 per step)
  double wall_total = 0.0;    // measured step wall seconds
  double virtual_total = 0.0; // simulator seconds charged to the step
  PhaseTimes phases;

  double AttributedWall() const { return phases.WallTotal(); }
  // Fraction of the measured wall span the phases account for; 1.0 when
  // nothing was measured.
  double Coverage() const {
    return wall_total > 0.0 ? AttributedWall() / wall_total : 1.0;
  }
  // {step, wall_total, virtual_total, attributed_wall, coverage,
  //  phases: {<name>: {wall, virtual, calls, wall_share}}}.
  JsonValue ToJson() const;
};

// Serial fold point for the per-slot accumulators. The trainer calls
// BeginStep/EndStep around each iteration; producers in between merge
// whole PhaseTimes scratch blocks (AddPhases). EndStep folds everything
// into a TimeBreakdown, appends it to a bounded history, merges the
// running totals, feeds the flight recorder, and emits a run-report entry
// while reporting is enabled.
class Profiler {
 public:
  // Process-wide profiler; its flag is the kExportProfile bit of the
  // exporter mask.
  static Profiler& Global();

  // Locally-constructed profilers start enabled (tests, embedders).
  explicit Profiler(bool enabled = true);
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  bool enabled() const { return enabled_.enabled(); }
  void set_enabled(bool enabled) { enabled_.set(enabled); }

  // --- Step lifecycle (no-ops while disabled) ---------------------------

  // Opens step `step`, discarding any step left open (a failed iteration
  // is simply never EndStep'ed; its partial phases are dropped).
  void BeginStep(int64_t step) LPSGD_EXCLUDES(mu_);
  // Merges one slot's accumulated phases into the open step.
  void AddPhases(const PhaseTimes& delta) LPSGD_EXCLUDES(mu_);
  // Closes the open step: wall_total is measured against BeginStep's
  // clock, `virtual_seconds` is the simulator time the step charged.
  void EndStep(double virtual_seconds) LPSGD_EXCLUDES(mu_);

  // --- Inspection -------------------------------------------------------

  int64_t steps_recorded() const LPSGD_EXCLUDES(mu_);
  TimeBreakdown LastStep() const LPSGD_EXCLUDES(mu_);
  // Running totals over every recorded step (step == -1).
  TimeBreakdown Totals() const LPSGD_EXCLUDES(mu_);
  // Most recent steps, oldest first (bounded history of kMaxStepHistory).
  std::vector<TimeBreakdown> Steps() const LPSGD_EXCLUDES(mu_);

  // {schema_version, kind: "profile", steps_recorded, totals, steps: []}.
  JsonValue ToJson() const LPSGD_EXCLUDES(mu_);
  // Aligned per-phase table of the running totals (wall, share, virtual,
  // calls) — the breakdown train_cli prints.
  void PrintTable(std::ostream& os) const LPSGD_EXCLUDES(mu_);

  // Drops all recorded state (the enabled flag is preserved).
  void Reset() LPSGD_EXCLUDES(mu_);

 private:
  // Steps kept for JSON export; older steps fall out of the window but
  // stay folded into Totals().
  static constexpr size_t kMaxStepHistory = 4096;

  explicit Profiler(Exporter shared);

  ExporterSwitch enabled_;
  mutable Mutex mu_;
  bool step_open_ LPSGD_GUARDED_BY(mu_) = false;
  int64_t current_step_ LPSGD_GUARDED_BY(mu_) = -1;
  double step_wall_start_ LPSGD_GUARDED_BY(mu_) = 0.0;
  PhaseTimes current_ LPSGD_GUARDED_BY(mu_);
  TimeBreakdown totals_ LPSGD_GUARDED_BY(mu_);
  TimeBreakdown last_ LPSGD_GUARDED_BY(mu_);
  // Ring of the most recent kMaxStepHistory breakdowns.
  std::vector<TimeBreakdown> history_ LPSGD_GUARDED_BY(mu_);
  size_t history_next_ LPSGD_GUARDED_BY(mu_) = 0;
};

inline bool ProfileEnabled() { return Profiler::Global().enabled(); }

// One flight-recorder ring entry. Fixed-size POD — recording never
// allocates; labels longer than the field are truncated.
struct FlightRecord {
  int64_t sequence = 0;       // monotonically increasing record id
  int64_t step = -1;          // training iteration, -1 when unknown
  int phase = -1;             // ProfilePhase, -1 for non-phase records
  int matrix = -1;
  int rank = -1;
  double wall_time = 0.0;     // MonotonicSeconds when recorded
  double wall_seconds = 0.0;  // span duration (0 for point events)
  double virtual_seconds = 0.0;
  char label[24] = {};        // e.g. "step", "exchange_ok", "inject:fail"
};

// Fixed-capacity ring of recent FlightRecords plus tracked-counter deltas.
// OnExchangeFailure() freezes the history into one JSON dump — written to
// "<prefix>.<n>.json" when an output prefix is set, and always retrievable
// via LastDump() — exactly once per non-OK exchange.
class FlightRecorder {
 public:
  // Process-wide recorder; its flag is the kExportFlight bit of the
  // exporter mask (dumps stay in memory until an output prefix is set).
  static FlightRecorder& Global();

  // Locally-constructed recorders start enabled (tests, embedders).
  explicit FlightRecorder(bool enabled = true);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  bool enabled() const { return enabled_.enabled(); }
  void set_enabled(bool enabled) { enabled_.set(enabled); }

  // Dump files are written to "<prefix>.<dump index>.json"; empty (the
  // default) keeps dumps in memory only.
  void set_output_prefix(std::string prefix) LPSGD_EXCLUDES(mu_);

  // Appends one record (no-op while disabled). Cheap but not free (one
  // mutex): call at step/exchange granularity, not per element.
  void Record(int64_t step, int phase, int matrix, int rank,
              double wall_seconds, double virtual_seconds,
              std::string_view label) LPSGD_EXCLUDES(mu_);

  // The auto-dump hook: the exchange observer calls this for every non-OK
  // AllReduce below the retry layer (and the retry layer for its own
  // synthesized deadline overruns). Builds the dump document, appends a
  // "trigger" record, writes the dump file when a prefix is set, and bumps
  // dump_count(). No-op while disabled.
  void OnExchangeFailure(const Status& status, int64_t iteration)
      LPSGD_EXCLUDES(mu_);
  // Purity exemption: runs only when an exchange already failed, never on
  // the fault-free steady-state path, so its dump allocations are fine.
  LPSGD_HOT_CALLEE_OK(OnExchangeFailure);

  int64_t record_count() const LPSGD_EXCLUDES(mu_);
  int64_t dump_count() const LPSGD_EXCLUDES(mu_);
  // The most recent dump document (null before the first dump). Schema:
  //   {schema_version: 1, kind: "flight_record",
  //    trigger: {code, code_name, message, iteration, sequence},
  //    metric_deltas: {<counter>: <delta since previous dump>},
  //    records: [{sequence, step, phase, phase_name, matrix, rank,
  //               wall_time, wall_seconds, virtual_seconds, label}]}
  JsonValue LastDump() const LPSGD_EXCLUDES(mu_);

  // Drops records, dumps, and counter baselines (flag and prefix kept).
  void Reset() LPSGD_EXCLUDES(mu_);

  // Ring capacity: records beyond this overwrite the oldest.
  static constexpr size_t kCapacity = 1024;

 private:
  JsonValue DumpLocked(const Status& status, int64_t iteration)
      LPSGD_REQUIRES(mu_);

  explicit FlightRecorder(Exporter shared);

  ExporterSwitch enabled_;
  mutable Mutex mu_;
  std::string prefix_ LPSGD_GUARDED_BY(mu_);
  std::vector<FlightRecord> ring_ LPSGD_GUARDED_BY(mu_) =
      std::vector<FlightRecord>(kCapacity);
  int64_t next_sequence_ LPSGD_GUARDED_BY(mu_) = 0;
  int64_t dumps_ LPSGD_GUARDED_BY(mu_) = 0;
  JsonValue last_dump_ LPSGD_GUARDED_BY(mu_);
  // Tracked-counter values at the previous dump, for the delta section.
  std::vector<int64_t> metric_baseline_ LPSGD_GUARDED_BY(mu_);
};

inline bool FlightRecorderEnabled() {
  return FlightRecorder::Global().enabled();
}

}  // namespace obs
}  // namespace lpsgd

#endif  // LPSGD_OBS_PROFILE_H_
