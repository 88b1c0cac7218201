// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// The instrumentation span and the exporter switch (DESIGN.md §5
// "Observability").
//
// Every timed region is one RAII obs::Span over a static SpanSite: a name,
// an optional ProfilePhase and an optional histogram. Construction reads
// one relaxed atomic, the process exporter mask; while no exporter the site
// feeds is on, the span reads no clock and records nothing. On close each
// enabled exporter takes the span's record:
//   metrics — the site's histogram in MetricsRegistry::Global();
//   profile — PhaseTimes::Add into the caller's per-slot scratch, which the
//             owner folds into Profiler::Global() at the step boundary;
//   trace   — a POD TraceRecord appended to Tracer::Global(), the one
//             Chrome trace writer (one lane per thread-pool slot).
// The fourth exporter, the flight recorder, is fed at the profiler's step
// fold and by the exchange observer rather than per span.
//
// The mask starts from the LPSGD_OBS environment variable, any
// comma-separated subset of "metrics,trace,profile,flight"; binaries add
// to it with --obs=<list> (EnableFromFlags).
#ifndef LPSGD_OBS_SPAN_H_
#define LPSGD_OBS_SPAN_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/mutex.h"
#include "base/status.h"
#include "base/thread_annotations.h"
#include "obs/json.h"

namespace lpsgd {
namespace obs {

// The exporters, as bits of the process exporter mask.
enum Exporter : uint32_t {
  kExportMetrics = 1u << 0,
  kExportTrace = 1u << 1,
  kExportProfile = 1u << 2,
  kExportFlight = 1u << 3,
};

// Parses a comma-separated exporter list ("metrics,trace,profile,flight",
// any subset, "" = none). Unknown tokens are logged and ignored.
uint32_t ParseExporters(std::string_view list);

namespace obs_internal {
// Set until LPSGD_OBS has been read into the mask (on first use, not at
// static initialization, so the parse may log).
inline constexpr uint32_t kMaskUnread = 1u << 31;
extern std::atomic<uint32_t> exporter_mask;
// Applies LPSGD_OBS once and returns the mask.
uint32_t ReadEnvironment();
}  // namespace obs_internal

// The enabled exporters (Exporter bits).
inline uint32_t Exporters() {
  const uint32_t mask =
      obs_internal::exporter_mask.load(std::memory_order_relaxed);
  return (mask & obs_internal::kMaskUnread) == 0
             ? mask
             : obs_internal::ReadEnvironment();
}
void SetExporters(uint32_t mask);
// Turns the `exporters` bits on or off, leaving the others.
void EnableExporters(uint32_t exporters, bool enabled);

// One exporter's on/off flag: a bit of the process exporter mask for the
// Global() instances, or a flag of its own for locally constructed
// exporters (tests, embedders).
class ExporterSwitch {
 public:
  explicit ExporterSwitch(bool enabled) : own_(enabled) {}
  explicit ExporterSwitch(Exporter shared) : shared_(shared) {}

  bool enabled() const {
    return shared_ != 0 ? (Exporters() & shared_) != 0
                        : own_.load(std::memory_order_relaxed);
  }
  void set(bool enabled) {
    if (shared_ != 0) {
      EnableExporters(shared_, enabled);
    } else {
      own_.store(enabled, std::memory_order_relaxed);
    }
  }

 private:
  uint32_t shared_ = 0;
  std::atomic<bool> own_{false};
};

// Command-line form of the switch (train_cli, the benches): enables the
// exporters named in `list` on top of LPSGD_OBS and, for a non-empty
// `prefix`, sends flight-recorder dumps to "<prefix>.flight.<n>.json".
void EnableFromFlags(std::string_view list, const std::string& prefix);
// Writes the output of each file exporter in `exporters`:
// <prefix>.trace.json (Chrome trace), <prefix>.profile.json
// (Profiler::ToJson) and <prefix>.metrics.json (MetricsRegistry::ToJson).
// Returns the first failure; the paths written are appended to `written`.
[[nodiscard]] Status WriteOutputs(const std::string& prefix,
                                  uint32_t exporters,
                                  std::vector<std::string>* written);

// Monotonic wall clock in seconds (spans, profiler steps, flight records).
double MonotonicSeconds();

// The phases one synchronous training step decomposes into (Algorithm 1:
// local compute, encode, exchange, decode, aggregate, update — plus the
// retry layer's bookkeeping). Plain enum: values index fixed arrays.
enum ProfilePhase : int {
  kPhaseForward = 0,   // input slicing + forward pass + loss
  kPhaseBackward = 1,  // backward pass
  kPhaseOptimizer = 2, // gradient scaling + momentum step
  kPhaseEncode = 3,    // codec Encode kernels
  kPhaseWire = 4,      // wall: host copies standing in for the wire;
                       // virtual: the cost model's comm_seconds
  kPhaseDecode = 5,    // codec Decode kernels
  kPhaseSum = 6,       // aggregate summation + exchange staging
  kPhaseRetry = 7,     // retry snapshots/restores; virtual: backoff penalty
  kNumProfilePhases = 8,
};

// "forward", "backward", ... (stable names used in JSON and tables).
const char* ProfilePhaseName(int phase);

// Per-slot phase accumulator, the profile exporter's scratch: fixed POD
// arrays only, so instances may live in hot-path workspaces and be written
// from LPSGD_HOT_PATH regions without allocating. One PhaseTimes is
// single-threaded — keep one per thread-pool slot
// (ThreadPool::CurrentSlot()) and merge serially.
struct PhaseTimes {
  double wall[kNumProfilePhases] = {};
  double virt[kNumProfilePhases] = {};
  int64_t calls[kNumProfilePhases] = {};

  void Clear() { *this = PhaseTimes{}; }

  LPSGD_HOT_PATH
  void Add(int phase, double wall_seconds) {
    wall[phase] += wall_seconds;
    calls[phase] += 1;
  }

  void AddVirtual(int phase, double virtual_seconds) {
    virt[phase] += virtual_seconds;
  }

  void Merge(const PhaseTimes& other) {
    for (int p = 0; p < kNumProfilePhases; ++p) {
      wall[p] += other.wall[p];
      virt[p] += other.virt[p];
      calls[p] += other.calls[p];
    }
  }

  double WallTotal() const {
    double total = 0.0;
    for (int p = 0; p < kNumProfilePhases; ++p) total += wall[p];
    return total;
  }

  double VirtualTotal() const {
    double total = 0.0;
    for (int p = 0; p < kNumProfilePhases; ++p) total += virt[p];
    return total;
  }
};

// One instrumented region. Sites are static (namespace-scope constexpr),
// so records may point at them for the life of the process.
struct SpanSite {
  constexpr SpanSite(const char* name, int phase = -1,
                     const char* histogram = nullptr)
      : name(name),
        phase(phase),
        histogram(histogram),
        exporters(kExportTrace | (phase >= 0 ? kExportProfile : 0u) |
                  (histogram != nullptr ? kExportMetrics : 0u)) {}

  const char* name;       // "trainer/iteration"
  int phase;              // ProfilePhase, -1 for none
  const char* histogram;  // seconds histogram, nullptr for none
  uint32_t exporters;     // the Exporter bits this site feeds
};

// Sites of regions that only attribute time to a phase, named after it.
inline constexpr SpanSite kPhaseSpans[kNumProfilePhases] = {
    {"forward", kPhaseForward}, {"backward", kPhaseBackward},
    {"optimizer", kPhaseOptimizer}, {"encode", kPhaseEncode},
    {"wire", kPhaseWire}, {"decode", kPhaseDecode},
    {"sum", kPhaseSum}, {"retry", kPhaseRetry},
};

// One closed span. POD: the trace buffer holds these by value. Wall times
// are MonotonicSeconds; virtual times are simulator seconds (negative when
// the span carries no virtual-clock range); -1 marks an absent matrix,
// rank or byte count.
struct TraceRecord {
  const SpanSite* site;
  int matrix;
  int rank;
  int slot;  // ThreadPool::CurrentSlot() of the opening thread
  double wall_start;
  double wall_duration;
  double virtual_start;
  double virtual_end;
  int64_t bytes;
};

// RAII span. Annotations may be attached between construction and close;
// `phases` is the profile exporter's sink (nullptr: not profiled).
class Span {
 public:
  LPSGD_HOT_PATH
  explicit Span(const SpanSite& site, PhaseTimes* phases = nullptr,
                int matrix = -1, int rank = -1)
      : exporters_(
            obs_internal::exporter_mask.load(std::memory_order_relaxed) &
            (site.exporters | obs_internal::kMaskUnread)) {
    if (exporters_ != 0) Open(site, phases, matrix, rank);
  }
  // A region that only attributes time to `phase` (kPhaseSpans' site).
  LPSGD_HOT_PATH
  Span(ProfilePhase phase, PhaseTimes* phases, int matrix = -1, int rank = -1)
      : Span(kPhaseSpans[phase], phases, matrix, rank) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  LPSGD_HOT_PATH
  ~Span() {
    if (exporters_ == 0) return;
    Close();
    if ((exporters_ & kExportProfile) != 0) {
      phases_->Add(record_.site->phase, record_.wall_duration);
    }
  }

  void set_virtual_range(double virtual_start, double virtual_end) {
    record_.virtual_start = virtual_start;
    record_.virtual_end = virtual_end;
  }
  void set_bytes(int64_t bytes) { record_.bytes = bytes; }

 private:
  void Open(const SpanSite& site, PhaseTimes* phases, int matrix, int rank);
  // Stamps the duration and feeds the metrics and trace exporters.
  void Close();

  // The exporters taking this span's record; 0 while disabled, in which
  // case nothing below is ever read.
  uint32_t exporters_;
  PhaseTimes* phases_;
  TraceRecord record_;
};

// The trace exporter and the one Chrome trace writer. Records are kept in
// memory, in close order, until written.
class Tracer {
 public:
  // Process-wide tracer fed by every Span (the kExportTrace bit).
  static Tracer& Global();

  // Locally-constructed tracers start enabled (tests, embedders).
  explicit Tracer(bool enabled = true);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.enabled(); }
  void set_enabled(bool enabled) { enabled_.set(enabled); }

  // Appends one record (no-op while disabled); past kMaxEvents the record
  // is dropped and counted instead.
  void AppendRecord(const TraceRecord& record) LPSGD_EXCLUDES(mu_);

  int64_t dropped_count() const LPSGD_EXCLUDES(mu_);
  std::vector<TraceRecord> Records() const LPSGD_EXCLUDES(mu_);
  // Drops every record and releases the buffer (the flag is kept).
  void Reset() LPSGD_EXCLUDES(mu_);

  // Chrome trace_event JSON: a traceEvents array plus displayTimeUnit
  // "ms". Each record is a "ph":"X" event at its measured time, in
  // microseconds, on tid = its pool slot; "cat" is the site's phase name
  // (or "span"), and matrix, rank, virtual-clock and byte annotations land
  // in "args".
  JsonValue ToChromeTraceJson() const LPSGD_EXCLUDES(mu_);

  // Records held in memory before new ones are dropped (~64 MB; a trace
  // this big no longer loads in chrome://tracing anyway).
  static constexpr size_t kMaxEvents = 1u << 20;

 private:
  explicit Tracer(Exporter shared);

  ExporterSwitch enabled_;
  mutable Mutex mu_;
  std::vector<TraceRecord> records_ LPSGD_GUARDED_BY(mu_);
  int64_t dropped_ LPSGD_GUARDED_BY(mu_) = 0;
};

// Transitive-purity exemptions (tools/analyze/lpsgd_analyze): a span's
// out-of-line half runs only while an exporter it feeds is on, so the
// unobserved-run contract (quant/workspace_test.cc counts heap
// allocations) never reaches these; the environment is read once, and the
// trace buffer's growth is amortized over the run being traced.
LPSGD_HOT_CALLEE_OK(ReadEnvironment);
LPSGD_HOT_CALLEE_OK(AppendRecord);

}  // namespace obs
}  // namespace lpsgd

#endif  // LPSGD_OBS_SPAN_H_
