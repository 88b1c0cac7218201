// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Thread-safe metrics registry: named counters, gauges, and fixed-bucket
// histograms, exported as JSON or an aligned table. Names are hierarchical
// slash-separated paths ("trainer/iteration_seconds", "comm/wire_bytes",
// "quant/qsgd/encode_calls"); the first segment is the owning subsystem.
//
// The registry is DISABLED by default and every mutation early-exits on a
// single relaxed atomic load, so instrumentation left in hot paths (codec
// encode loops, per-iteration trainer hooks) costs one predictable branch
// when observability is off. The global registry is the "metrics" exporter
// of obs/span.h: enable it programmatically, with LPSGD_OBS=metrics, or
// with a binary's --obs=metrics.
#ifndef LPSGD_OBS_METRICS_H_
#define LPSGD_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "obs/json.h"
#include "obs/span.h"

namespace lpsgd {
namespace obs {

// Transitive-purity exemptions (tools/analyze/lpsgd_analyze): hot paths
// may touch the observability surface because it no-ops behind one branch
// while the registry is disabled — the unobserved-run contract
// quant/workspace_test.cc enforces by counting heap allocations — and the
// singletons' lazy `new` plus per-name first-touch map inserts are
// one-time costs, amortized to zero at steady state.
LPSGD_HOT_CALLEE_OK(Global);
LPSGD_HOT_CALLEE_OK(Count);
LPSGD_HOT_CALLEE_OK(Observe);

// One histogram's state (HistogramFor returns a point-in-time copy).
// Buckets are cumulative-free: counts[i] holds observations with value <=
// bounds[i]; counts.back() is the overflow bucket (value > bounds.back()).
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<int64_t> counts;  // bounds.size() + 1 entries
  int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  double Mean() const { return count > 0 ? sum / count : 0.0; }

  // Fixed-bucket quantile estimate for q in [0, 1]: locates the bucket
  // holding the q-th observation and interpolates linearly inside it
  // (between the previous bound and the bucket's upper bound), clamped to
  // the observed [min, max]. Exact at bucket boundaries; within-bucket
  // error is bounded by the bucket width, which the default power-of-4
  // ladder keeps proportional to the value. Returns 0.0 for an empty
  // histogram.
  double Quantile(double q) const;
};

class MetricsRegistry {
 public:
  // Process-wide registry used by all built-in instrumentation; its flag is
  // the kExportMetrics bit of the exporter mask.
  static MetricsRegistry& Global();

  // Locally-constructed registries start enabled (tests, embedders).
  explicit MetricsRegistry(bool enabled = true);
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  bool enabled() const { return enabled_.enabled(); }
  void set_enabled(bool enabled) { enabled_.set(enabled); }

  // --- Mutation (no-ops while disabled) ---------------------------------

  // Adds `delta` to counter `name`, creating it at zero.
  void Count(std::string_view name, int64_t delta = 1) LPSGD_EXCLUDES(mu_);
  // Sets gauge `name` to `value` (last write wins).
  void SetGauge(std::string_view name, double value) LPSGD_EXCLUDES(mu_);
  // Records `value` into histogram `name`, creating it with the default
  // exponential bucket ladder (see DefaultBounds()).
  void Observe(std::string_view name, double value) LPSGD_EXCLUDES(mu_);
  // Records into a histogram created with explicit bucket upper bounds
  // (strictly increasing); bounds of an existing histogram are kept.
  void ObserveWithBounds(std::string_view name, double value,
                         const std::vector<double>& bounds)
      LPSGD_EXCLUDES(mu_);

  // Drops every metric (the enabled flag is preserved).
  void Reset() LPSGD_EXCLUDES(mu_);

  // --- Inspection (works regardless of the enabled flag) ----------------

  // Value of counter `name`, or 0 when absent.
  int64_t CounterValue(std::string_view name) const LPSGD_EXCLUDES(mu_);
  // Value of gauge `name`, or 0.0 when absent.
  double GaugeValue(std::string_view name) const LPSGD_EXCLUDES(mu_);
  // Snapshot of histogram `name` (zero-count snapshot when absent).
  HistogramSnapshot HistogramFor(std::string_view name) const
      LPSGD_EXCLUDES(mu_);

  // Sorted names, all three metric kinds merged.
  std::vector<std::string> Names() const LPSGD_EXCLUDES(mu_);

  // {"counters": {...}, "gauges": {...}, "histograms": {name: {count,
  // sum, min, max, mean, bounds, counts}}}.
  JsonValue ToJson() const LPSGD_EXCLUDES(mu_);
  std::string ToJsonString(int indent = 2) const LPSGD_EXCLUDES(mu_);

  // Aligned human-readable table of every metric.
  void PrintTable(std::ostream& os) const LPSGD_EXCLUDES(mu_);

  // The default histogram ladder: powers of 4 from 1e-9 up to ~1.2e12,
  // sized for values ranging from nanosecond timings to terabyte counts.
  static const std::vector<double>& DefaultBounds();

 private:
  explicit MetricsRegistry(Exporter shared);

  ExporterSwitch enabled_;
  mutable Mutex mu_;
  std::map<std::string, int64_t, std::less<>> counters_ LPSGD_GUARDED_BY(mu_);
  std::map<std::string, double, std::less<>> gauges_ LPSGD_GUARDED_BY(mu_);
  std::map<std::string, HistogramSnapshot, std::less<>> histograms_
      LPSGD_GUARDED_BY(mu_);
};

// Convenience wrappers over MetricsRegistry::Global().
inline void Count(std::string_view name, int64_t delta = 1) {
  MetricsRegistry::Global().Count(name, delta);
}
inline void SetGauge(std::string_view name, double value) {
  MetricsRegistry::Global().SetGauge(name, value);
}
inline void Observe(std::string_view name, double value) {
  MetricsRegistry::Global().Observe(name, value);
}
inline bool MetricsEnabled() { return MetricsRegistry::Global().enabled(); }

}  // namespace obs
}  // namespace lpsgd

#endif  // LPSGD_OBS_METRICS_H_
