// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "base/logging.h"
#include "base/strings.h"
#include "base/table_printer.h"
#include "base/thread_pool.h"

namespace lpsgd {
namespace obs {
namespace {

// Wires the thread pool's pool/* instrumentation into the global registry
// at static-initialization time (lpsgd_base cannot depend on lpsgd_obs, so
// the pool exposes raw function-pointer hooks instead). Both hooks no-op
// behind the registry's single enabled-flag branch.
struct PoolMetricHookRegistrar {
  PoolMetricHookRegistrar() {
    pool_internal::SetMetricHooks(
        [](const char* name, int64_t delta) {
          MetricsRegistry::Global().Count(name, delta);
        },
        [](const char* name, double value) {
          MetricsRegistry::Global().Observe(name, value);
        });
  }
};
const PoolMetricHookRegistrar pool_metric_hook_registrar;

}  // namespace

double HistogramSnapshot::Quantile(double q) const {
  if (count <= 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  // Rank of the target observation, 1-based: ceil(q * count), at least 1.
  const int64_t rank =
      std::max<int64_t>(1, static_cast<int64_t>(std::ceil(q * count)));
  int64_t seen = 0;
  for (size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    if (seen + counts[b] < rank) {
      seen += counts[b];
      continue;
    }
    // Bucket b holds the target. Interpolate between its lower and upper
    // bound by the rank's position inside the bucket; the underflow bucket
    // starts at min, the overflow bucket ends at max.
    const double lower = b == 0 ? min : bounds[b - 1];
    const double upper = b < bounds.size() ? bounds[b] : max;
    const double fraction = counts[b] > 0
                                ? static_cast<double>(rank - seen) /
                                      static_cast<double>(counts[b])
                                : 1.0;
    const double estimate = lower + (upper - lower) * fraction;
    return std::min(max, std::max(min, estimate));
  }
  return max;
}

MetricsRegistry::MetricsRegistry(bool enabled) : enabled_(enabled) {}

MetricsRegistry::MetricsRegistry(Exporter shared) : enabled_(shared) {}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* const kRegistry =
      new MetricsRegistry(kExportMetrics);
  return *kRegistry;
}

const std::vector<double>& MetricsRegistry::DefaultBounds() {
  static const std::vector<double>& kBounds = *new std::vector<double>([] {
    std::vector<double> bounds;
    double b = 1e-9;
    for (int i = 0; i < 36; ++i) {  // 1e-9 * 4^35 ~= 1.2e12
      bounds.push_back(b);
      b *= 4.0;
    }
    return bounds;
  }());
  return kBounds;
}

namespace {

void AddObservation(HistogramSnapshot* h, double value) {
  const auto it = std::lower_bound(h->bounds.begin(), h->bounds.end(), value);
  ++h->counts[static_cast<size_t>(it - h->bounds.begin())];
  if (h->count == 0) {
    h->min = h->max = value;
  } else {
    h->min = std::min(h->min, value);
    h->max = std::max(h->max, value);
  }
  ++h->count;
  h->sum += value;
}

}  // namespace

void MetricsRegistry::Count(std::string_view name, int64_t delta) {
  if (!enabled()) return;
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void MetricsRegistry::SetGauge(std::string_view name, double value) {
  if (!enabled()) return;
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

void MetricsRegistry::Observe(std::string_view name, double value) {
  ObserveWithBounds(name, value, DefaultBounds());
}

void MetricsRegistry::ObserveWithBounds(std::string_view name, double value,
                                        const std::vector<double>& bounds) {
  if (!enabled()) return;
  MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    HistogramSnapshot h;
    h.bounds = bounds;
    h.counts.assign(bounds.size() + 1, 0);
    it = histograms_.emplace(std::string(name), std::move(h)).first;
  }
  AddObservation(&it->second, value);
}

void MetricsRegistry::Reset() {
  MutexLock lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

int64_t MetricsRegistry::CounterValue(std::string_view name) const {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::GaugeValue(std::string_view name) const {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

HistogramSnapshot MetricsRegistry::HistogramFor(std::string_view name) const {
  MutexLock lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? HistogramSnapshot{} : it->second;
}

std::vector<std::string> MetricsRegistry::Names() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, unused] : counters_) names.push_back(name);
  for (const auto& [name, unused] : gauges_) names.push_back(name);
  for (const auto& [name, unused] : histograms_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

JsonValue MetricsRegistry::ToJson() const {
  MutexLock lock(mu_);
  JsonValue root = JsonValue::Object();

  JsonValue counters = JsonValue::Object();
  for (const auto& [name, value] : counters_) counters.Set(name, value);
  root.Set("counters", std::move(counters));

  JsonValue gauges = JsonValue::Object();
  for (const auto& [name, value] : gauges_) gauges.Set(name, value);
  root.Set("gauges", std::move(gauges));

  JsonValue histograms = JsonValue::Object();
  for (const auto& [name, h] : histograms_) {
    JsonValue entry = JsonValue::Object();
    entry.Set("count", h.count);
    entry.Set("sum", h.sum);
    entry.Set("min", h.min);
    entry.Set("max", h.max);
    entry.Set("mean", h.Mean());
    entry.Set("p50", h.Quantile(0.50));
    entry.Set("p95", h.Quantile(0.95));
    entry.Set("p99", h.Quantile(0.99));
    JsonValue bounds = JsonValue::Array();
    for (double b : h.bounds) bounds.Append(b);
    entry.Set("bounds", std::move(bounds));
    JsonValue counts = JsonValue::Array();
    for (int64_t c : h.counts) counts.Append(c);
    entry.Set("counts", std::move(counts));
    histograms.Set(name, std::move(entry));
  }
  root.Set("histograms", std::move(histograms));
  return root;
}

std::string MetricsRegistry::ToJsonString(int indent) const {
  return ToJson().Dump(indent);
}

void MetricsRegistry::PrintTable(std::ostream& os) const {
  MutexLock lock(mu_);
  TablePrinter table(
      {"Metric", "Kind", "Value", "Count", "Mean", "p50", "p95", "p99"});
  for (const auto& [name, value] : counters_) {
    table.AddRow({name, "counter", StrCat(value), "", "", "", "", ""});
  }
  for (const auto& [name, value] : gauges_) {
    table.AddRow({name, "gauge", FormatDouble(value, 6), "", "", "", "", ""});
  }
  for (const auto& [name, h] : histograms_) {
    table.AddRow({name, "histogram", FormatDouble(h.sum, 6), StrCat(h.count),
                  FormatDouble(h.Mean(), 9), FormatDouble(h.Quantile(0.50), 9),
                  FormatDouble(h.Quantile(0.95), 9),
                  FormatDouble(h.Quantile(0.99), 9)});
  }
  table.Print(os);
}

}  // namespace obs
}  // namespace lpsgd
