// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "obs/run_report.h"

#include "base/logging.h"

namespace lpsgd {
namespace obs {

RunReport::RunReport(bool enabled) : enabled_(enabled) {}

RunReport& RunReport::Global() {
  static RunReport* const kReport = new RunReport(/*enabled=*/false);
  return *kReport;
}

void RunReport::set_binary(std::string_view name) {
  MutexLock lock(mu_);
  binary_.assign(name);
}

void RunReport::SetMeta(std::string_view key, std::string_view value) {
  MutexLock lock(mu_);
  meta_.Set(std::string(key), JsonValue(std::string(value)));
}

void RunReport::AddEntry(std::string_view kind, JsonValue fields) {
  if (!enabled()) return;
  CHECK(fields.kind() == JsonValue::Kind::kObject)
      << "run-report entry must be a JSON object";
  fields.Set("kind", std::string(kind));
  MutexLock lock(mu_);
  entries_.Append(std::move(fields));
}

size_t RunReport::entry_count() const {
  MutexLock lock(mu_);
  return entries_.size();
}

void RunReport::Reset() {
  MutexLock lock(mu_);
  meta_ = JsonValue::Object();
  entries_ = JsonValue::Array();
}

JsonValue RunReport::ToJson(const MetricsRegistry* metrics) const {
  // The registry is serialized before mu_ is taken, so no other lock is
  // ever acquired while mu_ is held.
  JsonValue metrics_json;
  if (metrics != nullptr) metrics_json = metrics->ToJson();
  MutexLock lock(mu_);
  JsonValue root = JsonValue::Object();
  root.Set("schema_version", int64_t{1});
  root.Set("binary", binary_);
  root.Set("meta", meta_);
  root.Set("entries", entries_);
  if (metrics != nullptr) root.Set("metrics", std::move(metrics_json));
  return root;
}

Status RunReport::Write(std::ostream& os,
                        const MetricsRegistry* metrics) const {
  os << ToJson(metrics).Dump(1) << "\n";
  if (!os.good()) return InternalError("run-report stream write failed");
  return OkStatus();
}

Status RunReport::WriteFile(const std::string& path,
                            const MetricsRegistry* metrics) const {
  return WriteJsonFile(path, ToJson(metrics));
}

}  // namespace obs
}  // namespace lpsgd
