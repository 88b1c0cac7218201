// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "ckpt/manager.h"

#include <algorithm>
#include <cstdlib>

#include "base/strings.h"
#include "obs/metrics.h"
#include "obs/run_report.h"

namespace lpsgd {
namespace ckpt {
namespace {

constexpr const char kManifestName[] = "MANIFEST";
constexpr const char kManifestHeader[] = "lpsgd-ckpt-manifest v1";
constexpr const char kCheckpointPrefix[] = "ckpt-";
constexpr const char kCheckpointSuffix[] = ".lpck";

// "ckpt-<digits>.lpck" -> iteration; false for anything else.
bool ParseCheckpointName(const std::string& name, int64_t* iteration) {
  const size_t prefix = sizeof(kCheckpointPrefix) - 1;
  const size_t suffix = sizeof(kCheckpointSuffix) - 1;
  if (name.size() <= prefix + suffix) return false;
  if (name.rfind(kCheckpointPrefix, 0) != 0) return false;
  if (name.compare(name.size() - suffix, suffix, kCheckpointSuffix) != 0) {
    return false;
  }
  const std::string digits = name.substr(prefix, name.size() - prefix - suffix);
  if (digits.empty()) return false;
  char* end = nullptr;
  const long long value = std::strtoll(digits.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || value < 0) return false;
  *iteration = static_cast<int64_t>(value);
  return true;
}

}  // namespace

Status DurableCheckpointOptions::Validate() const {
  if (save_every < 0) {
    return InvalidArgumentError(
        StrCat("save_every must be >= 0, got ", save_every));
  }
  if (keep < 1) {
    return InvalidArgumentError(StrCat("keep must be >= 1, got ", keep));
  }
  if (max_retries < 0 || backoff_base_seconds < 0.0) {
    return InvalidArgumentError("checkpoint retry budgets must be >= 0");
  }
  return OkStatus();
}

StatusOr<std::unique_ptr<CheckpointManager>> CheckpointManager::Create(
    DurableCheckpointOptions options) {
  if (!options.enabled()) {
    return InvalidArgumentError("checkpoint manager needs a save_dir");
  }
  LPSGD_RETURN_IF_ERROR(options.Validate());
  std::shared_ptr<Storage> storage =
      options.storage != nullptr ? options.storage : MakePosixStorage();
  LPSGD_RETURN_IF_ERROR(storage->CreateDir(options.save_dir));
  return std::unique_ptr<CheckpointManager>(
      new CheckpointManager(std::move(options), std::move(storage)));
}

std::string CheckpointManager::CheckpointPath(int64_t iteration) const {
  return JoinPath(options_.save_dir,
                  StrCat(kCheckpointPrefix, iteration, kCheckpointSuffix));
}

Status CheckpointManager::PublishFile(const std::string& name,
                                      const std::string& bytes,
                                      int64_t iteration) {
  const std::string final_path = JoinPath(options_.save_dir, name);
  const std::string temp_path = StrCat(final_path, ".tmp");
  storage_->SetFaultContext(iteration);
  Status last_error = OkStatus();
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      if (obs::MetricsEnabled()) {
        obs::Count("ckpt/retries");
        obs::Observe("ckpt/backoff_seconds",
                     RetryBackoffSeconds(options_.backoff_base_seconds,
                                         attempt));
      }
    }
    last_error = storage_->WriteFileSynced(temp_path, bytes);
    if (last_error.ok()) {
      return storage_->AtomicRename(temp_path, final_path);
    }
    if (!IsTransient(last_error.code())) break;
  }
  if (obs::MetricsEnabled()) obs::Count("ckpt/write_failures");
  return last_error;
}

StatusOr<std::vector<std::pair<std::string, int64_t>>>
CheckpointManager::ReadManifest() const {
  LPSGD_ASSIGN_OR_RETURN(
      const std::string text,
      storage_->ReadFile(JoinPath(options_.save_dir, kManifestName)));
  std::vector<std::string> lines = StrSplit(text, '\n');
  if (lines.empty() || lines[0] != kManifestHeader) {
    return DataLossError("corrupt checkpoint manifest header");
  }
  std::vector<std::pair<std::string, int64_t>> entries;
  for (size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    const size_t space = lines[i].find(' ');
    if (space == std::string::npos) {
      return DataLossError(
          StrCat("corrupt checkpoint manifest line: ", lines[i]));
    }
    const std::string name = lines[i].substr(0, space);
    int64_t iteration = 0;
    if (!ParseCheckpointName(name, &iteration)) {
      return DataLossError(
          StrCat("corrupt checkpoint manifest entry: ", lines[i]));
    }
    entries.emplace_back(name, iteration);
  }
  return entries;
}

Status CheckpointManager::WriteManifest(
    const std::vector<std::pair<std::string, int64_t>>& entries) {
  std::string text = kManifestHeader;
  text.push_back('\n');
  for (const auto& entry : entries) {
    text.append(StrCat(entry.first, " ", entry.second, "\n"));
  }
  const std::string final_path = JoinPath(options_.save_dir, kManifestName);
  const std::string temp_path = StrCat(final_path, ".tmp");
  LPSGD_RETURN_IF_ERROR(storage_->WriteFileSynced(temp_path, text));
  return storage_->AtomicRename(temp_path, final_path);
}

StatusOr<std::vector<std::pair<std::string, int64_t>>>
CheckpointManager::ScanCheckpoints() const {
  LPSGD_ASSIGN_OR_RETURN(const std::vector<std::string> names,
                         storage_->List(options_.save_dir));
  std::vector<std::pair<std::string, int64_t>> entries;
  for (const std::string& name : names) {
    int64_t iteration = 0;
    if (ParseCheckpointName(name, &iteration)) {
      entries.emplace_back(name, iteration);
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return entries;
}

Status CheckpointManager::Save(const TrainerState& state) {
  const std::string bytes = Serialize(state);
  const std::string name =
      StrCat(kCheckpointPrefix, state.iteration, kCheckpointSuffix);
  LPSGD_RETURN_IF_ERROR(PublishFile(name, bytes, state.iteration));

  // Rebuild the manifest: new file first, then surviving older entries.
  std::vector<std::pair<std::string, int64_t>> entries;
  StatusOr<std::vector<std::pair<std::string, int64_t>>> previous =
      ReadManifest();
  if (!previous.ok()) {
    // Missing (first save) or corrupt manifest: rebuild from the
    // directory so retention still converges.
    previous = ScanCheckpoints();
  }
  entries.emplace_back(name, state.iteration);
  if (previous.ok()) {
    for (const auto& entry : previous.value()) {
      if (entry.first != name) entries.push_back(entry);
    }
  }
  std::vector<std::pair<std::string, int64_t>> pruned(
      entries.begin(),
      entries.begin() +
          std::min<size_t>(entries.size(),
                           static_cast<size_t>(options_.keep)));
  LPSGD_RETURN_IF_ERROR(WriteManifest(pruned));
  // GC after the manifest stops referencing the victims; a crash in
  // between leaves unreferenced files, which the next Save's scan prunes.
  for (size_t i = pruned.size(); i < entries.size(); ++i) {
    const Status removed =
        storage_->Remove(JoinPath(options_.save_dir, entries[i].first));
    if (!removed.ok() && obs::MetricsEnabled()) {
      obs::Count("ckpt/gc_failures");
    }
  }
  if (obs::MetricsEnabled()) {
    obs::Count("ckpt/writes");
    obs::Count("ckpt/bytes", static_cast<int64_t>(bytes.size()));
  }
  return OkStatus();
}

StatusOr<RestoreResult> CheckpointManager::RestoreLatest() {
  StatusOr<std::vector<std::pair<std::string, int64_t>>> listed =
      ReadManifest();
  if (!listed.ok()) listed = ScanCheckpoints();
  LPSGD_RETURN_IF_ERROR(listed.status());
  const std::vector<std::pair<std::string, int64_t>>& entries =
      listed.value();
  if (entries.empty()) {
    return NotFoundError(
        StrCat("no checkpoints in ", options_.save_dir));
  }
  int fallbacks = 0;
  for (const auto& entry : entries) {
    const std::string path = JoinPath(options_.save_dir, entry.first);
    StatusOr<std::string> bytes = storage_->ReadFile(path);
    if (bytes.ok()) {
      StatusOr<TrainerState> state = Deserialize(bytes.value());
      if (state.ok()) {
        if (obs::MetricsEnabled()) {
          obs::Count("ckpt/restores");
          if (fallbacks > 0) obs::Count("ckpt/fallbacks", fallbacks);
        }
        if (obs::ReportEnabled()) {
          obs::JsonValue fields = obs::JsonValue::Object();
          fields.Set("path", path);
          fields.Set("iteration", state.value().iteration);
          fields.Set("rank_count",
                     static_cast<int64_t>(state.value().rank_count));
          fields.Set("fallbacks", static_cast<int64_t>(fallbacks));
          obs::RecordEntry("ckpt_restore", std::move(fields));
        }
        RestoreResult result;
        result.state = std::move(state).value();
        result.path = path;
        result.fallbacks = fallbacks;
        return result;
      }
      // A file that exists but fails to decode is a torn/short write the
      // integrity words caught: fall back to the previous checkpoint.
      if (obs::MetricsEnabled()) obs::Count("ckpt/torn_detected");
    }
    ++fallbacks;
  }
  return DataLossError(
      StrCat("all ", entries.size(), " checkpoints in ", options_.save_dir,
             " are corrupt or unreadable"));
}

}  // namespace ckpt
}  // namespace lpsgd
