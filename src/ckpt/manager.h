// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_CKPT_MANAGER_H_
#define LPSGD_CKPT_MANAGER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/statusor.h"
#include "ckpt/format.h"
#include "ckpt/storage.h"

namespace lpsgd {
namespace ckpt {

// Durable-checkpoint configuration, carried on TrainerOptions.
struct DurableCheckpointOptions {
  // Directory for checkpoint files; empty disables durable checkpointing.
  std::string save_dir;
  // Save every N committed iterations (0 = only explicit/final saves).
  int save_every = 0;
  // Retention: how many most-recent checkpoints survive GC.
  int keep = 3;
  // Retry budget for transient write failures (ENOSPC and friends), with
  // the exchange retry loop's backoff schedule (RetryBackoffSeconds).
  int max_retries = 4;
  double backoff_base_seconds = 0.001;
  // Storage backend; null means POSIX. Chaos tests inject a
  // FaultInjectingStorage here (the trainer also auto-wraps when its
  // FaultPlan carries storage verbs).
  std::shared_ptr<Storage> storage;

  bool enabled() const { return !save_dir.empty(); }
  [[nodiscard]] Status Validate() const;
};

// What RestoreLatest found: the decoded state, the file it came from, and
// how many newer-but-unusable checkpoints it had to skip on the way (each
// one a detected torn/short write).
struct RestoreResult {
  TrainerState state;
  std::string path;
  int fallbacks = 0;
};

// Crash-consistent checkpoint directory manager
// (DESIGN.md "Durable crash-consistent checkpointing"). Every save runs
// the same protocol:
//
//   1. serialize to bytes (ckpt::Serialize)
//   2. write ckpt-<iter>.lpck.tmp, fsync          (retried with backoff
//      on transient failures)
//   3. atomically rename over ckpt-<iter>.lpck
//   4. rewrite MANIFEST (newest-first list) via its own temp+rename
//   5. GC checkpoints beyond the retention budget
//
// A crash between any two steps leaves either the previous manifest
// (pointing at intact older files) or the new one (pointing at the
// fully-durable new file) — never a manifest entry for a partial file.
// Torn writes that corrupt file *contents* are caught at restore time by
// the per-section integrity words, and the manager falls back to the next
// manifest entry.
class CheckpointManager {
 public:
  [[nodiscard]] static StatusOr<std::unique_ptr<CheckpointManager>> Create(
      DurableCheckpointOptions options);

  // Serializes and durably publishes `state`, then applies retention.
  [[nodiscard]] Status Save(const TrainerState& state);

  // Loads the newest checkpoint that decodes cleanly, skipping (and
  // counting) corrupt ones. NOT_FOUND when the directory holds no
  // checkpoints at all; DATA_LOSS when checkpoints exist but every one of
  // them is corrupt.
  [[nodiscard]] StatusOr<RestoreResult> RestoreLatest();

  const DurableCheckpointOptions& options() const { return options_; }
  Storage* storage() const { return storage_.get(); }
  std::string CheckpointPath(int64_t iteration) const;

 private:
  explicit CheckpointManager(DurableCheckpointOptions options,
                             std::shared_ptr<Storage> storage)
      : options_(std::move(options)), storage_(std::move(storage)) {}

  // The write half of the protocol (steps 2-3) with retry/backoff.
  [[nodiscard]] Status PublishFile(const std::string& name,
                                   const std::string& bytes,
                                   int64_t iteration);
  // Manifest entries as (file name, iteration), newest first.
  [[nodiscard]] StatusOr<std::vector<std::pair<std::string, int64_t>>>
  ReadManifest() const;
  [[nodiscard]] Status WriteManifest(
      const std::vector<std::pair<std::string, int64_t>>& entries);
  // Directory-scan fallback for a missing/corrupt manifest.
  [[nodiscard]] StatusOr<std::vector<std::pair<std::string, int64_t>>>
  ScanCheckpoints() const;

  DurableCheckpointOptions options_;
  std::shared_ptr<Storage> storage_;
};

}  // namespace ckpt
}  // namespace lpsgd

#endif  // LPSGD_CKPT_MANAGER_H_
