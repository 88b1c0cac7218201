// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_FAULT_FAULT_PLAN_H_
#define LPSGD_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/statusor.h"

namespace lpsgd {
namespace fault {

// The fault taxonomy (DESIGN.md "Fault model and recovery"): every way a
// synchronous gradient exchange can go wrong that the recovery machinery
// handles.
enum class FaultKind {
  kStraggle,       // exchange succeeds but one rank is slow
  kTransientFail,  // exchange fails, identical retry succeeds
  kCorruptWire,    // encoded bytes are corrupted in flight
  kRankCrash,      // a rank dies permanently at a given step
  // Storage verbs, injected by ckpt::FaultInjectingStorage at the durable
  // checkpoint write for the given iteration (not at the exchange):
  kTornWrite,   // write "succeeds" but the bytes on disk are corrupted
  kShortWrite,  // write "succeeds" but only a prefix reaches the disk
  kDiskFull,    // write fails with a transient ENOSPC-style error
  // Process verb, honoured by SyncTrainer: the whole process dies right
  // after committing (and durably checkpointing, if the cadence aligns)
  // the given iteration. Chaos tests restart from disk afterwards.
  kKill,
};

// One scheduled fault. Events are keyed by the trainer iteration at which
// they strike, so a rolled-back-and-replayed schedule re-encounters them
// deterministically.
struct FaultEvent {
  FaultKind kind = FaultKind::kTransientFail;
  int64_t iteration = 0;
  // kTransientFail / kCorruptWire: number of consecutive exchange attempts
  // at `iteration` that fail before one succeeds.
  int count = 1;
  // kStraggle: virtual seconds added to the exchange.
  double delay_seconds = 0.0;
  // kRankCrash: the rank that dies.
  int rank = 0;
};

// A seeded, fully deterministic fault schedule, injected at the
// GradientAggregator boundary by FaultInjectingAggregator. The text form
// round-trips through Parse/ToString.
struct FaultPlan {
  std::vector<FaultEvent> events;
  // Seeds the corruption probe's choice of victim rank and bit.
  uint64_t seed = 0x5eedfa17ULL;

  bool empty() const { return events.empty(); }

  // Grammar: ';'-separated directives, case-insensitive, order preserved.
  //   straggle@<iter>:<seconds>   straggler delay at iteration <iter>
  //   fail@<iter>                 one transient failure at <iter>
  //   fail@<iter>x<count>         <count> consecutive failures at <iter>
  //   corrupt@<iter>[x<count>]    corrupted wire bytes at <iter>
  //   crash@<iter>:<rank>         rank <rank> dies at iteration <iter>
  //   torn@<iter>                 checkpoint write at <iter> lands torn
  //   shortwrite@<iter>           checkpoint write at <iter> lands truncated
  //   enospc@<iter>[x<count>]     <count> ENOSPC failures at <iter>
  //   kill@<iter>                 process dies after committing <iter>
  //   seed=<n>                    corruption-probe seed
  // Example: "straggle@3:0.5;fail@5x2;torn@6;kill@9;seed=42"
  [[nodiscard]] static StatusOr<FaultPlan> Parse(const std::string& text);

  // Canonical text form; Parse(ToString()) reproduces the plan exactly.
  std::string ToString() const;

  // The plan minus its rank-crash events: what the rebuilt aggregator runs
  // after degrade-to-survivors (the dead rank must not crash again).
  FaultPlan WithoutCrashes() const;

  // True when any event is a storage verb (torn / shortwrite / enospc):
  // the trainer wraps its checkpoint storage in a FaultInjectingStorage
  // only in that case.
  bool HasStorageFaults() const;

  // The kill@ event scheduled at `iteration`, or -1 when none is. (Kill
  // events fire after the iteration commits, so the trainer asks with the
  // post-commit counter.)
  bool KillsAt(int64_t iteration) const;
};

// The permanent-failure error a crashed rank raises, and its inverse: the
// trainer uses IsRankCrash to route ABORTED exchanges into the
// degrade-to-survivors path instead of the rollback-and-retry path.
Status RankCrashError(int rank);
bool IsRankCrash(const Status& status, int* rank);

// The whole-process-death error a kill@ event raises, and its inverse. The
// message is deliberately disjoint from RankCrashError so IsRankCrash never
// routes a kill into the degrade-to-survivors path: a killed process is
// restarted and restored from disk, not renormalized.
Status ProcessKillError(int64_t iteration);
bool IsProcessKill(const Status& status);

}  // namespace fault
}  // namespace lpsgd

#endif  // LPSGD_FAULT_FAULT_PLAN_H_
