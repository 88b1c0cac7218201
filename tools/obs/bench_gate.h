// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Performance-regression gate (DESIGN.md "Observability"): the
// comparison engine behind tools/obs/bench_gate. It diffs a committed
// baseline against a fresh candidate and fails when performance regressed
// beyond tolerance. Two document kinds are understood:
//
//   - google-benchmark JSON (--benchmark_format=json): per-benchmark
//     items_per_second throughput. In normalized mode every score is first
//     divided by a reference benchmark's score from the same document, so
//     the comparison measures relative codec cost and survives moving the
//     baseline between machines of different absolute speed.
//   - profiler JSON (obs::Profiler::WriteFile, kind == "profile"): the
//     per-phase wall shares of the run's totals, compared in absolute
//     share points (shares are already machine-normalized).
//
// The kind is auto-detected per file; baseline and candidate must match.
#ifndef LPSGD_TOOLS_OBS_BENCH_GATE_H_
#define LPSGD_TOOLS_OBS_BENCH_GATE_H_

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "base/statusor.h"
#include "obs/json.h"

namespace lpsgd {
namespace tools {

struct BenchGateOptions {
  // Maximum tolerated fractional throughput drop per benchmark: with 0.25,
  // a candidate below 75% of the baseline score fails the gate.
  double tolerance = 0.25;
  // Benchmark whose score normalizes every other score in its document
  // ("name/arg" form, e.g. "BM_EncodeFullPrecision/786432"). Empty =
  // absolute mode (raw items_per_second, only meaningful on one machine).
  std::string reference;
  // Maximum tolerated absolute increase in a phase's wall share when
  // comparing profile documents (0.10 = ten share points).
  double share_tolerance = 0.10;
};

// One compared entry (a benchmark or a profiler phase).
struct BenchGateFinding {
  std::string name;
  double baseline = 0.0;   // normalized score, or phase share
  double candidate = 0.0;
  // Fractional change, sign-adjusted so negative is always worse: for
  // throughput (candidate - baseline) / baseline; for shares the negated
  // share-point increase.
  double change = 0.0;
  bool regressed = false;
};

struct BenchGateResult {
  // "benchmark" or "profile".
  std::string kind;
  bool normalized = false;
  std::vector<BenchGateFinding> findings;
  // Baseline entries absent from the candidate (always a failure: a
  // vanished benchmark cannot certify anything).
  std::vector<std::string> missing;

  bool ok() const;
  int regressions() const;
  // {schema_version, kind: "bench_gate", compared, regressions, ok,
  //  findings: [{name, baseline, candidate, change, regressed}],
  //  missing: [...]}.
  obs::JsonValue ToJson() const;
  void PrintTable(std::ostream& os) const;
};

// Extracts name -> items_per_second from a google-benchmark JSON document.
// Entries without items_per_second (e.g. aggregate rows) are skipped.
[[nodiscard]] StatusOr<std::map<std::string, double>> BenchmarkScores(
    const obs::JsonValue& doc);

// Extracts phase -> wall share of the attributed total from a profiler
// JSON document (kind == "profile"). Phases with zero time are skipped.
[[nodiscard]] StatusOr<std::map<std::string, double>> ProfileShares(
    const obs::JsonValue& doc);

// Compares two parsed documents of the same (auto-detected) kind.
[[nodiscard]] StatusOr<BenchGateResult> CompareBenchmarks(
    const obs::JsonValue& baseline, const obs::JsonValue& candidate,
    const BenchGateOptions& options);

// File front-end: reads, parses, and compares.
[[nodiscard]] StatusOr<BenchGateResult> CompareBenchmarkFiles(
    const std::string& baseline_path, const std::string& candidate_path,
    const BenchGateOptions& options);

}  // namespace tools
}  // namespace lpsgd

#endif  // LPSGD_TOOLS_OBS_BENCH_GATE_H_
