// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// CI performance-regression gate over codec micro-benchmarks and profiler
// breakdowns (DESIGN.md "Observability").
//
//   bench_gate --baseline bench/baselines/BENCH_codecs.json
//              --candidate /tmp/candidate.json
//              [--reference BM_EncodeFullPrecision/786432]
//              [--tolerance 0.25] [--share_tolerance 0.10]
//              [--report_out gate.json]
//
// (one command line, wrapped here without shell continuations, which a
// line comment may not end with).
//
// Exit status: 0 when every compared entry is within tolerance, 1 when
// anything regressed or vanished, 2 on usage/parse errors. With
// --reference, scores are normalized by that benchmark before comparison
// (relative codec cost — stable across machines of different speed);
// without it raw items_per_second are compared. Profile documents
// (kind == "profile") compare per-phase wall shares instead; a phase
// growing by more than --share_tolerance share points fails the gate.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "obs/bench_gate.h"

int main(int argc, char** argv) {
  using namespace lpsgd;  // NOLINT(build/namespaces)
  std::string baseline_path, candidate_path, report_out;
  tools::BenchGateOptions options;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << flag << "\n";
      return 2;
    }
    const std::string value = argv[i + 1];
    if (flag == "--baseline") {
      baseline_path = value;
    } else if (flag == "--candidate") {
      candidate_path = value;
    } else if (flag == "--reference") {
      options.reference = value;
    } else if (flag == "--tolerance") {
      options.tolerance = std::atof(value.c_str());
    } else if (flag == "--share_tolerance") {
      options.share_tolerance = std::atof(value.c_str());
    } else if (flag == "--report_out") {
      report_out = value;
    } else {
      std::cerr << "unknown flag: " << flag << "\n";
      return 2;
    }
  }
  if (baseline_path.empty() || candidate_path.empty()) {
    std::cerr << "usage: bench_gate --baseline <json> --candidate <json>"
                 " [--reference <benchmark>] [--tolerance F]"
                 " [--share_tolerance F] [--report_out <json>]\n";
    return 2;
  }

  auto result = tools::CompareBenchmarkFiles(baseline_path, candidate_path,
                                             options);
  if (!result.ok()) {
    std::cerr << result.status() << "\n";
    return 2;
  }

  result->PrintTable(std::cout);
  if (!report_out.empty()) {
    std::ofstream out(report_out);
    if (!out) {
      std::cerr << "cannot write " << report_out << "\n";
      return 2;
    }
    out << result->ToJson().Dump(2) << "\n";
  }
  if (!result->ok()) {
    std::cerr << "bench_gate: " << result->regressions()
              << " regression(s), " << result->missing.size()
              << " missing entr(ies)\n";
    return 1;
  }
  std::cout << "bench_gate: " << result->findings.size()
            << " entries within tolerance\n";
  return 0;
}
