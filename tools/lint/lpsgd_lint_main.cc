// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// CLI driver for the repo's static checker (see lpsgd_lint.h for the rule
// set).
//
//   lpsgd_lint --root .                  # every rule over src/ tools/ bench/
//   lpsgd_lint --root . --check_headers  # + per-header TU syntax check
//
// Exit codes: 0 clean, 1 findings, 2 usage/internal error.
#include <cstdio>
#include <string>
#include <vector>

#include "lint/lpsgd_lint.h"

namespace {

int Fail(const lpsgd::Status& status) {
  std::fprintf(stderr, "lpsgd_lint: %s\n", status.ToString().c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string compiler = "c++ -std=c++20";
  std::string workdir = "lpsgd_lint_work";
  bool check_headers = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--compiler" && i + 1 < argc) {
      compiler = argv[++i];
    } else if (arg == "--workdir" && i + 1 < argc) {
      workdir = argv[++i];
    } else if (arg == "--check_headers") {
      check_headers = true;
    } else {
      std::fprintf(stderr,
                   "usage: lpsgd_lint [--root DIR] [--check_headers] "
                   "[--compiler CMD] [--workdir DIR]\n");
      return 2;
    }
  }

  auto findings = lpsgd::lint::LintTree(root);
  if (!findings.ok()) return Fail(findings.status());
  if (check_headers) {
    auto header_findings =
        lpsgd::lint::CheckTreeHeaders(root, compiler, workdir);
    if (!header_findings.ok()) return Fail(header_findings.status());
    findings->insert(findings->end(), header_findings->begin(),
                     header_findings->end());
  }

  for (const lpsgd::lint::Finding& finding : *findings) {
    std::fprintf(stdout, "%s\n", finding.ToString().c_str());
  }
  std::fprintf(stderr, "lpsgd_lint: %zu finding(s)\n", findings->size());
  return findings->empty() ? 0 : 1;
}
