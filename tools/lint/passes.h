// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// The three whole-program passes of lpsgd_lint, consuming the cross-TU
// model from source_model.h:
//
//  1. Hot-path purity — no allocation inside an LPSGD_HOT_PATH region, nor
//     in any function reachable (by name-based call resolution) from one.
//     LPSGD_HOT_CALLEE_OK(fn) prunes the walk at calls to `fn`; an
//     annotation the walk never consults is itself a finding (stale
//     exemption).
//  2. Lock-order cycle detection — acquisition-order edges are collected
//     from nested MutexLock/.Lock() scopes, LPSGD_REQUIRES preconditions,
//     and calls made while a lock is held (using each callee's transitive
//     acquisition set); any cycle in the resulting lock graph is a finding.
//  3. Status-drop analysis — a Status/StatusOr local assigned a
//     non-trivial value and then overwritten or scope-exited without any
//     intervening read is a finding.
//
// See DESIGN.md "Static analysis & enforced invariants".
#ifndef LPSGD_TOOLS_LINT_PASSES_H_
#define LPSGD_TOOLS_LINT_PASSES_H_

#include <string>
#include <vector>

#include "lint/source_model.h"

namespace lpsgd {
namespace lint {

// One finding of any rule, per-file or whole-program. `rule` is the stable
// machine name used both in output and in allow comments.
struct Finding {
  std::string file;  // repo-root-relative
  int line = 0;      // 1-based
  std::string rule;
  std::string message;

  // "file:line: [rule] message" — the format CI surfaces and tests match.
  std::string ToString() const;
};

// Pass 1: rule hot-path-alloc (each allocation site once, whether it sits
// in a hot region or in a function reachable from one) and
// stale-hot-callee-ok.
std::vector<Finding> RunPurityPass(const Model& model);

// Pass 2: rule lock-order-cycle.
std::vector<Finding> RunLockOrderPass(const Model& model);

// Pass 3: rule status-drop.
std::vector<Finding> RunStatusDropPass(const Model& model);

}  // namespace lint
}  // namespace lpsgd

#endif  // LPSGD_TOOLS_LINT_PASSES_H_
