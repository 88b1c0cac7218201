// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// lpsgd_lint: the repo's one static checker. It mechanically enforces the
// invariants that the compiler alone cannot see (DESIGN.md "Static analysis
// & enforced invariants"). One walk reads and strips every .h/.cc/.inc
// under src/, tools/ and bench/ once; per-file text rules and whole-program
// passes then share that parse.
//
// Per-file rules (path-scoped):
//  * banned-include      — <iostream> in src/ library code (it drags in
//                          static iostream initializers; use base/logging.h).
//  * banned-function     — rand, srand, strcpy, strcat, sprintf, vsprintf,
//                          gets anywhere in src/, tools/ or bench/
//                          (non-deterministic seeding / unbounded I/O).
//  * annotation-typo     — an identifier that looks like one of the
//                          base/thread_annotations.h macros but is not an
//                          exact match (a typo'd annotation silently
//                          disables the Clang analysis).
//  * cold-path-marker    — LPSGD_HOT_PATH under src/ckpt/: durable
//                          checkpoint I/O runs between iterations, and a
//                          marker there would falsely advertise
//                          steady-state guarantees.
//  * simd-include-confined / simd-hot-path — raw vector intrinsics are
//                          confined to the per-ISA kernel TUs (basename
//                          *_simd.cc) and the .inc lane-helper fragments
//                          they textually include; every `_mm*` intrinsic
//                          call site must sit inside an LPSGD_HOT_PATH body.
//
// Whole-program passes (passes.h): hot-path-alloc (inside a hot region or
// in anything reachable from one), stale-hot-callee-ok, lock-order-cycle
// and status-drop.
//
// Tree-level: missing-hot-path — the files known to carry the steady-state
// exchange path must hold at least their required number of
// LPSGD_HOT_PATH markers, so deleting a marker cannot silently disable
// hot-path-alloc. --check_headers adds missing-include-guard and
// header-not-self-contained (one generated TU per src/**/*.h).
//
// Suppression: an allow comment (source_text.h has the grammar) silences
// its rules at its own line and the next, for any finding above. An allow
// that silences nothing is itself a finding, stale-allow, so fixed debt
// must be deleted with the fix.
#ifndef LPSGD_TOOLS_LINT_LPSGD_LINT_H_
#define LPSGD_TOOLS_LINT_LPSGD_LINT_H_

#include <string>
#include <vector>

#include "base/statusor.h"
#include "lint/passes.h"

namespace lpsgd {
namespace lint {

// One file handed to the checker.
struct SourceText {
  std::string path;  // repo-root-relative; selects the per-file rules
  std::string contents;
};

// Reads every .h/.cc/.inc under `repo_root`/{src,tools,bench}, sorted by
// path.
StatusOr<std::vector<SourceText>> ReadTree(const std::string& repo_root);

// Runs every per-file rule and whole-program pass over `sources` as one
// program, applies the allow comments and reports stale ones. Findings
// are sorted by (file, line, rule).
std::vector<Finding> LintSources(std::vector<SourceText> sources);

// ReadTree + LintSources + the missing-hot-path coverage table.
StatusOr<std::vector<Finding>> LintTree(const std::string& repo_root);

// Header hygiene for one header: `header_path` is absolute or cwd-relative,
// `include_path` is what a client would #include (e.g. "quant/codec.h").
// Writes a single-include translation unit under `work_dir` and runs
// `compiler_command` (e.g. "c++ -std=c++20") with -fsyntax-only and
// -I<include_root>. Returns the findings: missing-include-guard and/or
// header-not-self-contained (with the compiler's first error line).
StatusOr<std::vector<Finding>> CheckHeaderSelfContained(
    const std::string& header_path, const std::string& include_path,
    const std::string& include_root, const std::string& compiler_command,
    const std::string& work_dir);

// Runs CheckHeaderSelfContained over every src/**/*.h under `repo_root`.
// Slow (one compiler invocation per header) — run by the CI lint job via
// `lpsgd_lint --check_headers`, not by the unit tests.
StatusOr<std::vector<Finding>> CheckTreeHeaders(
    const std::string& repo_root, const std::string& compiler_command,
    const std::string& work_dir);

}  // namespace lint
}  // namespace lpsgd

#endif  // LPSGD_TOOLS_LINT_LPSGD_LINT_H_
