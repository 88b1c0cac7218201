// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// The whole-program source model behind lpsgd_lint's cross-TU passes: a
// heuristic (token-level, not a full C++ frontend) symbol table built from
// the same comment/string-stripped view of each file the per-file rules
// read (source_text.h). Per translation unit it extracts:
//
//  * function definitions — unqualified + class-qualified names, body byte
//    ranges, and any LPSGD_REQUIRES/ACQUIRE thread-annotation arguments on
//    the definition;
//  * call sites inside each body (identifier-before-'(' with keyword and
//    cast filtering; `obj.Fn(...)`, `p->Fn(...)` and `Class::Fn(...)`
//    record the trailing method name);
//  * lock acquisition sites — `MutexLock guard(expr);` RAII scopes (held
//    to the end of the enclosing block) and manual `expr.Lock()` /
//    `expr.Unlock()` pairs — with a canonical lock identity
//    (`Class::member` for bare members, the normalized access path
//    otherwise);
//  * LPSGD_HOT_CALLEE_OK(fn) transitive-purity exemptions.
//
// Known limits (documented in DESIGN.md "Static analysis & enforced
// invariants"): call resolution is by name, preferring same-TU candidates,
// so overloads collapse onto one node and virtual calls fan out to every
// same-named method — deliberately conservative for the purity pass. The
// passes that consume this model live in passes.h.
#ifndef LPSGD_TOOLS_LINT_SOURCE_MODEL_H_
#define LPSGD_TOOLS_LINT_SOURCE_MODEL_H_

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lint/source_text.h"

namespace lpsgd {
namespace lint {

// One call site inside a function body.
struct CallSite {
  std::string callee;     // unqualified trailing name, e.g. "Encode"
  std::string qualifier;  // "Class" for Class::Fn(...), else ""
  size_t offset = 0;      // into the TU's stripped text
};

// One lock acquisition with its textual hold scope.
struct LockSite {
  std::string lock_id;    // canonical identity, e.g. "ThreadPool::mu_"
  size_t offset = 0;      // acquisition point (stripped-text offset)
  size_t scope_end = 0;   // exclusive end of the held range
};

// One function (or method) definition.
struct FunctionDef {
  std::string name;        // unqualified, e.g. "Encode"
  std::string qualified;   // "QsgdCodec::Encode" when the class is known
  int tu_index = 0;        // index into Model::tus
  int line = 0;            // line of the definition's name token
  size_t body_begin = 0;   // [begin, end) into the TU's stripped text
  size_t body_end = 0;
  // LPSGD_REQUIRES(mu) arguments on the definition: locks the caller holds
  // for the whole body (each is an order-edge source for every acquisition
  // inside).
  std::vector<std::string> requires_locks;
  // LPSGD_ACQUIRE(mu) arguments naming an explicit capability (the
  // empty-argument self-capability form is ignored on purpose: the
  // `.Lock()` call-site extraction already names the concrete mutex).
  std::vector<std::string> acquire_locks;
  std::vector<CallSite> calls;
  std::vector<LockSite> locks;
};

// One parsed source file. Read and stripped once; the per-file rules and
// the whole-program passes share its line index, allows and hot regions.
struct TranslationUnit {
  std::string relative;   // repo-root-relative path (stable across hosts)
  std::string contents;   // original text
  std::string stripped;   // comment/string-blanked contents, same length
  LineIndex lines;
  std::vector<Allow> allows;
  std::vector<HotRegion> hot_regions;

  TranslationUnit(std::string rel, std::string text)
      : relative(std::move(rel)),
        contents(std::move(text)),
        stripped(StripCommentsAndStrings(contents)),
        lines(stripped),
        allows(ParseAllows(contents)),
        hot_regions(FindHotRegions(stripped)) {}
};

// The whole-program model.
struct Model {
  std::vector<TranslationUnit> tus;
  std::vector<FunctionDef> functions;
  // Unqualified name -> indices into `functions`.
  std::map<std::string, std::vector<int>> by_name;
  // LPSGD_HOT_CALLEE_OK(fn) names (unqualified or Class::fn), with the
  // file:line of each annotation for staleness reporting.
  std::map<std::string, std::pair<std::string, int>> hot_callee_ok;

  // All definitions whose unqualified name is `name`, preferring ones in
  // `tu_index`'s file when any exist there (file-static helpers shadow
  // same-named functions elsewhere).
  std::vector<int> Resolve(const std::string& name, int tu_index) const;
};

// Parses one file's contents into `model` (appends a TranslationUnit and
// its functions). `relative` is echoed into findings.
void AddTranslationUnit(std::string relative, std::string contents,
                        Model* model);

// Finalizes cross-TU indices (by_name). Call once after the last
// AddTranslationUnit.
void FinalizeModel(Model* model);

// Canonicalizes a lock expression: strips whitespace / `this->` / leading
// `*`/`&`, folds `->` to `.`. A bare identifier is qualified with
// `enclosing_class` when non-empty ("mu_" in ThreadPool ->
// "ThreadPool::mu_"). Exposed for tests.
std::string CanonicalLockId(std::string_view expr,
                            const std::string& enclosing_class);

}  // namespace lint
}  // namespace lpsgd

#endif  // LPSGD_TOOLS_LINT_SOURCE_MODEL_H_
