// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Fixture-driven tests for the repo's static checker (tools/lint): the
// per-file rules on single files from tests/tools/fixtures/
// (LPSGD_LINT_FIXTURE_DIR), the whole-program passes on the mini-repos
// under tests/tools/analyze_fixtures/ (LPSGD_ANALYZE_FIXTURE_DIR), the
// allow grammar, and the self-test that the shipped tree (LPSGD_SOURCE_ROOT)
// has zero findings. All three paths are injected by tests/CMakeLists.
#include "lint/lpsgd_lint.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace lpsgd {
namespace lint {
namespace {

std::string FixturePath(const std::string& name) {
  return std::string(LPSGD_LINT_FIXTURE_DIR) + "/" + name;
}

std::string ReadFixture(const std::string& name) {
  std::ifstream in(FixturePath(name));
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Every rule over one file, as LintTree would see it at `path`.
std::vector<Finding> LintOne(const std::string& path,
                             const std::string& contents) {
  return LintSources({{path, contents}});
}

// Every rule over one fixture mini-repo (no marker-coverage table: that is
// a property of the shipped tree).
std::vector<Finding> LintFixtureRepo(const std::string& name) {
  auto sources =
      ReadTree(std::string(LPSGD_ANALYZE_FIXTURE_DIR) + "/" + name);
  EXPECT_TRUE(sources.ok()) << sources.status().ToString();
  EXPECT_FALSE(sources->empty()) << "fixture " << name << " has no sources";
  return LintSources(std::move(*sources));
}

int CountRule(const std::vector<Finding>& findings, const std::string& rule) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

std::string Report(const std::vector<Finding>& findings) {
  std::string all;
  for (const Finding& f : findings) all += f.ToString() + "\n";
  return all;
}

TEST(StripCommentsAndStringsTest, BlanksCommentsAndLiteralsKeepsLines) {
  const std::string stripped = StripCommentsAndStrings(
      "int a; // new int\n"
      "const char* s = \"x.resize(3)\";\n"
      "/* malloc(\n"
      "   7) */ int b;\n");
  EXPECT_EQ(stripped.find("new"), std::string::npos);
  EXPECT_EQ(stripped.find("resize"), std::string::npos);
  EXPECT_EQ(stripped.find("malloc"), std::string::npos);
  EXPECT_NE(stripped.find("int a;"), std::string::npos);
  EXPECT_NE(stripped.find("int b;"), std::string::npos);
  // Line structure must survive so finding line numbers stay true.
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'), 4);
}

// --- hot-path-alloc -------------------------------------------------------

TEST(HotPathAllocTest, CatchesEveryAllocationKindInAHotBody) {
  const std::vector<Finding> findings =
      LintOne("src/fixture/hot_path_bad.cc", ReadFixture("hot_path_bad.cc"));
  // The by-value vector, resize, push_back, and `new` land on their exact
  // lines (the fixture numbers them in comments); the identical calls in
  // the unmarked, unreached ColdSetup do not fire.
  ASSERT_EQ(findings.size(), 4u) << Report(findings);
  EXPECT_EQ(CountRule(findings, "hot-path-alloc"), 4);
  EXPECT_EQ(findings[0].line, 10);
  EXPECT_EQ(findings[1].line, 11);
  EXPECT_EQ(findings[2].line, 13);
  EXPECT_EQ(findings[3].line, 15);
}

TEST(HotPathAllocTest, CleanHotPathPasses) {
  const std::vector<Finding> findings = LintOne(
      "src/fixture/hot_path_clean.cc", ReadFixture("hot_path_clean.cc"));
  EXPECT_TRUE(findings.empty()) << Report(findings);
}

TEST(HotPathAllocTest, MarkerOnDeclarationIsIgnored) {
  const std::vector<Finding> findings = LintOne(
      "src/fixture/decl.h",
      "LPSGD_HOT_PATH\n"
      "void Encode(const float* grad, std::vector<unsigned char>* out);\n"
      "inline void Setup(std::vector<float>* v) { v->resize(8); }\n");
  EXPECT_TRUE(findings.empty()) << Report(findings);
}

TEST(HotPathAllocTest, FlagsAllocationTwoHopsFromHotRegion) {
  const std::vector<Finding> findings = LintFixtureRepo("transitive_alloc");
  ASSERT_EQ(findings.size(), 1u) << Report(findings);
  const Finding& f = findings.front();
  EXPECT_EQ(f.rule, "hot-path-alloc");
  EXPECT_EQ(f.file, "src/pipeline.cc");
  EXPECT_EQ(f.line, 7);
  EXPECT_NE(f.message.find("push_back"), std::string::npos);
  // The call chain names the hot root and every intermediate hop.
  EXPECT_NE(f.message.find("in Stage2, reachable via HotLoop [hot] -> "
                           "Stage1 -> Stage2"),
            std::string::npos)
      << f.message;
}

// A site in a hot body is reported once, even when that body is also
// reachable from another hot region, and a marked lambda inside a
// reachable unmarked function is not reported twice either.
TEST(HotPathAllocTest, AllocationInHotBodyIsReportedOnce) {
  const std::vector<Finding> findings =
      LintOne("src/fixture/once.cc",
              "LPSGD_HOT_PATH\n"
              "void Inner(std::vector<int>* v) { v->push_back(1); }\n"
              "LPSGD_HOT_PATH\n"
              "void Outer(std::vector<int>* v) { Inner(v); Setup(v); }\n"
              "void Setup(std::vector<int>* v) {\n"
              "  auto grow = LPSGD_HOT_PATH [&]() { v->resize(3); };\n"
              "  grow();\n"
              "}\n");
  ASSERT_EQ(CountRule(findings, "hot-path-alloc"), 2) << Report(findings);
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[1].line, 6);
  for (const Finding& f : findings) {
    EXPECT_NE(f.message.find("inside an LPSGD_HOT_PATH region"),
              std::string::npos)
        << f.message;
  }
}

TEST(HotPathAllocTest, HotCalleeOkExemptsAndStaleExemptionIsAFinding) {
  const std::vector<Finding> findings = LintFixtureRepo("exemptions");
  // ColdLog allocates but carries LPSGD_HOT_CALLEE_OK: exempt. NeverCalled
  // is named by an annotation nothing consults: stale.
  ASSERT_EQ(findings.size(), 1u) << Report(findings);
  EXPECT_EQ(findings[0].rule, "stale-hot-callee-ok");
  EXPECT_EQ(findings[0].file, "src/exempt.cc");
  EXPECT_NE(findings[0].message.find("(NeverCalled)"), std::string::npos);
}

// --- per-file rules -------------------------------------------------------

TEST(AnnotationTypoTest, CatchesMisspelledAnnotations) {
  const std::vector<Finding> findings = LintOne(
      "src/fixture/annotation_typo.cc", ReadFixture("annotation_typo.cc"));
  EXPECT_EQ(CountRule(findings, "annotation-typo"), 3);
  const std::string all = Report(findings);
  EXPECT_NE(all.find("LPSGD_ACQUIRES"), std::string::npos) << all;
  EXPECT_NE(all.find("LPSGD_GUARDED_BY_"), std::string::npos) << all;
  EXPECT_NE(all.find("LPSGD_HOTPATH"), std::string::npos) << all;
  // Correct spellings do not fire.
  EXPECT_EQ(all.find("LPSGD_REQUIRES "), std::string::npos) << all;
}

TEST(BannedTest, FlagsIostreamAndFunctionsHonoringAllows) {
  const std::vector<Finding> findings =
      LintOne("src/fixture/banned.cc", ReadFixture("banned.cc"));
  EXPECT_EQ(CountRule(findings, "banned-include"), 1);
  // rand() fires; strcpy() is covered by the allow comment above it.
  EXPECT_EQ(CountRule(findings, "banned-function"), 1);
  EXPECT_EQ(CountRule(findings, "stale-allow"), 0);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.message.find("strcpy"), std::string::npos) << f.ToString();
  }
}

TEST(BannedTest, BansTheWholeListInSrcToolsAndBench) {
  const std::string contents =
      "void F(char* d, const char* s) {\n"
      "  srand(1); rand(); strcpy(d, s); strcat(d, s);\n"
      "  sprintf(d, s); vsprintf(d, s, 0); gets(d);\n"
      "}\n";
  for (const char* path : {"src/x.cc", "tools/x.cc", "bench/x.cc"}) {
    EXPECT_EQ(CountRule(LintOne(path, contents), "banned-function"), 7)
        << path;
  }
}

TEST(BannedTest, RulesAreScopedToLibraryCode) {
  // Tests may use iostream and the banned functions freely.
  const std::vector<Finding> findings =
      LintOne("tests/fixture/banned.cc", ReadFixture("banned.cc"));
  EXPECT_EQ(CountRule(findings, "banned-include"), 0);
  EXPECT_EQ(CountRule(findings, "banned-function"), 0);
}

TEST(SimdConfinementTest, IntrinsicsHeaderOnlyInSimdTus) {
  const std::string contents =
      "#include <immintrin.h>\n"
      "int x;\n";
  // In a *_simd.cc TU the include is the point of the file.
  EXPECT_EQ(CountRule(LintOne("src/quant/qsgd_simd.cc", contents),
                      "simd-include-confined"),
            0);
  // Anywhere else it leaks raw intrinsics past the dispatch layer.
  EXPECT_EQ(CountRule(LintOne("src/quant/qsgd.cc", contents),
                      "simd-include-confined"),
            1);
  EXPECT_EQ(CountRule(LintOne("src/base/rng.h", "#include <arm_neon.h>\n"),
                      "simd-include-confined"),
            1);
}

TEST(SimdConfinementTest, IncFragmentOnlyIncludedFromSimdTus) {
  const std::string contents = "#include \"quant/lanes_common.inc\"\n";
  EXPECT_EQ(CountRule(LintOne("src/quant/qsgd_simd.cc", contents),
                      "simd-include-confined"),
            0);
  EXPECT_EQ(CountRule(LintOne("src/quant/qsgd.cc", contents),
                      "simd-include-confined"),
            1);
}

TEST(SimdConfinementTest, IntrinsicCallsRequireHotPathBody) {
  const std::string in_hot_body =
      "LPSGD_HOT_PATH\n"
      "void Kernel(float* out) { _mm256_zeroupper(); }\n";
  const std::string outside_hot_body =
      "void Kernel(float* out) { _mm256_zeroupper(); }\n";
  EXPECT_TRUE(LintOne("src/quant/terngrad_simd.cc", in_hot_body).empty());
  EXPECT_EQ(CountRule(LintOne("src/quant/terngrad_simd.cc", outside_hot_body),
                      "simd-hot-path"),
            1);
  // In a non-SIMD file the same call is a confinement violation instead.
  EXPECT_EQ(CountRule(LintOne("src/quant/terngrad.cc", outside_hot_body),
                      "simd-include-confined"),
            1);
  // .inc lane-helper fragments may hold intrinsics (inside hot bodies).
  EXPECT_TRUE(LintOne("src/quant/lanes_common.inc", in_hot_body).empty());
}

TEST(SimdConfinementTest, ScopedToLibraryCode) {
  const std::vector<Finding> findings =
      LintOne("tests/fixture/simd_test.cc",
              "#include <immintrin.h>\n"
              "void T() { _mm256_zeroupper(); }\n");
  EXPECT_EQ(CountRule(findings, "simd-include-confined"), 0);
  EXPECT_EQ(CountRule(findings, "simd-hot-path"), 0);
}

// src/ckpt/ must stay LPSGD_HOT_PATH-free: checkpoint I/O is
// between-iteration work, and a marker there would drag fsync-adjacent
// code under hot-path-alloc while advertising guarantees it cannot meet.
TEST(ColdPathMarkerTest, HotPathMarkerInCkptIsFlagged) {
  const std::string contents =
      "LPSGD_HOT_PATH void Publish() { DoWrite(); }\n";
  EXPECT_EQ(CountRule(LintOne("src/ckpt/foo.cc", contents),
                      "cold-path-marker"),
            1);
  EXPECT_EQ(CountRule(LintOne("src/ckpt/foo.h", contents),
                      "cold-path-marker"),
            1);
}

TEST(ColdPathMarkerTest, ScopedToColdDirectoriesInSrc) {
  const std::string contents = "LPSGD_HOT_PATH void Encode() { Work(); }\n";
  // The marker is the whole point everywhere else in src/.
  EXPECT_EQ(CountRule(LintOne("src/quant/foo.cc", contents),
                      "cold-path-marker"),
            0);
  // Tests are out of scope.
  EXPECT_EQ(CountRule(LintOne("tests/ckpt/foo.cc", contents),
                      "cold-path-marker"),
            0);
}

TEST(ColdPathMarkerTest, MarkerInCommentOrAllowedIsIgnored) {
  EXPECT_TRUE(
      LintOne("src/ckpt/foo.cc",
              "// LPSGD_HOT_PATH is deliberately absent here\n")
          .empty());
  EXPECT_TRUE(LintOne("src/ckpt/foo.cc",
                      "// lpsgd-lint: allow(cold-path-marker) why\n"
                      "LPSGD_HOT_PATH void F() { G(); }\n")
                  .empty());
}

TEST(MissingHotPathTest, TreeWithoutTheExchangePathIsFlagged) {
  // A fixture mini-repo has none of the files the coverage table names.
  auto findings =
      LintTree(std::string(LPSGD_ANALYZE_FIXTURE_DIR) + "/clean");
  ASSERT_TRUE(findings.ok()) << findings.status().ToString();
  EXPECT_GT(CountRule(*findings, "missing-hot-path"), 10);
  EXPECT_EQ(CountRule(*findings, "missing-hot-path"),
            static_cast<int>(findings->size()));
}

// --- lock-order-cycle and status-drop -------------------------------------

TEST(LockOrderTest, FindsThreeLockCycleAndSelfDeadlock) {
  const std::vector<Finding> findings = LintFixtureRepo("lock_cycle");
  ASSERT_EQ(CountRule(findings, "lock-order-cycle"), 2) << Report(findings);
  // The a -> b -> c -> a cycle, canonicalized to start at the smallest id
  // and anchored at its first edge (TakeAB's acquisition of b).
  const auto cycle = std::find_if(
      findings.begin(), findings.end(), [](const Finding& f) {
        return f.message.find("cycle a -> b -> c -> a") != std::string::npos;
      });
  ASSERT_NE(cycle, findings.end()) << Report(findings);
  EXPECT_EQ(cycle->file, "src/locks.cc");
  EXPECT_EQ(cycle->line, 19);
  // Reenter holds `a` across a call whose callee re-acquires `a`.
  const auto self = std::find_if(
      findings.begin(), findings.end(), [](const Finding& f) {
        return f.message.find("a re-acquired while already held in Reenter") !=
               std::string::npos;
      });
  EXPECT_NE(self, findings.end()) << Report(findings);
}

TEST(StatusDropTest, FlagsOverwriteAndScopeExitButNotInspectedLoop) {
  const std::vector<Finding> findings = LintFixtureRepo("status_drop");
  ASSERT_EQ(CountRule(findings, "status-drop"), 2) << Report(findings);
  EXPECT_EQ(findings[0].line, 12);
  EXPECT_NE(findings[0].message.find("in Dropped is overwritten"),
            std::string::npos);
  EXPECT_EQ(findings[1].line, 20);
  EXPECT_NE(findings[1].message.find("in ScopeExit is scope-exited"),
            std::string::npos);
  // Retry()'s in-loop assignment is inspected via s.ok(): no finding.
}

TEST(WholeProgramTest, CleanFixtureHasNoFindings) {
  const std::vector<Finding> findings = LintFixtureRepo("clean");
  EXPECT_TRUE(findings.empty()) << Report(findings);
}

// --- allow comments -------------------------------------------------------

// Two whole-program findings — an allocation one hop from a hot region and
// a two-lock cycle anchored at TakeAB's second acquisition — with an
// optional comment on (or just above) each finding's line.
std::string WholeProgramDebt(const std::string& alloc_comment,
                             const std::string& lock_comment) {
  return "void Grow(std::vector<int>& out) {\n"
         "  out.push_back(1);" + alloc_comment + "\n"
         "}\n"
         "LPSGD_HOT_PATH\n"
         "void Hot(std::vector<int>& out) { Grow(out); }\n"
         "Mutex a;\n"
         "Mutex b;\n"
         "void TakeAB() {\n"
         "  MutexLock la(a);\n"
         "  " + lock_comment + "\n"
         "  MutexLock lb(b);\n"
         "}\n"
         "void TakeBA() {\n"
         "  MutexLock lb(b);\n"
         "  MutexLock la(a);\n"
         "}\n";
}

TEST(AllowTest, SuppressesWholeProgramFindings) {
  const std::vector<Finding> bare =
      LintOne("src/debt.cc", WholeProgramDebt("", ""));
  ASSERT_EQ(bare.size(), 2u) << Report(bare);
  EXPECT_EQ(CountRule(bare, "hot-path-alloc"), 1);
  EXPECT_EQ(CountRule(bare, "lock-order-cycle"), 1);

  const std::vector<Finding> allowed = LintOne(
      "src/debt.cc",
      WholeProgramDebt("  // lpsgd-lint: allow(hot-path-alloc) test reason",
                       "// lpsgd-lint: allow(lock-order-cycle) test reason"));
  EXPECT_TRUE(allowed.empty()) << Report(allowed);
}

TEST(AllowTest, UnusedAllowIsStale) {
  const std::vector<Finding> findings =
      LintOne("src/x.cc",
              "int a = 0;  // lpsgd-lint: allow(banned-function) no call\n"
              "// lpsgd-lint: allow(hot-path-alloc, status-drop) nothing\n"
              "int b = 0;\n"
              "// Prose quoting the grammar, lpsgd-lint: allow(<rule>), is "
              "not an allow.\n");
  ASSERT_EQ(findings.size(), 3u) << Report(findings);
  for (const Finding& f : findings) EXPECT_EQ(f.rule, "stale-allow");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_NE(findings[0].message.find("allow(banned-function)"),
            std::string::npos);
  EXPECT_EQ(findings[1].line, 2);
  EXPECT_EQ(findings[2].line, 2);
}

// --- model internals ------------------------------------------------------

TEST(CanonicalLockIdTest, NormalizesAccessPaths) {
  EXPECT_EQ(CanonicalLockId("mu_", "ThreadPool"), "ThreadPool::mu_");
  EXPECT_EQ(CanonicalLockId("this->mu_", "ThreadPool"), "ThreadPool::mu_");
  EXPECT_EQ(CanonicalLockId("batch->mu", ""), "batch.mu");
  EXPECT_EQ(CanonicalLockId("  batch . mu ", ""), "batch.mu");
  EXPECT_EQ(CanonicalLockId("&mu_", "Registry"), "Registry::mu_");
  EXPECT_EQ(CanonicalLockId("other.mu_", "Registry"), "other.mu_");
}

TEST(ModelTest, ResolvePrefersSameTranslationUnit) {
  Model model;
  AddTranslationUnit("src/a.cc",
                     "void Helper() {}\nvoid CallA() { Helper(); }\n",
                     &model);
  AddTranslationUnit("src/b.cc", "void Helper() {}\n", &model);
  FinalizeModel(&model);
  ASSERT_EQ(model.by_name.at("Helper").size(), 2U);
  const std::vector<int> same_tu = model.Resolve("Helper", 0);
  ASSERT_EQ(same_tu.size(), 1U);
  EXPECT_EQ(model.functions[static_cast<size_t>(same_tu[0])].tu_index, 0);
  // From a TU with no candidate, every definition is considered.
  EXPECT_EQ(model.Resolve("Helper", 7).size(), 2U);
}

// --- header hygiene -------------------------------------------------------

TEST(SelfContainmentTest, GoodHeaderPasses) {
  auto findings = CheckHeaderSelfContained(
      FixturePath("self_contained_good.h"), "self_contained_good.h",
      LPSGD_LINT_FIXTURE_DIR, "c++ -std=c++20", "lint_test_work");
  ASSERT_TRUE(findings.ok()) << findings.status().ToString();
  EXPECT_TRUE(findings->empty()) << Report(*findings);
}

TEST(SelfContainmentTest, BadHeaderReportsFileAndCompilerError) {
  auto findings = CheckHeaderSelfContained(
      FixturePath("self_contained_bad.h"), "self_contained_bad.h",
      LPSGD_LINT_FIXTURE_DIR, "c++ -std=c++20", "lint_test_work");
  ASSERT_TRUE(findings.ok()) << findings.status().ToString();
  EXPECT_EQ(CountRule(*findings, "missing-include-guard"), 1);
  ASSERT_EQ(CountRule(*findings, "header-not-self-contained"), 1);
  for (const Finding& f : *findings) {
    EXPECT_NE(f.file.find("self_contained_bad.h"), std::string::npos);
    EXPECT_EQ(f.line, 1);
  }
}

// --- the shipped tree -----------------------------------------------------

// The same check the CI lint job runs (minus the per-header compiles, which
// the job adds via --check_headers): every rule, the whole-program passes,
// the marker-coverage table and stale allows, over src/ tools/ bench/.
TEST(TreeLintTest, ShippedTreeHasZeroFindings) {
  auto findings = LintTree(LPSGD_SOURCE_ROOT);
  ASSERT_TRUE(findings.ok()) << findings.status().ToString();
  EXPECT_TRUE(findings->empty()) << Report(*findings);
}

}  // namespace
}  // namespace lint
}  // namespace lpsgd
