// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "lint/lpsgd_lint.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

namespace lpsgd {
namespace lint {
namespace {

namespace fs = std::filesystem;

// Exact spellings defined by base/thread_annotations.h. Anything that
// merely *looks* like one of these (see kAnnotationFamilies) is a typo.
const char* const kKnownAnnotations[] = {
    "LPSGD_CAPABILITY",
    "LPSGD_SCOPED_CAPABILITY",
    "LPSGD_GUARDED_BY",
    "LPSGD_PT_GUARDED_BY",
    "LPSGD_REQUIRES",
    "LPSGD_EXCLUDES",
    "LPSGD_ACQUIRE",
    "LPSGD_RELEASE",
    "LPSGD_RETURN_CAPABILITY",
    "LPSGD_NO_THREAD_SAFETY_ANALYSIS",
    "LPSGD_THREAD_ANNOTATION_ATTRIBUTE_",
    "LPSGD_HOT_PATH",
    "LPSGD_HOT_CALLEE_OK",
};

// Prefix families: an identifier starting with one of these but not
// matching a known annotation exactly is reported as annotation-typo.
// Chosen so legitimate non-annotation macros (LPSGD_RETURN_IF_ERROR,
// LPSGD_ASSIGN_OR_RETURN, include guards LPSGD_<DIR>_..._H_) never match.
const char* const kAnnotationFamilies[] = {
    "LPSGD_GUARDED", "LPSGD_PT_GUARDED",  "LPSGD_REQUIRE",
    "LPSGD_EXCLUDE", "LPSGD_ACQUIRE",     "LPSGD_RELEASE",
    "LPSGD_SCOPED_", "LPSGD_CAPABILITY",  "LPSGD_HOT",
    "LPSGD_NO_THREAD", "LPSGD_RETURN_CAP", "LPSGD_THREAD_ANNOTATION",
};

// Free functions banned outright in src/, tools/ and bench/, with why.
constexpr std::string_view kNonDeterministic =
    "non-deterministic; use a seeded std::mt19937";
constexpr std::string_view kUnbounded =
    "unbounded write; use the bounded counterpart";
const std::pair<const char*, std::string_view> kBannedFunctions[] = {
    {"rand", kNonDeterministic},  {"srand", kNonDeterministic},
    {"strcpy", kUnbounded},       {"strcat", kUnbounded},
    {"sprintf", kUnbounded},      {"vsprintf", kUnbounded},
    {"gets", "unbounded read; use std::getline"},
};

// Files whose hot-path markers are load-bearing: deleting a marker would
// silently disable the hot-path-alloc rule, so coverage is checked at tree
// level. Paths are repo-root-relative; values are the minimum marker count
// (one per Encode/Decode workspace overload, bit cursor method, or
// exchange lambda).
const std::pair<const char*, int> kRequiredHotPathMarkers[] = {
    {"src/quant/full_precision.cc", 2}, {"src/quant/one_bit_sgd.cc", 2},
    {"src/quant/qsgd.cc", 2},           {"src/quant/adaptive_qsgd.cc", 2},
    {"src/quant/topk.cc", 3},           {"src/quant/terngrad.cc", 2},
    {"src/quant/nuqsgd.cc", 2},         {"src/quant/ecq_sgd.cc", 2},
    {"src/base/bit_packing.h", 4},      {"src/comm/mpi_reduce_bcast.cc", 2},
    {"src/comm/nccl_ring.cc", 3},       {"src/comm/retry.cc", 1},
    {"src/obs/span.h", 3},
    // The SIMD kernel TUs and their dispatch tables: one marker per kernel
    // body (scalar golden reference, AVX2, NEON) — the alloc rule must
    // cover every vectorized encode/decode loop.
    {"src/quant/simd_kernels.cc", 11},
    {"src/quant/simd_avx2_common.inc", 9},
    {"src/quant/qsgd_simd.cc", 4},
    {"src/quant/ecq_sgd_simd.cc", 1},
    {"src/quant/nuqsgd_simd.cc", 1},
    {"src/quant/terngrad_simd.cc", 3},
    {"src/quant/one_bit_simd.cc", 3},
    {"src/quant/topk_simd.cc", 2},
    {"src/base/simd/elementwise.cc", 6},
    {"src/base/simd/elementwise_simd.cc", 13},
    {"src/base/simd/gemm.cc", 2},
    {"src/base/simd/gemm_simd.cc", 4},
};

// Directories that are cold-path by contract: durable checkpointing runs
// between training iterations (serialize + fsync + rename), never inside
// the per-iteration exchange, so an LPSGD_HOT_PATH marker under these
// prefixes is a design violation, not an optimization.
const char* const kHotPathFreeDirs[] = {"src/ckpt/"};

// Vector-intrinsics confinement: the only files allowed to touch raw
// intrinsics are the per-ISA kernel TUs (basename *_simd.cc) and the .inc
// helper fragments they textually include. Everything else goes through
// the dispatch tables.
const char* const kIntrinsicsHeaders[] = {"<immintrin.h>", "<x86intrin.h>",
                                          "<arm_neon.h>"};

bool IsSimdTu(const std::string& path) {
  return EndsWith(Basename(path), "_simd.cc");
}

bool MayHoldIntrinsics(const std::string& path) {
  const std::string base = Basename(path);
  return EndsWith(base, "_simd.cc") || EndsWith(base, ".inc");
}

// Appends the findings of one file's per-file rules.
struct Emitter {
  const TranslationUnit& tu;
  std::vector<Finding>* out;

  void Emit(size_t offset, const std::string& rule,
            const std::string& message) const {
    out->push_back({tu.relative, tu.lines.LineAt(offset), rule, message});
  }
};

void CheckColdPathMarkers(std::string_view stripped, const Emitter& emit) {
  const std::string& marker = HotPathMarker();
  size_t pos = 0;
  while ((pos = stripped.find(marker, pos)) != std::string_view::npos) {
    if (IsWholeWord(stripped, pos, marker.size())) {
      emit.Emit(pos, "cold-path-marker",
                marker + " in a cold-path directory (durable checkpoint "
                         "I/O runs between iterations; marking it hot "
                         "falsely advertises steady-state guarantees)");
    }
    pos += marker.size();
  }
}

void CheckBannedIncludes(std::string_view stripped, const Emitter& emit) {
  size_t pos = 0;
  while ((pos = stripped.find("#include", pos)) != std::string_view::npos) {
    size_t eol = stripped.find('\n', pos);
    if (eol == std::string_view::npos) eol = stripped.size();
    std::string_view line = stripped.substr(pos, eol - pos);
    if (line.find("<iostream>") != std::string_view::npos) {
      emit.Emit(pos, "banned-include",
                "<iostream> in library code (static iostream initializers; "
                "use base/logging.h, or suppress at a real sink)");
    }
    pos = eol;
  }
}

void CheckBannedFunctions(std::string_view stripped, const Emitter& emit) {
  for (const auto& [fn, why] : kBannedFunctions) {
    const size_t len = std::string_view(fn).size();
    for (size_t pos = 0; (pos = stripped.find(fn, pos)) !=
                         std::string_view::npos; pos += len) {
      if (!IsWholeWord(stripped, pos, len)) continue;
      size_t after = SkipSpace(stripped, pos + len);
      if (after < stripped.size() && stripped[after] == '(') {
        emit.Emit(pos, "banned-function",
                  std::string(fn) + "() is banned (" + std::string(why) +
                      ")");
      }
    }
  }
}

void CheckAnnotationTypos(std::string_view stripped, const Emitter& emit) {
  static constexpr std::string_view kPrefix = "LPSGD_";
  size_t pos = 0;
  while ((pos = stripped.find(kPrefix, pos)) != std::string_view::npos) {
    if (pos > 0 && IsIdentChar(stripped[pos - 1])) {
      pos += kPrefix.size();
      continue;
    }
    size_t end = pos;
    while (end < stripped.size() && IsIdentChar(stripped[end])) ++end;
    std::string ident(stripped.substr(pos, end - pos));
    bool known = false;
    for (const char* k : kKnownAnnotations) {
      if (ident == k) {
        known = true;
        break;
      }
    }
    if (!known) {
      for (const char* family : kAnnotationFamilies) {
        if (ident.rfind(family, 0) == 0) {
          emit.Emit(pos, "annotation-typo",
                    ident +
                        " looks like a base/thread_annotations.h macro but "
                        "is not one (a typo'd annotation silently disables "
                        "the analysis)");
          break;
        }
      }
    }
    pos = end;
  }
}

// simd-include-confined / simd-hot-path: intrinsics headers and .inc
// fragments may only be pulled into *_simd.cc TUs, and every `_mm*`
// intrinsic call site must sit inside an LPSGD_HOT_PATH body of a file
// allowed to hold intrinsics. (NEON intrinsics have no stable lexical
// prefix; <arm_neon.h> include confinement covers them.)
void CheckSimdConfinement(const TranslationUnit& tu, const Emitter& emit) {
  const std::string& path = tu.relative;
  const std::string_view contents = tu.contents;
  const std::string_view stripped = tu.stripped;
  // Include placement — scanned on the original text: quoted include paths
  // are string literals, which the stripped copy blanks out. Offsets match
  // (stripping preserves length), so the emitter maps lines correctly.
  size_t pos = 0;
  while ((pos = contents.find("#include", pos)) != std::string_view::npos) {
    size_t eol = contents.find('\n', pos);
    if (eol == std::string_view::npos) eol = contents.size();
    std::string_view line = contents.substr(pos, eol - pos);
    if (!IsSimdTu(path)) {
      for (const char* header : kIntrinsicsHeaders) {
        if (line.find(header) != std::string_view::npos) {
          emit.Emit(pos, "simd-include-confined",
                    std::string(header) +
                        " outside a *_simd.cc TU (raw intrinsics are "
                        "confined to the per-ISA kernel TUs; everything "
                        "else dispatches through the kernel tables)");
        }
      }
      if (line.find(".inc") != std::string_view::npos) {
        emit.Emit(pos, "simd-include-confined",
                  ".inc kernel fragment included outside a *_simd.cc TU");
      }
    }
    pos = eol;
  }

  // Intrinsic identifiers: every whole-word `_mm*` token must be inside an
  // LPSGD_HOT_PATH region (the kernels are the hot path by definition, and
  // the marker keeps the zero-allocation rule watching them).
  const auto in_hot_region = [&tu](size_t offset) {
    for (const HotRegion& region : tu.hot_regions) {
      if (offset >= region.begin && offset < region.end) return true;
    }
    return false;
  };
  static constexpr std::string_view kPrefix = "_mm";
  for (size_t at = 0; (at = stripped.find(kPrefix, at)) !=
                      std::string_view::npos; at += kPrefix.size()) {
    if (at > 0 && IsIdentChar(stripped[at - 1])) continue;
    if (!MayHoldIntrinsics(path)) {
      emit.Emit(at, "simd-include-confined",
                "x86 intrinsic outside a *_simd.cc TU / .inc fragment");
    } else if (!in_hot_region(at)) {
      emit.Emit(at, "simd-hot-path",
                "intrinsic outside an LPSGD_HOT_PATH body (every SIMD "
                "kernel is steady-state hot path and must carry the "
                "marker)");
    }
  }
}

void CheckFile(const TranslationUnit& tu, std::vector<Finding>* out) {
  const Emitter emit{tu, out};
  const std::string& path = tu.relative;
  const bool in_src = path.find("src/") != std::string::npos;
  const bool in_tools = path.find("tools/") != std::string::npos;
  const bool in_bench = path.find("bench/") != std::string::npos;

  if (in_src) {
    for (const char* dir : kHotPathFreeDirs) {
      if (path.find(dir) != std::string::npos) {
        CheckColdPathMarkers(tu.stripped, emit);
      }
    }
    CheckBannedIncludes(tu.stripped, emit);
    CheckSimdConfinement(tu, emit);
  }
  if (in_src || in_tools || in_bench) {
    CheckBannedFunctions(tu.stripped, emit);
  }
  CheckAnnotationTypos(tu.stripped, emit);
}

// Tree-level coverage: every file in kRequiredHotPathMarkers exists and
// holds at least its required number of markers.
std::vector<Finding> CheckMarkerCoverage(const Model& model) {
  std::vector<Finding> findings;
  const std::string& marker = HotPathMarker();
  for (const auto& [rel, required] : kRequiredHotPathMarkers) {
    const auto tu = std::find_if(
        model.tus.begin(), model.tus.end(),
        [rel = rel](const TranslationUnit& t) { return t.relative == rel; });
    if (tu == model.tus.end()) {
      findings.push_back({rel, 1, "missing-hot-path",
                          "file on the steady-state exchange path is "
                          "missing (required by the hot-path coverage "
                          "table in tools/lint)"});
      continue;
    }
    const std::string_view s = tu->stripped;
    int have = 0;
    for (size_t pos = 0; (pos = s.find(marker, pos)) != std::string::npos;
         pos += marker.size()) {
      if (!IsWholeWord(s, pos, marker.size())) continue;
      size_t bol = s.rfind('\n', pos);
      bol = (bol == std::string::npos) ? 0 : bol + 1;
      const size_t first = s.find_first_not_of(" \t", bol);
      if (first == std::string::npos || s[first] != '#') ++have;
    }
    if (have < required) {
      findings.push_back(
          {rel, 1, "missing-hot-path",
           "expected at least " + std::to_string(required) + " " + marker +
               " markers on the steady-state exchange path, found " +
               std::to_string(have)});
    }
  }
  return findings;
}

Model BuildModel(std::vector<SourceText> sources) {
  Model model;
  for (SourceText& source : sources) {
    AddTranslationUnit(std::move(source.path), std::move(source.contents),
                       &model);
  }
  FinalizeModel(&model);
  return model;
}

// Runs the per-file rules and the passes, adds them to `findings`, drops
// what an allow covers, and reports every allow that covered nothing.
std::vector<Finding> Check(const Model& model,
                           std::vector<Finding> findings) {
  for (const TranslationUnit& tu : model.tus) CheckFile(tu, &findings);
  for (auto* pass : {RunPurityPass, RunLockOrderPass, RunStatusDropPass}) {
    for (Finding& f : pass(model)) findings.push_back(std::move(f));
  }

  // An allow covers findings of its rules on its own line and the next.
  const auto covers = [](const Allow& allow, const Finding& f) {
    return allow.rule == f.rule &&
           (f.line == allow.line || f.line == allow.line + 1);
  };
  std::map<std::string, const TranslationUnit*> tu_of;
  std::vector<Finding> kept;
  for (const TranslationUnit& tu : model.tus) {
    tu_of[tu.relative] = &tu;
    for (const Allow& allow : tu.allows) {
      const bool used =
          std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
            return f.file == tu.relative && covers(allow, f);
          });
      if (!used) {
        kept.push_back({tu.relative, allow.line, "stale-allow",
                        "allow(" + allow.rule +
                            ") suppresses nothing; delete it"});
      }
    }
  }
  for (Finding& f : findings) {
    const auto tu = tu_of.find(f.file);
    const bool allowed =
        tu != tu_of.end() &&
        std::any_of(tu->second->allows.begin(), tu->second->allows.end(),
                    [&](const Allow& allow) { return covers(allow, f); });
    if (!allowed) kept.push_back(std::move(f));
  }

  std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule, a.message) <
           std::tie(b.file, b.line, b.rule, b.message);
  });
  return kept;
}

// Reads a file fully; NotFound on open failure.
StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFoundError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

StatusOr<std::vector<SourceText>> ReadTree(const std::string& repo_root) {
  const fs::path root(repo_root);
  std::vector<fs::path> files;
  for (const char* subdir : {"src", "tools", "bench"}) {
    const fs::path base = root / subdir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const auto ext = entry.path().extension();
      // .inc: textually-included kernel fragments (SIMD lane helpers) —
      // they hold intrinsics and hot-path bodies, so they count as source.
      if (ext == ".h" || ext == ".cc" || ext == ".inc") {
        files.push_back(entry.path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<SourceText> sources;
  sources.reserve(files.size());
  for (const fs::path& file : files) {
    std::error_code ec;
    const fs::path rel = fs::relative(file, root, ec);
    LPSGD_ASSIGN_OR_RETURN(std::string contents,
                           ReadFileToString(file.string()));
    sources.push_back({ec ? file.generic_string() : rel.generic_string(),
                       std::move(contents)});
  }
  return sources;
}

std::vector<Finding> LintSources(std::vector<SourceText> sources) {
  return Check(BuildModel(std::move(sources)), {});
}

StatusOr<std::vector<Finding>> LintTree(const std::string& repo_root) {
  LPSGD_ASSIGN_OR_RETURN(std::vector<SourceText> sources,
                         ReadTree(repo_root));
  const Model model = BuildModel(std::move(sources));
  return Check(model, CheckMarkerCoverage(model));
}

StatusOr<std::vector<Finding>> CheckHeaderSelfContained(
    const std::string& header_path, const std::string& include_path,
    const std::string& include_root, const std::string& compiler_command,
    const std::string& work_dir) {
  std::vector<Finding> findings;
  auto contents = ReadFileToString(header_path);
  if (!contents.ok()) return contents.status();

  const std::string stripped = StripCommentsAndStrings(*contents);
  const bool has_guard =
      stripped.find("#pragma once") != std::string::npos ||
      (stripped.find("#ifndef") != std::string::npos &&
       stripped.find("#define") != std::string::npos);
  if (!has_guard) {
    findings.push_back({header_path, 1, "missing-include-guard",
                      "header has neither an #ifndef guard nor "
                      "#pragma once"});
  }

  std::error_code ec;
  fs::create_directories(work_dir, ec);
  if (ec) {
    return InternalError("cannot create lint work dir " + work_dir +
                            ": " + ec.message());
  }
  std::string tu_name = include_path;
  std::replace(tu_name.begin(), tu_name.end(), '/', '_');
  std::replace(tu_name.begin(), tu_name.end(), '.', '_');
  const fs::path tu = fs::path(work_dir) / (tu_name + "_tu.cc");
  {
    std::ofstream out(tu);
    if (!out) {
      return InternalError("cannot write " + tu.string());
    }
    out << "// Generated by lpsgd_lint: self-containment check.\n"
        << "#include \"" << include_path << "\"\n"
        << "int lpsgd_lint_tu_anchor = 0;\n";
  }

  const std::string command = compiler_command + " -fsyntax-only -I \"" +
                              include_root + "\" \"" + tu.string() +
                              "\" 2>&1";
  std::string output;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    return InternalError("popen failed for: " + command);
  }
  char buf[512];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) output += buf;
  const int rc = pclose(pipe);
  if (rc != 0) {
    std::string first_line = output.substr(0, output.find('\n'));
    findings.push_back({header_path, 1, "header-not-self-contained",
                      "generated TU fails to compile alone: " + first_line});
  }
  return findings;
}

StatusOr<std::vector<Finding>> CheckTreeHeaders(
    const std::string& repo_root, const std::string& compiler_command,
    const std::string& work_dir) {
  std::vector<Finding> findings;
  const fs::path root(repo_root);
  const fs::path src = root / "src";
  if (!fs::exists(src)) {
    return InvalidArgumentError("no src/ under " + repo_root);
  }
  std::vector<fs::path> headers;
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    if (entry.is_regular_file() && entry.path().extension() == ".h") {
      headers.push_back(entry.path());
    }
  }
  std::sort(headers.begin(), headers.end());
  for (const fs::path& header : headers) {
    std::error_code rel_ec;
    fs::path rel = fs::relative(header, src, rel_ec);
    const std::string include_path =
        rel_ec ? header.generic_string() : rel.generic_string();
    auto header_issues = CheckHeaderSelfContained(
        header.string(), include_path, src.string(), compiler_command,
        work_dir);
    if (!header_issues.ok()) return header_issues.status();
    for (Finding issue : *header_issues) {
      std::error_code root_ec;
      fs::path root_rel = fs::relative(header, root, root_ec);
      issue.file =
          root_ec ? header.generic_string() : root_rel.generic_string();
      findings.push_back(std::move(issue));
    }
  }
  return findings;
}

}  // namespace lint
}  // namespace lpsgd
