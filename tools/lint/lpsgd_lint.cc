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
#include <vector>

#include "common/source_text.h"

namespace lpsgd {
namespace lint {
namespace {

namespace fs = std::filesystem;

using srctext::FindHotRegions;
using srctext::HotRegion;
using srctext::IsIdentChar;
using srctext::IsWholeWord;
using srctext::LineIndex;
using srctext::ScanAllocations;
using srctext::SkipSpace;
using srctext::SuppressionMap;

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

// Free functions banned outright in src/ and tools/.
const char* const kBannedFunctions[] = {"rand", "strcpy", "sprintf"};

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
  return srctext::EndsWith(srctext::Basename(path), "_simd.cc");
}

bool MayHoldIntrinsics(const std::string& path) {
  const std::string base = srctext::Basename(path);
  return srctext::EndsWith(base, "_simd.cc") ||
         srctext::EndsWith(base, ".inc");
}

// Emits an issue unless a suppression covers it.
struct Emitter {
  const std::string& path;
  const LineIndex& lines;
  const SuppressionMap& allow;
  std::vector<LintIssue>* out;

  void Emit(size_t offset, const std::string& rule,
            const std::string& message) const {
    int line = lines.LineAt(offset);
    if (allow.Allows(line, rule)) return;
    out->push_back({path, line, rule, message});
  }
};

void CheckHotRegions(std::string_view stripped, const Emitter& emit) {
  for (const HotRegion& region : FindHotRegions(stripped)) {
    std::string_view body = stripped.substr(region.begin,
                                            region.end - region.begin);
    for (const srctext::AllocationSite& site : ScanAllocations(body)) {
      emit.Emit(region.begin + site.offset, "hot-path-alloc",
                site.message + " inside an LPSGD_HOT_PATH region");
    }
  }
}

void CheckColdPathMarkers(const std::string& path,
                          std::string_view stripped, const Emitter& emit) {
  bool cold = false;
  for (const char* dir : kHotPathFreeDirs) {
    if (path.find(dir) != std::string::npos) {
      cold = true;
      break;
    }
  }
  if (!cold) return;
  const std::string& marker = srctext::HotPathMarker();
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
  for (const char* fn : kBannedFunctions) {
    const size_t len = std::string_view(fn).size();
    for (size_t pos = 0; (pos = stripped.find(fn, pos)) !=
                         std::string_view::npos; pos += len) {
      if (!IsWholeWord(stripped, pos, len)) continue;
      size_t after = SkipSpace(stripped, pos + len);
      if (after < stripped.size() && stripped[after] == '(') {
        emit.Emit(pos, "banned-function",
                  std::string(fn) + "() is banned (" +
                      (std::string_view(fn) == "rand"
                           ? "non-deterministic; use a seeded "
                             "std::mt19937"
                           : "unbounded write; use the bounded "
                             "counterpart") +
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
void CheckSimdConfinement(const std::string& path, std::string_view contents,
                          std::string_view stripped, const Emitter& emit) {
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
  const std::vector<HotRegion> regions = FindHotRegions(stripped);
  const auto in_hot_region = [&regions](size_t offset) {
    for (const HotRegion& region : regions) {
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

}  // namespace

std::string LintIssue::ToString() const {
  std::ostringstream os;
  os << file << ":" << line << ": [" << rule << "] " << message;
  return os.str();
}

std::string StripCommentsAndStrings(std::string_view contents) {
  return srctext::StripCommentsAndStrings(contents);
}

std::vector<LintIssue> LintFileContents(const std::string& path,
                                        std::string_view contents,
                                        const LintOptions& options) {
  std::vector<LintIssue> issues;
  const std::string stripped = srctext::StripCommentsAndStrings(contents);
  const SuppressionMap allow(contents, "lpsgd-lint: allow(");
  const LineIndex lines(contents);
  const Emitter emit{path, lines, allow, &issues};

  const bool in_src = path.find("src/") != std::string::npos;
  const bool in_tools = path.find("tools/") != std::string::npos;

  if (options.hot_path_allocations) CheckHotRegions(stripped, emit);
  if (options.hot_path_allocations && in_src) {
    CheckColdPathMarkers(path, stripped, emit);
  }
  if (options.banned_includes && in_src) CheckBannedIncludes(stripped, emit);
  if (options.banned_functions && (in_src || in_tools)) {
    CheckBannedFunctions(stripped, emit);
  }
  if (options.annotation_typos) CheckAnnotationTypos(stripped, emit);
  if (options.simd_confinement && in_src) {
    CheckSimdConfinement(path, contents, stripped, emit);
  }

  std::sort(issues.begin(), issues.end(),
            [](const LintIssue& a, const LintIssue& b) {
              return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
            });
  return issues;
}

StatusOr<std::vector<LintIssue>> LintFile(const std::string& path,
                                          const LintOptions& options) {
  auto contents = srctext::ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  return LintFileContents(path, *contents, options);
}

StatusOr<std::vector<LintIssue>> LintTree(const std::string& repo_root,
                                          const LintOptions& options) {
  std::vector<LintIssue> issues;
  auto files = srctext::ListSourceFiles(repo_root, {"src", "tools"});
  if (!files.ok()) return files.status();

  std::map<std::string, int> marker_counts;
  const std::string& marker_token = srctext::HotPathMarker();
  for (const srctext::SourceFile& file : *files) {
    auto contents = srctext::ReadFileToString(file.path);
    if (!contents.ok()) return contents.status();
    std::vector<LintIssue> file_issues =
        LintFileContents(file.relative, *contents, options);
    issues.insert(issues.end(), file_issues.begin(), file_issues.end());
    if (options.required_hot_path_markers) {
      const std::string stripped =
          srctext::StripCommentsAndStrings(*contents);
      int count = 0;
      size_t pos = 0;
      while ((pos = stripped.find(marker_token, pos)) != std::string::npos) {
        if (IsWholeWord(stripped, pos, marker_token.size())) {
          size_t bol = stripped.rfind('\n', pos);
          bol = (bol == std::string::npos) ? 0 : bol + 1;
          size_t first = stripped.find_first_not_of(" \t", bol);
          if (first == std::string::npos || stripped[first] != '#') ++count;
        }
        pos += marker_token.size();
      }
      marker_counts[file.relative] = count;
    }
  }

  if (options.required_hot_path_markers) {
    for (const auto& [rel, required] : kRequiredHotPathMarkers) {
      auto it = marker_counts.find(rel);
      const int have = (it == marker_counts.end()) ? -1 : it->second;
      if (have < 0) {
        issues.push_back({rel, 1, "missing-hot-path",
                          "file on the steady-state exchange path is "
                          "missing (required by the hot-path coverage "
                          "table in tools/lint)"});
      } else if (have < required) {
        std::ostringstream os;
        os << "expected at least " << required << " LPSGD_HOT_PATH "
           << "markers on the steady-state exchange path, found " << have;
        issues.push_back({rel, 1, "missing-hot-path", os.str()});
      }
    }
  }
  return issues;
}

StatusOr<std::vector<LintIssue>> CheckHeaderSelfContained(
    const std::string& header_path, const std::string& include_path,
    const std::string& include_root, const std::string& compiler_command,
    const std::string& work_dir) {
  std::vector<LintIssue> issues;
  auto contents = srctext::ReadFileToString(header_path);
  if (!contents.ok()) return contents.status();

  const std::string stripped = srctext::StripCommentsAndStrings(*contents);
  const bool has_guard =
      stripped.find("#pragma once") != std::string::npos ||
      (stripped.find("#ifndef") != std::string::npos &&
       stripped.find("#define") != std::string::npos);
  if (!has_guard) {
    issues.push_back({header_path, 1, "missing-include-guard",
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
    issues.push_back({header_path, 1, "header-not-self-contained",
                      "generated TU fails to compile alone: " + first_line});
  }
  return issues;
}

StatusOr<std::vector<LintIssue>> CheckTreeHeaders(
    const std::string& repo_root, const std::string& compiler_command,
    const std::string& work_dir) {
  std::vector<LintIssue> issues;
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
    for (LintIssue issue : *header_issues) {
      std::error_code root_ec;
      fs::path root_rel = fs::relative(header, root, root_ec);
      issue.file =
          root_ec ? header.generic_string() : root_rel.generic_string();
      issues.push_back(std::move(issue));
    }
  }
  return issues;
}

}  // namespace lint
}  // namespace lpsgd
