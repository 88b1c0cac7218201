// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Source-text primitives of lpsgd_lint. Every rule operates on a comment-
// and string-stripped copy of each file so tokens inside literals or
// documentation never trip a rule; the helpers here are the single
// implementation of that stripping, the offset -> line mapping, the allow
// comment grammar, the LPSGD_HOT_PATH region finder, and the
// allocation-site scanner behind the hot-path-alloc rule.
#ifndef LPSGD_TOOLS_LINT_SOURCE_TEXT_H_
#define LPSGD_TOOLS_LINT_SOURCE_TEXT_H_

#include <string>
#include <string_view>
#include <vector>

namespace lpsgd {
namespace lint {

// The zero-allocation region marker, assembled from two halves so the
// scanners never fire on the tool's own source (strings are stripped before
// scanning, but the identifier must also not appear verbatim in code
// position inside the tool).
const std::string& HotPathMarker();

// The transitive-purity escape hatch: LPSGD_HOT_CALLEE_OK(fn). Assembled
// from halves for the same reason.
const std::string& HotCalleeOkMarker();

// Returns `contents` with comments and string/character literals blanked to
// spaces. Newlines are preserved so byte offsets keep mapping to the same
// line numbers (the copy has exactly the length of the input).
std::string StripCommentsAndStrings(std::string_view contents);

bool IsIdentChar(char c);

// True when `text[pos..pos+len)` is a whole identifier (not a substring of
// a longer one).
bool IsWholeWord(std::string_view text, size_t pos, size_t len);

// First non-whitespace position at or after `pos`.
size_t SkipSpace(std::string_view text, size_t pos);

std::string Basename(const std::string& path);
bool EndsWith(std::string_view text, std::string_view suffix);

// Offset -> 1-based line number, via precomputed line starts.
class LineIndex {
 public:
  explicit LineIndex(std::string_view contents);
  int LineAt(size_t offset) const;

 private:
  std::vector<size_t> starts_;
};

// One rule named by an allow comment. The grammar, parsed from the
// original text (the stripped copy has no comments), is the tag
// "lpsgd-lint: allow(" followed by one or more comma-separated rule names
// ([a-z0-9-]+), ')', and a reason. An allow on line N suppresses findings
// of its rules on lines N and N+1; a list with any other token is not an
// allow, so prose that quotes the grammar with a placeholder is ignored.
struct Allow {
  int line = 0;
  std::string rule;
};
std::vector<Allow> ParseAllows(std::string_view contents);

// One half-open [begin, end) byte range of a hot-path function body.
struct HotRegion {
  size_t begin = 0;
  size_t end = 0;
};

// Finds the body of each LPSGD_HOT_PATH-marked definition in the stripped
// text: from the marker, skip to the first '{' at parenthesis depth zero
// (a ';' first means the marker sits on a declaration — no body to check)
// and take the matching-brace extent. Markers on preprocessor directives
// (the #define itself) are skipped.
std::vector<HotRegion> FindHotRegions(std::string_view stripped);

// One allocation site found by ScanAllocations.
struct AllocationSite {
  size_t offset = 0;
  // Human-readable description, e.g. "`new`", ".push_back()".
  std::string message;
};

// Scans `body` (stripped text) for the allocation constructs the
// zero-allocation contract bans: `new` expressions, malloc-family calls,
// container growth member calls (.resize/.push_back/...), and by-value
// std::vector declarations or temporaries. Offsets are relative to `body`.
std::vector<AllocationSite> ScanAllocations(std::string_view body);

}  // namespace lint
}  // namespace lpsgd

#endif  // LPSGD_TOOLS_LINT_SOURCE_TEXT_H_
