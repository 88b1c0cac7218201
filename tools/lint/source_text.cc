// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "lint/source_text.h"

#include <algorithm>
#include <cctype>

namespace lpsgd {
namespace lint {
namespace {

// Member calls that can grow a container (and therefore allocate) when
// invoked as `.name(` / `->name(`.
const char* const kGrowthMethods[] = {
    "resize",  "push_back", "emplace_back", "reserve",
    "assign",  "insert",    "emplace",      "append",
};

// Allocation functions banned inside hot-path regions.
const char* const kAllocFunctions[] = {"malloc", "calloc", "realloc"};

}  // namespace

const std::string& HotPathMarker() {
  static const std::string marker = std::string("LPSGD_HOT") + "_PATH";
  return marker;
}

const std::string& HotCalleeOkMarker() {
  static const std::string marker = std::string("LPSGD_HOT") + "_CALLEE_OK";
  return marker;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool IsWholeWord(std::string_view text, size_t pos, size_t len) {
  if (pos > 0 && IsIdentChar(text[pos - 1])) return false;
  size_t end = pos + len;
  if (end < text.size() && IsIdentChar(text[end])) return false;
  return true;
}

size_t SkipSpace(std::string_view text, size_t pos) {
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
    ++pos;
  }
  return pos;
}

std::string Basename(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

std::string StripCommentsAndStrings(std::string_view contents) {
  std::string out(contents);
  enum class State { kCode, kLine, kBlock, kString, kChar, kRaw };
  State state = State::kCode;
  std::string raw_close;  // ")delim\"" for the active raw string
  for (size_t i = 0; i < contents.size(); ++i) {
    char c = contents[i];
    char next = (i + 1 < contents.size()) ? contents[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !IsIdentChar(contents[i - 1]))) {
          size_t open = contents.find('(', i + 2);
          if (open != std::string_view::npos) {
            // Built in place: GCC 12 misreads the operator+ chain as an
            // overlapping memcpy (-Wrestrict).
            raw_close.assign(1, ')');
            raw_close.append(contents.substr(i + 2, open - i - 2));
            raw_close.push_back('"');
            for (size_t j = i; j <= open; ++j) out[j] = ' ';
            i = open;
            state = State::kRaw;
          }
        } else if (c == '"') {
          state = State::kString;
          out[i] = ' ';
        } else if (c == '\'') {
          state = State::kChar;
          out[i] = ' ';
        }
        break;
      case State::kLine:
        if (c == '\n') {
          state = State::kCode;
        } else if (c == '\\' && next == '\n') {
          // Line continuation keeps the comment going; preserve newline.
          out[i] = ' ';
          ++i;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          out[i] = out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
      case State::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\0') {
            if (next != '\n') out[i + 1] = ' ';
            ++i;
          }
        } else if ((state == State::kString && c == '"') ||
                   (state == State::kChar && c == '\'')) {
          out[i] = ' ';
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kRaw:
        if (contents.compare(i, raw_close.size(), raw_close) == 0) {
          for (size_t j = 0; j < raw_close.size(); ++j) out[i + j] = ' ';
          i += raw_close.size() - 1;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

LineIndex::LineIndex(std::string_view contents) {
  starts_.push_back(0);
  for (size_t i = 0; i < contents.size(); ++i) {
    if (contents[i] == '\n') starts_.push_back(i + 1);
  }
}

int LineIndex::LineAt(size_t offset) const {
  auto it = std::upper_bound(starts_.begin(), starts_.end(), offset);
  return static_cast<int>(it - starts_.begin());
}

std::vector<Allow> ParseAllows(std::string_view contents) {
  static const std::string tag = std::string("lpsgd-lint: ") + "allow(";
  std::vector<Allow> allows;
  int line = 1;
  for (size_t pos = 0; pos < contents.size(); ++line) {
    size_t eol = contents.find('\n', pos);
    if (eol == std::string_view::npos) eol = contents.size();
    const std::string_view text = contents.substr(pos, eol - pos);
    for (size_t at = text.find(tag); at != std::string_view::npos;
         at = text.find(tag, at + tag.size())) {
      const size_t close = text.find(')', at + tag.size());
      if (close == std::string_view::npos) break;
      std::vector<Allow> rules;
      std::string rule;
      bool valid = true;
      for (char c : text.substr(at + tag.size(), close - at - tag.size())) {
        if (c == ',') {
          valid = valid && !rule.empty();
          rules.push_back({line, rule});
          rule.clear();
        } else if (std::islower(static_cast<unsigned char>(c)) != 0 ||
                   std::isdigit(static_cast<unsigned char>(c)) != 0 ||
                   c == '-') {
          rule.push_back(c);
        } else if (c != ' ') {
          valid = false;
        }
      }
      rules.push_back({line, rule});
      if (valid && !rule.empty()) {
        allows.insert(allows.end(), rules.begin(), rules.end());
      }
    }
    pos = eol + 1;
  }
  return allows;
}

std::vector<HotRegion> FindHotRegions(std::string_view stripped) {
  const std::string& marker_token = HotPathMarker();
  std::vector<HotRegion> regions;
  size_t pos = 0;
  while ((pos = stripped.find(marker_token, pos)) !=
         std::string_view::npos) {
    const size_t marker = pos;
    pos += marker_token.size();
    // Word boundaries: skip LPSGD_HOT_PATHS or FOO_LPSGD_HOT_PATH.
    if (marker > 0 && IsIdentChar(stripped[marker - 1])) continue;
    if (pos < stripped.size() && IsIdentChar(stripped[pos])) continue;
    // Skip the #define in thread_annotations.h (and any other directive).
    size_t bol = stripped.rfind('\n', marker);
    bol = (bol == std::string_view::npos) ? 0 : bol + 1;
    std::string_view head = stripped.substr(bol, marker - bol);
    if (head.find_first_not_of(" \t") != std::string_view::npos &&
        head[head.find_first_not_of(" \t")] == '#') {
      continue;
    }
    int paren_depth = 0;
    size_t i = pos;
    for (; i < stripped.size(); ++i) {
      char c = stripped[i];
      if (c == '(') ++paren_depth;
      if (c == ')') --paren_depth;
      if (paren_depth > 0) continue;
      if (c == ';') break;  // declaration only
      if (c == '{') {
        int brace_depth = 1;
        size_t body = i + 1;
        size_t j = body;
        for (; j < stripped.size() && brace_depth > 0; ++j) {
          if (stripped[j] == '{') ++brace_depth;
          if (stripped[j] == '}') --brace_depth;
        }
        regions.push_back({body, j});
        pos = j;
        break;
      }
    }
  }
  return regions;
}

std::vector<AllocationSite> ScanAllocations(std::string_view body) {
  std::vector<AllocationSite> sites;

  // `new` expressions.
  for (size_t pos = 0;
       (pos = body.find("new", pos)) != std::string_view::npos; pos += 3) {
    if (IsWholeWord(body, pos, 3)) {
      sites.push_back({pos, "`new`"});
    }
  }

  // malloc-family calls.
  for (const char* fn : kAllocFunctions) {
    const size_t len = std::string_view(fn).size();
    for (size_t pos = 0;
         (pos = body.find(fn, pos)) != std::string_view::npos; pos += len) {
      if (!IsWholeWord(body, pos, len)) continue;
      if (SkipSpace(body, pos + len) < body.size() &&
          body[SkipSpace(body, pos + len)] == '(') {
        sites.push_back({pos, std::string(fn) + "()"});
      }
    }
  }

  // Container growth member calls: `.name(` / `->name(`.
  for (const char* method : kGrowthMethods) {
    const size_t len = std::string_view(method).size();
    for (size_t pos = 0;
         (pos = body.find(method, pos)) != std::string_view::npos;
         pos += len) {
      if (!IsWholeWord(body, pos, len)) continue;
      bool member = false;
      if (pos >= 1 && body[pos - 1] == '.') member = true;
      if (pos >= 2 && body[pos - 2] == '-' && body[pos - 1] == '>') {
        member = true;
      }
      if (!member) continue;
      size_t after = SkipSpace(body, pos + len);
      if (after < body.size() && body[after] == '(') {
        sites.push_back(
            {pos, std::string(".") + method + "() can grow a container"});
      }
    }
  }

  // By-value std::vector declarations or temporaries. Pointer and
  // reference declarations (`std::vector<float>* out`) are the hot
  // path's calling convention and are allowed; so are nested template
  // arguments (closing '>' , ',' follow).
  static constexpr std::string_view kVec = "std::vector";
  for (size_t pos = 0;
       (pos = body.find(kVec, pos)) != std::string_view::npos;
       pos += kVec.size()) {
    if (!IsWholeWord(body, pos, kVec.size())) continue;
    size_t angle = SkipSpace(body, pos + kVec.size());
    if (angle >= body.size() || body[angle] != '<') continue;
    int depth = 0;
    size_t j = angle;
    for (; j < body.size(); ++j) {
      if (body[j] == '<') ++depth;
      if (body[j] == '>' && --depth == 0) break;
    }
    if (j >= body.size()) continue;
    size_t next = SkipSpace(body, j + 1);
    if (next >= body.size()) continue;
    char c = body[next];
    if (IsIdentChar(c) || c == '(' || c == '{') {
      sites.push_back(
          {pos,
           "by-value std::vector (pass a pointer/reference to a reused "
           "buffer)"});
    }
  }

  std::sort(sites.begin(), sites.end(),
            [](const AllocationSite& a, const AllocationSite& b) {
              return a.offset < b.offset;
            });
  return sites;
}

}  // namespace lint
}  // namespace lpsgd
