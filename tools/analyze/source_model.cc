// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "analyze/source_model.h"

#include <algorithm>
#include <cctype>

namespace lpsgd {
namespace analyze {
namespace {

using srctext::IsIdentChar;
using srctext::IsWholeWord;
using srctext::SkipSpace;

constexpr size_t npos = std::string_view::npos;

// Keywords and builtin type names that can precede '(' without being a
// call or definition name. Builtin types also cover functional casts
// (`int(x)`, `uint32_t(v)`).
bool IsKeywordOrBuiltin(std::string_view id) {
  static const std::set<std::string_view> kWords = {
      "if",        "else",     "for",      "while",    "do",
      "switch",    "case",     "return",   "sizeof",   "alignof",
      "alignas",   "decltype", "typeid",   "catch",    "throw",
      "new",       "delete",   "operator", "noexcept", "static_assert",
      "co_return", "co_await", "co_yield", "requires", "asm",
      "static_cast",           "dynamic_cast",
      "reinterpret_cast",      "const_cast",
      "int",       "long",     "short",    "char",     "bool",
      "float",     "double",   "unsigned", "signed",   "void",
      "auto",      "size_t",   "int8_t",   "int16_t",  "int32_t",
      "int64_t",   "uint8_t",  "uint16_t", "uint32_t", "uint64_t",
      "uintptr_t", "intptr_t", "ptrdiff_t",
  };
  return kWords.count(id) > 0;
}

// All-caps identifiers are macro invocations (CHECK, LPSGD_*, BENCHMARK):
// never function definitions and never resolvable callees.
bool LooksLikeMacro(std::string_view id) {
  bool has_alpha = false;
  for (char c : id) {
    if (std::islower(static_cast<unsigned char>(c)) != 0) return false;
    if (std::isupper(static_cast<unsigned char>(c)) != 0) has_alpha = true;
  }
  return has_alpha;
}

// Position just past the delimiter matching text[pos] (text[pos] must be
// `open`), or npos when unbalanced.
size_t SkipBalanced(std::string_view text, size_t pos, char open,
                    char close) {
  int depth = 0;
  for (; pos < text.size(); ++pos) {
    if (text[pos] == open) ++depth;
    if (text[pos] == close && --depth == 0) return pos + 1;
  }
  return npos;
}

// Offset of the '}' matching the '{' at `open_pos`, or text.size().
size_t MatchBrace(std::string_view text, size_t open_pos) {
  int depth = 0;
  for (size_t i = open_pos; i < text.size(); ++i) {
    if (text[i] == '{') ++depth;
    if (text[i] == '}' && --depth == 0) return i;
  }
  return text.size();
}

std::string ReadIdentAt(std::string_view text, size_t pos) {
  size_t end = pos;
  while (end < text.size() && IsIdentChar(text[end])) ++end;
  return std::string(text.substr(pos, end - pos));
}

// Identifier ending just before `end` (skipping trailing whitespace);
// returns its start offset or npos.
size_t IdentStartBefore(std::string_view text, size_t end) {
  while (end > 0 &&
         std::isspace(static_cast<unsigned char>(text[end - 1])) != 0) {
    --end;
  }
  if (end == 0 || !IsIdentChar(text[end - 1])) return npos;
  size_t begin = end;
  while (begin > 0 && IsIdentChar(text[begin - 1])) --begin;
  return begin;
}

struct ClassRange {
  std::string name;
  size_t begin = 0;  // first byte inside the class body
  size_t end = 0;    // offset of the closing '}'
};

// Finds `class X { ... }` / `struct X { ... }` body ranges so in-class
// method definitions can be attributed to X. Handles attribute macros and
// base clauses between the keyword and the body; forward declarations and
// pointer uses (`struct X* p`) are skipped.
std::vector<ClassRange> FindClassRanges(std::string_view s) {
  std::vector<ClassRange> out;
  std::set<size_t> seen_opens;
  for (const char* keyword : {"class", "struct"}) {
    const size_t klen = std::string_view(keyword).size();
    for (size_t pos = 0; (pos = s.find(keyword, pos)) != npos;
         pos += klen) {
      if (!IsWholeWord(s, pos, klen)) continue;
      size_t p = pos + klen;
      std::string last_ident;
      size_t open = npos;
      while (p < s.size()) {
        p = SkipSpace(s, p);
        if (p >= s.size()) break;
        char c = s[p];
        if (c == '{') {
          open = p;
          break;
        }
        if (c == ';' || c == '*' || c == '&' || c == ')' || c == ',' ||
            c == '=' || c == '>') {
          break;  // forward decl, pointer use, or template parameter
        }
        if (c == ':') {
          // Base clause: the body brace is the next '{' outside <>/().
          int depth = 0;
          for (++p; p < s.size(); ++p) {
            char d = s[p];
            if (d == '<' || d == '(') ++depth;
            if (d == '>' || d == ')') --depth;
            if (depth <= 0 && d == '{') {
              open = p;
              break;
            }
            if (depth <= 0 && d == ';') break;
          }
          break;
        }
        if (c == '<') {
          size_t after = SkipBalanced(s, p, '<', '>');
          if (after == npos) break;
          p = after;
          continue;
        }
        if (c == '(') {  // attribute macro arguments
          size_t after = SkipBalanced(s, p, '(', ')');
          if (after == npos) break;
          p = after;
          continue;
        }
        if (IsIdentChar(c)) {
          std::string ident = ReadIdentAt(s, p);
          p += ident.size();
          if (ident != "final" && ident != "alignas" &&
              !LooksLikeMacro(ident)) {
            last_ident = ident;
          }
          continue;
        }
        break;
      }
      if (open == npos || last_ident.empty()) continue;
      if (!seen_opens.insert(open).second) continue;
      out.push_back({last_ident, open + 1, MatchBrace(s, open)});
    }
  }
  return out;
}

std::string InnermostClassAt(const std::vector<ClassRange>& classes,
                             size_t offset) {
  const ClassRange* best = nullptr;
  for (const ClassRange& range : classes) {
    if (offset < range.begin || offset >= range.end) continue;
    if (best == nullptr || range.end - range.begin < best->end - best->begin) {
      best = &range;
    }
  }
  return best == nullptr ? std::string() : best->name;
}

// Parses a constructor initializer list starting just after ':' and
// returns the offset of the body '{', or npos when the text does not parse
// as an initializer list.
size_t SkipInitList(std::string_view s, size_t pos) {
  while (true) {
    pos = SkipSpace(s, pos);
    if (pos >= s.size() || !IsIdentChar(s[pos])) return npos;
    pos += ReadIdentAt(s, pos).size();
    pos = SkipSpace(s, pos);
    if (pos < s.size() && s[pos] == '<') {
      pos = SkipBalanced(s, pos, '<', '>');
      if (pos == npos) return npos;
      pos = SkipSpace(s, pos);
    }
    if (pos >= s.size()) return npos;
    if (s[pos] == '(') {
      pos = SkipBalanced(s, pos, '(', ')');
    } else if (s[pos] == '{') {
      pos = SkipBalanced(s, pos, '{', '}');
    } else {
      return npos;
    }
    if (pos == npos) return npos;
    pos = SkipSpace(s, pos);
    if (pos < s.size() && s[pos] == ',') {
      ++pos;
      continue;
    }
    if (pos < s.size() && s[pos] == '{') return pos;
    return npos;
  }
}

// Extracts comma-separated macro arguments from the first occurrence of
// `macro(` at or after `from` within [from, to); appends canonicalized
// lock ids to `out`.
void CollectAnnotationArgs(std::string_view header, const std::string& macro,
                           const std::string& enclosing_class,
                           std::vector<std::string>* out) {
  size_t pos = 0;
  while ((pos = header.find(macro, pos)) != npos) {
    if (!IsWholeWord(header, pos, macro.size())) {
      pos += macro.size();
      continue;
    }
    size_t open = SkipSpace(header, pos + macro.size());
    pos += macro.size();
    if (open >= header.size() || header[open] != '(') continue;
    size_t after = SkipBalanced(header, open, '(', ')');
    if (after == npos) continue;
    std::string_view args = header.substr(open + 1, after - open - 2);
    size_t start = 0;
    while (start <= args.size()) {
      size_t comma = args.find(',', start);
      std::string_view arg = args.substr(
          start, comma == npos ? npos : comma - start);
      std::string id = CanonicalLockId(arg, enclosing_class);
      if (!id.empty()) out->push_back(id);
      if (comma == npos) break;
      start = comma + 1;
    }
  }
}

// Scope end for an RAII guard declared at `site` inside `body`: the end of
// the innermost enclosing block.
size_t GuardScopeEnd(std::string_view body, size_t site) {
  int depth = 0;
  for (size_t i = site; i < body.size(); ++i) {
    if (body[i] == '{') ++depth;
    if (body[i] == '}') {
      if (depth == 0) return i;
      --depth;
    }
  }
  return body.size();
}

// Reads a lock expression backwards from `end` (exclusive): the maximal
// run of identifier chars, '.', '->', 'this->', '*', '&'.
std::string ReceiverBefore(std::string_view body, size_t end) {
  size_t begin = end;
  while (begin > 0) {
    char c = body[begin - 1];
    if (IsIdentChar(c) || c == '.' || c == '_') {
      --begin;
    } else if (begin >= 2 && c == '>' && body[begin - 2] == '-') {
      begin -= 2;
    } else {
      break;
    }
  }
  return std::string(body.substr(begin, end - begin));
}

// RAII guard type names whose constructor argument is the lock.
const char* const kGuardTypes[] = {"MutexLock", "lock_guard", "unique_lock",
                                   "scoped_lock"};

void ExtractLocks(std::string_view body, const std::string& enclosing_class,
                  FunctionDef* fn) {
  // RAII guards: `MutexLock guard(expr);` (optionally templated).
  for (const char* guard : kGuardTypes) {
    const size_t glen = std::string_view(guard).size();
    for (size_t pos = 0; (pos = body.find(guard, pos)) != npos;
         pos += glen) {
      if (!IsWholeWord(body, pos, glen)) continue;
      size_t p = SkipSpace(body, pos + glen);
      if (p < body.size() && body[p] == '<') {
        p = SkipBalanced(body, p, '<', '>');
        if (p == npos) continue;
        p = SkipSpace(body, p);
      }
      if (p >= body.size() || !IsIdentChar(body[p])) continue;
      p += ReadIdentAt(body, p).size();  // guard variable name
      p = SkipSpace(body, p);
      if (p >= body.size() || (body[p] != '(' && body[p] != '{')) continue;
      const char open = body[p];
      const char close = open == '(' ? ')' : '}';
      size_t after = SkipBalanced(body, p, open, close);
      if (after == npos) continue;
      std::string expr(body.substr(p + 1, after - p - 2));
      // std::scoped_lock can take several mutexes; treat each argument as
      // acquired at this site.
      size_t start = 0;
      while (start <= expr.size()) {
        size_t comma = expr.find(',', start);
        std::string id = CanonicalLockId(
            std::string_view(expr).substr(
                start, comma == std::string::npos ? npos : comma - start),
            enclosing_class);
        if (!id.empty()) {
          fn->locks.push_back({id, pos, GuardScopeEnd(body, pos)});
        }
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    }
  }

  // Manual `expr.Lock()` ... `expr.Unlock()` pairs.
  static constexpr std::string_view kLock = "Lock";
  for (size_t pos = 0; (pos = body.find(kLock, pos)) != npos;
       pos += kLock.size()) {
    if (!IsWholeWord(body, pos, kLock.size())) continue;
    const bool dot = pos >= 1 && body[pos - 1] == '.';
    const bool arrow =
        pos >= 2 && body[pos - 2] == '-' && body[pos - 1] == '>';
    if (!dot && !arrow) continue;
    size_t open = SkipSpace(body, pos + kLock.size());
    if (open >= body.size() || body[open] != '(') continue;
    const std::string receiver =
        ReceiverBefore(body, dot ? pos - 1 : pos - 2);
    const std::string id = CanonicalLockId(receiver, enclosing_class);
    if (id.empty()) continue;
    // Held until the matching Unlock on the same receiver, else body end.
    size_t scope_end = body.size();
    static constexpr std::string_view kUnlock = "Unlock";
    for (size_t upos = pos; (upos = body.find(kUnlock, upos)) != npos;
         upos += kUnlock.size()) {
      if (!IsWholeWord(body, upos, kUnlock.size())) continue;
      const bool udot = upos >= 1 && body[upos - 1] == '.';
      const bool uarrow =
          upos >= 2 && body[upos - 2] == '-' && body[upos - 1] == '>';
      if (!udot && !uarrow) continue;
      const std::string urecv =
          ReceiverBefore(body, udot ? upos - 1 : upos - 2);
      if (CanonicalLockId(urecv, enclosing_class) == id) {
        scope_end = upos;
        break;
      }
    }
    fn->locks.push_back({id, pos, scope_end});
  }
}

void ExtractCalls(std::string_view body, FunctionDef* fn) {
  for (size_t i = 0; i < body.size(); ++i) {
    if (body[i] != '(') continue;
    size_t begin = IdentStartBefore(body, i);
    if (begin == npos) continue;
    std::string name = ReadIdentAt(body, begin);
    if (IsKeywordOrBuiltin(name) || LooksLikeMacro(name)) continue;
    if (std::isdigit(static_cast<unsigned char>(name[0])) != 0) continue;

    std::string qualifier;
    bool is_member_call = false;
    if (begin >= 1 && body[begin - 1] == '.') is_member_call = true;
    if (begin >= 2 && body[begin - 2] == '-' && body[begin - 1] == '>') {
      is_member_call = true;
    }
    if (!is_member_call && begin >= 2 && body[begin - 1] == ':' &&
        body[begin - 2] == ':') {
      size_t qbegin = IdentStartBefore(body, begin - 2);
      if (qbegin != npos) qualifier = ReadIdentAt(body, qbegin);
    }
    if (!is_member_call && qualifier.empty()) {
      // `Type var(args)`: a constructor-style declaration — the callee is
      // the type, recorded under the type's name so constructor bodies are
      // traversed too.
      size_t prev = IdentStartBefore(body, begin);
      if (prev != npos) {
        std::string prev_ident = ReadIdentAt(body, prev);
        if (prev_ident.size() + prev < begin &&  // separated by whitespace
            !IsKeywordOrBuiltin(prev_ident) && !LooksLikeMacro(prev_ident) &&
            prev_ident != name) {
          fn->calls.push_back({prev_ident, "", prev});
          continue;
        }
      }
    }
    fn->calls.push_back({name, qualifier, i});
  }
}

}  // namespace

std::string CanonicalLockId(std::string_view expr,
                            const std::string& enclosing_class) {
  std::string id;
  id.reserve(expr.size());
  for (char c : expr) {
    if (std::isspace(static_cast<unsigned char>(c)) == 0) id.push_back(c);
  }
  if (id.rfind("this->", 0) == 0) id = id.substr(6);
  while (!id.empty() && (id[0] == '*' || id[0] == '&')) id = id.substr(1);
  // Fold -> to . so `batch->mu` and `batch.mu` share an identity.
  size_t arrow;
  while ((arrow = id.find("->")) != std::string::npos) {
    // In place, not replace(arrow, 2, "."): GCC 12 misreads that as an
    // overlapping memcpy (-Wrestrict).
    id[arrow] = '.';
    id.erase(arrow + 1, 1);
  }
  if (id.empty()) return id;
  const bool bare_ident =
      id.find('.') == std::string::npos &&
      id.find("::") == std::string::npos;
  if (bare_ident && !enclosing_class.empty()) {
    return enclosing_class + "::" + id;
  }
  return id;
}

std::vector<int> Model::Resolve(const std::string& name,
                                int tu_index) const {
  auto it = by_name.find(name);
  if (it == by_name.end()) return {};
  std::vector<int> same_tu;
  for (int idx : it->second) {
    if (functions[static_cast<size_t>(idx)].tu_index == tu_index) {
      same_tu.push_back(idx);
    }
  }
  return same_tu.empty() ? it->second : same_tu;
}

void AddTranslationUnit(const std::string& relative,
                        std::string_view contents, Model* model) {
  const int tu_index = static_cast<int>(model->tus.size());
  model->tus.emplace_back(relative,
                          srctext::StripCommentsAndStrings(contents));
  TranslationUnit& tu = model->tus.back();
  const std::string_view s = tu.stripped;
  const std::vector<ClassRange> classes = FindClassRanges(s);

  // LPSGD_HOT_CALLEE_OK(fn) exemptions, anywhere in the TU.
  {
    const std::string& marker = srctext::HotCalleeOkMarker();
    for (size_t pos = 0; (pos = s.find(marker, pos)) != npos;
         pos += marker.size()) {
      if (!IsWholeWord(s, pos, marker.size())) continue;
      // Skip the macro's own #define (and any preprocessor use).
      size_t line_start = s.rfind('\n', pos);
      line_start = line_start == npos ? 0 : line_start + 1;
      if (s[SkipSpace(s, line_start)] == '#') continue;
      size_t open = SkipSpace(s, pos + marker.size());
      if (open >= s.size() || s[open] != '(') continue;
      size_t after = SkipBalanced(s, open, '(', ')');
      if (after == npos) continue;
      std::string name;
      for (char c : s.substr(open + 1, after - open - 2)) {
        if (std::isspace(static_cast<unsigned char>(c)) == 0) {
          name.push_back(c);
        }
      }
      if (!name.empty()) {
        model->hot_callee_ok.emplace(
            name, std::make_pair(relative, tu.lines.LineAt(pos)));
      }
    }
  }

  // Function definitions.
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '(') continue;
    const size_t name_begin = IdentStartBefore(s, i);
    if (name_begin == npos) continue;
    const std::string name = ReadIdentAt(s, name_begin);
    if (IsKeywordOrBuiltin(name) || LooksLikeMacro(name)) continue;
    if (std::isdigit(static_cast<unsigned char>(name[0])) != 0) continue;

    // Explicit qualification: `Class::Name(...)`.
    std::string qualifier;
    if (name_begin >= 2 && s[name_begin - 1] == ':' &&
        s[name_begin - 2] == ':') {
      size_t qbegin = IdentStartBefore(s, name_begin - 2);
      if (qbegin != npos) qualifier = ReadIdentAt(s, qbegin);
    }

    const size_t params_end = SkipBalanced(s, i, '(', ')');
    if (params_end == npos) continue;

    // Walk the tokens between the parameter list and a possible body.
    size_t p = params_end;
    size_t body_open = npos;
    bool rejected = false;
    while (!rejected && body_open == npos) {
      p = SkipSpace(s, p);
      if (p >= s.size()) {
        rejected = true;
        break;
      }
      const char c = s[p];
      if (c == '{') {
        body_open = p;
        break;
      }
      if (c == ':' && (p + 1 >= s.size() || s[p + 1] != ':')) {
        body_open = SkipInitList(s, p + 1);
        if (body_open == npos) rejected = true;
        break;
      }
      if (c == '-' && p + 1 < s.size() && s[p + 1] == '>') {
        // Trailing return type: the body brace is the next '{' outside
        // any bracket nesting.
        int depth = 0;
        bool done = false;
        for (p += 2; p < s.size(); ++p) {
          const char d = s[p];
          if (d == '(' || d == '<' || d == '[') ++depth;
          if (d == ')' || d == '>' || d == ']') --depth;
          if (depth <= 0 && d == '{') {
            body_open = p;
            done = true;
            break;
          }
          if (depth <= 0 && (d == ';' || d == ',')) {
            rejected = true;
            done = true;
            break;
          }
        }
        if (!done) rejected = true;
        break;
      }
      if (c == '&') {
        ++p;
        if (p < s.size() && s[p] == '&') ++p;
        continue;
      }
      if (IsIdentChar(c)) {
        const std::string word = ReadIdentAt(s, p);
        p += word.size();
        if (word == "const" || word == "noexcept" || word == "override" ||
            word == "final" || word == "mutable" || word == "try" ||
            word == "__attribute__" || word.rfind("LPSGD_", 0) == 0) {
          size_t q = SkipSpace(s, p);
          if (q < s.size() && s[q] == '(') {
            size_t after = SkipBalanced(s, q, '(', ')');
            if (after == npos) {
              rejected = true;
              break;
            }
            p = after;
          }
          continue;
        }
        rejected = true;
        break;
      }
      rejected = true;
      break;
    }
    if (rejected || body_open == npos) continue;

    FunctionDef fn;
    fn.name = name;
    fn.tu_index = tu_index;
    fn.line = tu.lines.LineAt(name_begin);
    fn.body_begin = body_open + 1;
    fn.body_end = MatchBrace(s, body_open);
    const std::string enclosing_class =
        qualifier.empty() ? InnermostClassAt(classes, name_begin)
                          : qualifier;
    fn.qualified = enclosing_class.empty()
                       ? name
                       : enclosing_class + "::" + name;
    for (const srctext::HotRegion& region : tu.hot_regions) {
      if (region.begin == fn.body_begin) {
        fn.hot_marked = true;
        break;
      }
    }
    const std::string_view header =
        s.substr(name_begin, body_open - name_begin);
    CollectAnnotationArgs(header, "LPSGD_REQUIRES", enclosing_class,
                          &fn.requires_locks);
    CollectAnnotationArgs(header, "LPSGD_ACQUIRE", enclosing_class,
                          &fn.acquire_locks);

    const std::string_view body =
        s.substr(fn.body_begin, fn.body_end - fn.body_begin);
    {
      // Call/lock offsets are extracted body-relative; rebase to the TU.
      FunctionDef scratch;
      ExtractCalls(body, &scratch);
      for (CallSite call : scratch.calls) {
        call.offset += fn.body_begin;
        fn.calls.push_back(std::move(call));
      }
      scratch.calls.clear();
      ExtractLocks(body, enclosing_class, &scratch);
      for (LockSite lock : scratch.locks) {
        lock.offset += fn.body_begin;
        lock.scope_end += fn.body_begin;
        fn.locks.push_back(std::move(lock));
      }
    }
    model->functions.push_back(std::move(fn));
  }
}

void FinalizeModel(Model* model) {
  model->by_name.clear();
  for (size_t i = 0; i < model->functions.size(); ++i) {
    model->by_name[model->functions[i].name].push_back(static_cast<int>(i));
  }
}

}  // namespace analyze
}  // namespace lpsgd
