// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "lint/passes.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string_view>
#include <utility>

namespace lpsgd {
namespace lint {
namespace {

constexpr size_t npos = std::string_view::npos;

std::string FileLine(const Model& model, int tu_index, size_t offset) {
  const TranslationUnit& tu = model.tus[static_cast<size_t>(tu_index)];
  return tu.relative + ":" + std::to_string(tu.lines.LineAt(offset));
}

// ---------------------------------------------------------------------------
// Pass 1: hot-path purity.
// ---------------------------------------------------------------------------

// True when the call is exempted by an LPSGD_HOT_CALLEE_OK annotation;
// marks every matching key as consulted.
bool IsExempted(const Model& model, const CallSite& call,
                std::set<std::string>* consulted) {
  bool exempt = false;
  if (model.hot_callee_ok.count(call.callee) > 0) {
    consulted->insert(call.callee);
    exempt = true;
  }
  if (!call.qualifier.empty()) {
    const std::string qualified = call.qualifier + "::" + call.callee;
    if (model.hot_callee_ok.count(qualified) > 0) {
      consulted->insert(qualified);
      exempt = true;
    }
  }
  return exempt;
}

// Exemptions may also name the resolved definition's qualified form
// (`Class::Fn`) even when the call site is unqualified.
bool IsExemptedDef(const Model& model, const FunctionDef& def,
                   std::set<std::string>* consulted) {
  if (model.hot_callee_ok.count(def.qualified) > 0) {
    consulted->insert(def.qualified);
    return true;
  }
  return false;
}

}  // namespace

std::string Finding::ToString() const {
  return file + ":" + std::to_string(line) + ": [" + rule + "] " + message;
}

std::vector<Finding> RunPurityPass(const Model& model) {
  std::vector<Finding> findings;
  std::set<std::string> consulted;
  // (tu, offset) of every reported allocation: a site inside a hot region
  // of a function that is also reachable is reported once, as a region
  // site.
  std::set<std::pair<int, size_t>> reported;
  auto report_alloc = [&](int tu_index, size_t offset,
                          const std::string& message) {
    if (!reported.emplace(tu_index, offset).second) return;
    const TranslationUnit& tu = model.tus[static_cast<size_t>(tu_index)];
    findings.push_back(
        {tu.relative, tu.lines.LineAt(offset), "hot-path-alloc", message});
  };

  for (size_t ti = 0; ti < model.tus.size(); ++ti) {
    const TranslationUnit& tu = model.tus[ti];
    for (const HotRegion& region : tu.hot_regions) {
      const std::string_view body = std::string_view(tu.stripped).substr(
          region.begin, region.end - region.begin);
      for (const AllocationSite& site : ScanAllocations(body)) {
        report_alloc(static_cast<int>(ti), region.begin + site.offset,
                     site.message + " inside an LPSGD_HOT_PATH region");
      }
    }
  }

  // parent[i] = function we reached i from (-1 for a direct hot-region
  // callee); root_caller[i] = display name of the hot function/lambda whose
  // region contains the root call.
  std::map<int, int> parent;
  std::map<int, std::string> root_caller;
  std::deque<int> queue;

  auto enqueue = [&](int target, int from, const std::string& root) {
    if (parent.count(target) > 0) return;
    parent[target] = from;
    if (from < 0) root_caller[target] = root;
    queue.push_back(target);
  };

  // Roots: every call site that sits inside a hot region.
  for (const FunctionDef& fn : model.functions) {
    const TranslationUnit& tu = model.tus[static_cast<size_t>(fn.tu_index)];
    for (const CallSite& call : fn.calls) {
      const bool in_hot = std::any_of(
          tu.hot_regions.begin(), tu.hot_regions.end(),
          [&](const HotRegion& region) {
            return call.offset >= region.begin && call.offset < region.end;
          });
      if (!in_hot || IsExempted(model, call, &consulted)) continue;
      for (int target : model.Resolve(call.callee, fn.tu_index)) {
        const FunctionDef& def = model.functions[static_cast<size_t>(target)];
        if (IsExemptedDef(model, def, &consulted)) continue;
        enqueue(target, -1, fn.qualified);
      }
    }
  }

  auto chain_for = [&](int idx) {
    std::string chain = model.functions[static_cast<size_t>(idx)].qualified;
    int at = idx;
    while (parent.at(at) >= 0) {
      at = parent.at(at);
      chain =
          model.functions[static_cast<size_t>(at)].qualified + " -> " + chain;
    }
    auto root = root_caller.find(at);
    if (root != root_caller.end()) {
      chain = root->second + " [hot] -> " + chain;
    }
    return chain;
  };

  while (!queue.empty()) {
    const int idx = queue.front();
    queue.pop_front();
    const FunctionDef& fn = model.functions[static_cast<size_t>(idx)];
    const TranslationUnit& tu = model.tus[static_cast<size_t>(fn.tu_index)];
    const std::string_view body = std::string_view(tu.stripped).substr(
        fn.body_begin, fn.body_end - fn.body_begin);
    for (const AllocationSite& site : ScanAllocations(body)) {
      report_alloc(fn.tu_index, fn.body_begin + site.offset,
                   site.message + " in " + fn.qualified + ", reachable via " +
                       chain_for(idx));
    }
    for (const CallSite& call : fn.calls) {
      if (IsExempted(model, call, &consulted)) continue;
      for (int target : model.Resolve(call.callee, fn.tu_index)) {
        const FunctionDef& def = model.functions[static_cast<size_t>(target)];
        if (IsExemptedDef(model, def, &consulted)) continue;
        enqueue(target, idx, "");
      }
    }
  }

  // An exemption the walk never needed is stale: either the callee went
  // cold (delete the annotation) or the name rotted (fix it).
  for (const auto& [name, where] : model.hot_callee_ok) {
    if (consulted.count(name) > 0) continue;
    findings.push_back({where.first, where.second, "stale-hot-callee-ok",
                        HotCalleeOkMarker() + "(" + name +
                            ") names a function no hot path calls"});
  }
  return findings;
}

// ---------------------------------------------------------------------------
// Pass 2: lock-order cycles.
// ---------------------------------------------------------------------------

namespace {

// Lock-machinery callees whose effect is already modeled by LockSite
// extraction; following their definitions would alias every caller's mutex
// onto the wrapper's own member and manufacture phantom edges.
bool IsLockMachinery(const std::string& callee) {
  return callee == "MutexLock" || callee == "lock_guard" ||
         callee == "unique_lock" || callee == "scoped_lock" ||
         callee == "Lock" || callee == "Unlock" || callee == "Wait";
}

struct LockGraph {
  // from -> to -> witness ("file:line" of the inner acquisition).
  std::map<std::string, std::map<std::string, std::string>> edges;

  void Add(const std::string& from, const std::string& to,
           const std::string& witness) {
    if (from == to) return;  // self-edges handled by the caller
    edges[from].emplace(to, witness);  // keep the first witness
  }
};

}  // namespace

std::vector<Finding> RunLockOrderPass(const Model& model) {
  std::vector<Finding> findings;

  // Transitive acquisition sets, to a fixed point over the call graph.
  // acquired[i] maps each lock id to a witness string for reporting.
  std::vector<std::map<std::string, std::string>> acquired(
      model.functions.size());
  for (size_t i = 0; i < model.functions.size(); ++i) {
    const FunctionDef& fn = model.functions[i];
    for (const LockSite& site : fn.locks) {
      acquired[i].emplace(site.lock_id,
                          FileLine(model, fn.tu_index, site.offset));
    }
    for (const std::string& id : fn.acquire_locks) {
      acquired[i].emplace(id, FileLine(model, fn.tu_index, fn.body_begin));
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < model.functions.size(); ++i) {
      const FunctionDef& fn = model.functions[i];
      for (const CallSite& call : fn.calls) {
        if (IsLockMachinery(call.callee)) continue;
        for (int target : model.Resolve(call.callee, fn.tu_index)) {
          for (const auto& [id, witness] :
               acquired[static_cast<size_t>(target)]) {
            const std::string via =
                "via " + call.callee + "() at " +
                FileLine(model, fn.tu_index, call.offset);
            if (acquired[i].emplace(id, via).second) changed = true;
          }
        }
      }
    }
  }

  LockGraph graph;
  auto self_deadlock = [&](const FunctionDef& fn, const std::string& id,
                           size_t offset, const std::string& how) {
    const TranslationUnit& tu = model.tus[static_cast<size_t>(fn.tu_index)];
    findings.push_back({tu.relative, tu.lines.LineAt(offset),
                        "lock-order-cycle",
                        id + " re-acquired while already held in " +
                            fn.qualified + " (" + how + ")"});
  };

  for (size_t i = 0; i < model.functions.size(); ++i) {
    const FunctionDef& fn = model.functions[i];

    // Locks the caller already holds on entry cover the whole body.
    for (const std::string& held : fn.requires_locks) {
      for (const LockSite& inner : fn.locks) {
        if (inner.lock_id == held) {
          self_deadlock(fn, held, inner.offset,
                        "LPSGD_REQUIRES(" + held + ") on the definition");
          continue;
        }
        graph.Add(held, inner.lock_id,
                  FileLine(model, fn.tu_index, inner.offset));
      }
      for (const CallSite& call : fn.calls) {
        if (IsLockMachinery(call.callee)) continue;
        for (int target : model.Resolve(call.callee, fn.tu_index)) {
          for (const auto& [id, witness] :
               acquired[static_cast<size_t>(target)]) {
            if (id == held) continue;  // REQUIRES callers re-checked there
            graph.Add(held, id,
                      "via " + call.callee + "() at " +
                          FileLine(model, fn.tu_index, call.offset));
          }
        }
      }
    }

    // Acquisitions nested inside a held scope.
    for (const LockSite& outer : fn.locks) {
      for (const LockSite& inner : fn.locks) {
        if (inner.offset <= outer.offset || inner.offset >= outer.scope_end) {
          continue;
        }
        if (inner.lock_id == outer.lock_id) {
          self_deadlock(fn, outer.lock_id, inner.offset,
                        "outer acquisition at " +
                            FileLine(model, fn.tu_index, outer.offset));
          continue;
        }
        graph.Add(outer.lock_id, inner.lock_id,
                  FileLine(model, fn.tu_index, inner.offset));
      }
      for (const CallSite& call : fn.calls) {
        if (call.offset <= outer.offset || call.offset >= outer.scope_end) {
          continue;
        }
        if (IsLockMachinery(call.callee)) continue;
        for (int target : model.Resolve(call.callee, fn.tu_index)) {
          for (const auto& [id, witness] :
               acquired[static_cast<size_t>(target)]) {
            if (id == outer.lock_id) {
              self_deadlock(fn, id, call.offset,
                            "via " + call.callee + "() at " +
                                FileLine(model, fn.tu_index, call.offset));
              continue;
            }
            graph.Add(outer.lock_id, id,
                      "via " + call.callee + "() at " +
                          FileLine(model, fn.tu_index, call.offset));
          }
        }
      }
    }
  }

  // Cycle detection: DFS with colors; every back edge closes a cycle.
  // Cycles are canonicalized (rotated to start at the smallest id) so each
  // is reported once no matter where the DFS entered it.
  std::set<std::string> reported;
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack;

  std::function<void(const std::string&)> dfs =
      [&](const std::string& node) {
        color[node] = 1;
        stack.push_back(node);
        auto it = graph.edges.find(node);
        if (it != graph.edges.end()) {
          for (const auto& [next, witness] : it->second) {
            if (color[next] == 1) {
              // Recover the cycle from the stack.
              auto at = std::find(stack.begin(), stack.end(), next);
              std::vector<std::string> cycle(at, stack.end());
              auto smallest =
                  std::min_element(cycle.begin(), cycle.end());
              std::rotate(cycle.begin(), smallest, cycle.end());
              std::string label;
              for (const std::string& id : cycle) label += id + " -> ";
              label += cycle.front();
              if (reported.insert(label).second) {
                std::string note;
                for (size_t k = 0; k < cycle.size(); ++k) {
                  const std::string& from = cycle[k];
                  const std::string& to = cycle[(k + 1) % cycle.size()];
                  note += (k > 0 ? "; " : "") + from + " -> " + to +
                          " at " + graph.edges.at(from).at(to);
                }
                // Anchor the finding at the first edge's witness, where an
                // allow comment can suppress it.
                const std::string& w =
                    graph.edges.at(cycle.front()).at(cycle[1 % cycle.size()]);
                const size_t at_pos = w.rfind(" at ");
                const std::string where =
                    at_pos == std::string::npos ? w : w.substr(at_pos + 4);
                const size_t colon = where.rfind(':');
                findings.push_back(
                    {where.substr(0, colon),
                     std::atoi(where.c_str() + colon + 1), "lock-order-cycle",
                     "lock acquisition order cycle " + label + " (" + note +
                         ")"});
              }
            } else if (color[next] == 0) {
              dfs(next);
            }
          }
        }
        stack.pop_back();
        color[node] = 2;
      };
  for (const auto& [node, unused] : graph.edges) {
    if (color[node] == 0) dfs(node);
  }
  return findings;
}

// ---------------------------------------------------------------------------
// Pass 3: status drops.
// ---------------------------------------------------------------------------

namespace {

// A value-producing assignment to a tracked Status variable.
struct StatusAssign {
  size_t offset = 0;    // of the variable name token
  size_t stmt_end = 0;  // offset just past the terminating ';'
  bool interesting = false;  // RHS is not OkStatus()/Status()/{}
};

bool RhsIsTrivial(std::string_view rhs) {
  std::string flat;
  for (char c : rhs) {
    if (std::isspace(static_cast<unsigned char>(c)) == 0) flat.push_back(c);
  }
  return flat.empty() || flat == "{}" || flat.find("OkStatus") != npos ||
         flat == "Status()" || flat == "Status{}";
}

// [begin, end) ranges of loop bodies (for/while/do blocks) inside `body`.
std::vector<std::pair<size_t, size_t>> LoopBlocks(std::string_view body) {
  std::vector<std::pair<size_t, size_t>> out;
  auto match_brace = [&](size_t open) {
    int depth = 0;
    for (size_t i = open; i < body.size(); ++i) {
      if (body[i] == '{') ++depth;
      if (body[i] == '}' && --depth == 0) return i;
    }
    return body.size();
  };
  for (const char* keyword : {"for", "while", "do"}) {
    const size_t klen = std::string_view(keyword).size();
    for (size_t pos = 0; (pos = body.find(keyword, pos)) != npos;
         pos += klen) {
      if (!IsWholeWord(body, pos, klen)) continue;
      size_t p = SkipSpace(body, pos + klen);
      if (p < body.size() && body[p] == '(') {
        int depth = 0;
        for (; p < body.size(); ++p) {
          if (body[p] == '(') ++depth;
          if (body[p] == ')' && --depth == 0) {
            ++p;
            break;
          }
        }
        p = SkipSpace(body, p);
      }
      if (p < body.size() && body[p] == '{') {
        out.emplace_back(p + 1, match_brace(p));
      }
    }
  }
  return out;
}

// End of the innermost block enclosing `at` (offset of its '}'), or
// body.size().
size_t EnclosingBlockEnd(std::string_view body, size_t at) {
  int depth = 0;
  for (size_t i = at; i < body.size(); ++i) {
    if (body[i] == '{') ++depth;
    if (body[i] == '}') {
      if (depth == 0) return i;
      --depth;
    }
  }
  return body.size();
}

}  // namespace

std::vector<Finding> RunStatusDropPass(const Model& model) {
  std::vector<Finding> findings;
  for (const FunctionDef& fn : model.functions) {
    const TranslationUnit& tu = model.tus[static_cast<size_t>(fn.tu_index)];
    const std::string_view body =
        std::string_view(tu.stripped)
            .substr(fn.body_begin, fn.body_end - fn.body_begin);
    const std::vector<std::pair<size_t, size_t>> loops = LoopBlocks(body);

    // Find tracked declarations.
    for (const char* type_name : {"StatusOr", "Status"}) {
      const size_t tlen = std::string_view(type_name).size();
      for (size_t pos = 0; (pos = body.find(type_name, pos)) != npos;
           pos += tlen) {
        if (!IsWholeWord(body, pos, tlen)) continue;
        size_t p = pos + tlen;
        if (std::string_view(type_name) == "StatusOr") {
          p = SkipSpace(body, p);
          if (p >= body.size() || body[p] != '<') continue;
          int depth = 0;
          for (; p < body.size(); ++p) {
            if (body[p] == '<') ++depth;
            if (body[p] == '>' && --depth == 0) {
              ++p;
              break;
            }
          }
        }
        p = SkipSpace(body, p);
        // References/pointers alias a value owned elsewhere — not tracked.
        if (p >= body.size() || !IsIdentChar(body[p]) ||
            std::isdigit(static_cast<unsigned char>(body[p])) != 0) {
          continue;
        }
        size_t name_begin = p;
        while (p < body.size() && IsIdentChar(body[p])) ++p;
        const std::string name(body.substr(name_begin, p - name_begin));
        const size_t scope_end = EnclosingBlockEnd(body, name_begin);

        // Collect assignments (the declaration's initializer plus later
        // `name = ...`) and uses within the scope.
        std::vector<StatusAssign> assigns;
        std::set<size_t> assign_name_offsets;
        {
          size_t q = SkipSpace(body, p);
          StatusAssign first;
          first.offset = name_begin;
          assign_name_offsets.insert(name_begin);
          if (q < body.size() &&
              (body[q] == '=' || body[q] == '(' || body[q] == '{')) {
            const size_t rhs_begin = body[q] == '=' ? q + 1 : q;
            const size_t semi = body.find(';', q);
            first.stmt_end = semi == npos ? scope_end : semi + 1;
            first.interesting = !RhsIsTrivial(
                body.substr(rhs_begin, first.stmt_end - 1 - rhs_begin));
          } else {
            const size_t semi = body.find(';', name_begin);
            first.stmt_end = semi == npos ? scope_end : semi + 1;
            first.interesting = false;  // default-initialized
          }
          assigns.push_back(first);
        }
        for (size_t upos = assigns[0].stmt_end;
             (upos = body.find(name, upos)) != npos && upos < scope_end;
             upos += name.size()) {
          if (!IsWholeWord(body, upos, name.size())) continue;
          size_t q = SkipSpace(body, upos + name.size());
          if (q < body.size() && body[q] == '=' &&
              (q + 1 >= body.size() || body[q + 1] != '=')) {
            StatusAssign a;
            a.offset = upos;
            const size_t semi = body.find(';', q);
            a.stmt_end = semi == npos ? scope_end : semi + 1;
            a.interesting =
                !RhsIsTrivial(body.substr(q + 1, a.stmt_end - 1 - (q + 1)));
            // The RHS may read the previous value (`s = Wrap(s)`): those
            // occurrences still count as uses, found by the use scan below
            // because only the LHS offset is excluded.
            assign_name_offsets.insert(upos);
            assigns.push_back(a);
          }
        }
        std::vector<size_t> uses;
        for (size_t upos = name_begin + name.size();
             (upos = body.find(name, upos)) != npos && upos < scope_end;
             upos += name.size()) {
          if (!IsWholeWord(body, upos, name.size())) continue;
          if (assign_name_offsets.count(upos) > 0) continue;
          uses.push_back(upos);
        }

        for (size_t ai = 0; ai < assigns.size(); ++ai) {
          const StatusAssign& a = assigns[ai];
          if (!a.interesting) continue;
          const size_t window_end =
              ai + 1 < assigns.size() ? assigns[ai + 1].offset : scope_end;
          bool used = false;
          for (size_t u : uses) {
            if (u >= a.stmt_end && u < window_end) {
              used = true;
              break;
            }
          }
          if (!used) {
            // A loop wraps around: a use anywhere in the enclosing loop
            // body observes some iteration's value.
            for (const auto& [lb, le] : loops) {
              if (a.offset < lb || a.offset >= le) continue;
              for (size_t u : uses) {
                if (u >= lb && u < le) {
                  used = true;
                  break;
                }
              }
              if (used) break;
            }
          }
          if (used) continue;
          findings.push_back(
              {tu.relative, tu.lines.LineAt(fn.body_begin + a.offset),
               "status-drop",
               std::string(type_name) + " value assigned to `" + name +
                   "` in " + fn.qualified + " is " +
                   (ai + 1 < assigns.size() ? "overwritten" : "scope-exited") +
                   " without being inspected"});
        }
      }
    }
  }
  return findings;
}

}  // namespace lint
}  // namespace lpsgd
