#include "index.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>

namespace mgtlint {

namespace {

// --------------------------------------------------------------- helpers --

bool in_src(FileKind k) {
  return k == FileKind::kSourceHeader || k == FileKind::kSourceImpl;
}

bool wallclock_source(std::string_view name) {
  return name == "steady_clock" || name == "system_clock" ||
         name == "high_resolution_clock" || name == "clock_gettime" ||
         name == "gettimeofday" || name == "rdtsc" || name == "__rdtsc" ||
         name == "random_device";
}

/// Generic container/observer method names that resolve to many unrelated
/// classes; the unit-flow rule never fires through them (a histogram may
/// legitimately observe picosecond values).
bool generic_method_name(std::string_view name) {
  static const std::set<std::string_view> kGeneric = {
      "observe", "add",     "set",     "record",  "push_back", "emplace_back",
      "insert",  "push",    "emplace", "count",   "resize",    "reserve",
      "fill",    "assign",  "append",  "at",      "store",     "exchange",
  };
  return kGeneric.count(name) != 0U;
}

// ------------------------------------------------------- the symbol index --

/// Facts merged per unqualified function name across every TU. Merging by
/// unqualified name over-approximates (overloads and same-named methods
/// share facts), which is safe for taint (worst case: an extra finding a
/// human reviews) and is compensated in unit-flow by demanding that every
/// known declaration agrees before firing.
struct FuncFact {
  bool returns_value = false;
  // Determinism taint: depth 0 = body reads a clock/rand source itself,
  // depth n = calls a value-returning function of depth n-1.
  int taint_depth = -1;
  std::string taint_source;  // "steady_clock", "rand", ...
  std::string taint_source_file;
  std::size_t taint_source_line = 0;
  std::string taint_via;  // callee that carried the taint (depth > 0)
  // Shared-state mutation: the function writes a namespace-scope variable
  // or a function-local static.
  std::string mutates;  // variable name, "" if none
  std::string mutates_file;
  std::size_t mutates_line = 0;
  std::set<std::string> called;  // union over defs with this name
};

struct DeclSig {
  std::string file;
  FileKind kind;
  std::size_t line;
  std::vector<Param> params;
};

struct Index {
  std::map<std::string, FuncFact> facts;
  std::map<std::string, std::vector<DeclSig>> decls;
  std::set<std::string> unit_types;
};

/// Direct taint: does this body read a nondeterminism source? Fills
/// source/file/line on the first hit.
/// Names declared with std::atomic anywhere in the buffer. Mutating an
/// atomic from parallel tasks is race-free (and the repo only uses atomics
/// for commutative counters), so the mutation family exempts them.
std::set<std::string> atomic_names(const ParsedFile& f) {
  std::set<std::string> out;
  const auto& toks = f.lexed.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || toks[i].text != "atomic") {
      continue;
    }
    // atomic<int> name{0};  /  atomic_bool name = ...;
    std::size_t k = i + 1;
    if (k < toks.size() && toks[k].text == "<") {
      int depth = 0;
      for (; k < toks.size(); ++k) {
        if (toks[k].text == "<") {
          ++depth;
        } else if (toks[k].text == ">" && --depth == 0) {
          ++k;
          break;
        }
      }
    }
    if (k < toks.size() && toks[k].kind == TokKind::kIdent) {
      out.insert(std::string(toks[k].text));
    }
  }
  return out;
}

bool scan_direct_taint(const ParsedFile& f, const FunctionInfo& fn,
                       FuncFact& fact) {
  const auto& toks = f.lexed.tokens;
  for (std::size_t i = fn.body_begin; i < fn.body_end && i < toks.size();
       ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) {
      continue;
    }
    const bool member = i > 0 && (toks[i - 1].text == "." ||
                                  toks[i - 1].text == "->");
    const bool call_next =
        i + 1 < toks.size() && toks[i + 1].text == "(";
    const bool libc_source =
        (t.text == "time" || t.text == "rand" || t.text == "srand") &&
        call_next && !member;
    if (wallclock_source(t.text) || libc_source) {
      fact.taint_depth = 0;
      fact.taint_source = std::string(t.text);
      fact.taint_source_file = repo_relative(f.path);
      fact.taint_source_line = t.line;
      return true;
    }
  }
  return false;
}

Index build_index(const std::vector<ParsedUnit>& units) {
  Index idx;
  // Builtin seed: the strong types of util/units.hpp, so the rules work
  // even when units.hpp is outside the linted file set.
  for (const char* t : {"Picoseconds", "Millivolts", "Gigahertz",
                        "UnitIntervals", "MvPerPs", "GbitsPerSec"}) {
    idx.unit_types.insert(t);
  }
  for (const auto& u : units) {
    for (const auto& t : u.parsed.unit_types) {
      idx.unit_types.insert(t);
    }
    const std::set<std::string> atomics = atomic_names(u.parsed);
    for (const auto& fn : u.parsed.functions) {
      FuncFact& fact = idx.facts[fn.name];
      if (!fn.returns_void) {
        fact.returns_value = true;
      }
      fact.called.insert(fn.called.begin(), fn.called.end());
      if (fn.has_body && fact.taint_depth != 0) {
        scan_direct_taint(u.parsed, fn, fact);
      }
      if (fact.mutates.empty()) {
        if (!fn.writes_global.empty() &&
            atomics.count(fn.writes_global) == 0U) {
          fact.mutates = fn.writes_global;
          fact.mutates_file = repo_relative(u.parsed.path);
          fact.mutates_line = fn.line;
        } else if (!fn.writes_static_local.empty() &&
                   atomics.count(fn.writes_static_local) == 0U) {
          fact.mutates = fn.writes_static_local;
          fact.mutates_file = repo_relative(u.parsed.path);
          fact.mutates_line = fn.line;
        }
      }
      idx.decls[fn.name].push_back({u.parsed.path, u.kind, fn.line,
                                    fn.params});
    }
  }
  // Transitive taint: caller inherits taint from any value-returning
  // callee. Bounded fixpoint — depth beyond a handful adds no information.
  for (int pass = 0; pass < 8; ++pass) {
    bool changed = false;
    for (auto& [name, fact] : idx.facts) {
      for (const auto& callee : fact.called) {
        const auto it = idx.facts.find(callee);
        if (it == idx.facts.end() || it->second.taint_depth < 0 ||
            !it->second.returns_value || callee == name) {
          continue;
        }
        const int depth = it->second.taint_depth + 1;
        if (fact.taint_depth < 0 || depth < fact.taint_depth) {
          fact.taint_depth = depth;
          fact.taint_source = it->second.taint_source;
          fact.taint_source_file = it->second.taint_source_file;
          fact.taint_source_line = it->second.taint_source_line;
          fact.taint_via = callee;
          changed = true;
        }
      }
    }
    if (!changed) {
      break;
    }
  }
  return idx;
}

// ---------------------------------------------------------- rule running --

class ProjectRules {
 public:
  explicit ProjectRules(const std::vector<ParsedUnit>& units)
      : units_(units), idx_(build_index(units)) {}

  std::vector<Diagnostic> run() {
    for (const auto& u : units_) {
      check_parallel_lambdas(u);
      check_sinks(u);
      check_unit_flow(u);
    }
    return std::move(diags_);
  }

 private:
  void report(const ParsedUnit& u, std::size_t line, std::size_t column,
              std::string_view rule, std::string message) {
    const auto it = u.parsed.lexed.allow.find(line);
    if (it != u.parsed.lexed.allow.end() &&
        it->second.count(std::string(rule))) {
      return;
    }
    diags_.push_back(
        {u.parsed.path, line, column, std::string(rule), std::move(message)});
  }

  // --- family 1: parallel-capture discipline ---

  static bool is_parallel_submit(const LambdaSite& lam) {
    if (lam.passed_to == "parallel_for" || lam.passed_to == "parallel_map" ||
        lam.passed_to == "parallel_ordered_reduce") {
      return true;
    }
    // ThreadPool::run(n, task) / executor submit().
    return (lam.passed_to == "run" || lam.passed_to == "submit") &&
           lam.passed_member;
  }

  void check_parallel_lambdas(const ParsedUnit& u) {
    std::set<std::string> tu_globals;
    for (const auto& g : u.parsed.globals) {
      tu_globals.insert(g.name);
    }
    const std::set<std::string> atomics = atomic_names(u.parsed);
    for (std::size_t li = 0; li < u.parsed.lambdas.size(); ++li) {
      const LambdaSite& lam = u.parsed.lambdas[li];
      if (!is_parallel_submit(lam)) {
        continue;
      }
      // (a) Direct mutation of shared state in the body. Writes through a
      // `[index]` subscript never land here: that is the sanctioned
      // per-task-slot idiom of parallel_ordered_reduce.
      for (const auto& w : lam.unsubscripted_writes) {
        if (atomics.count(w) != 0U) {
          continue;  // race-free by construction
        }
        const bool ref_captured =
            lam.default_ref ||
            std::find(lam.ref_captures.begin(), lam.ref_captures.end(), w) !=
                lam.ref_captures.end();
        const bool copy_captured =
            std::find(lam.copy_captures.begin(), lam.copy_captures.end(),
                      w) != lam.copy_captures.end();
        if (copy_captured) {
          continue;  // mutable copy: task-local, deterministic
        }
        if (ref_captured) {
          report(u, lam.line, lam.column, rules::kParallelMutation,
                 "lambda passed to " + lam.passed_to +
                     " mutates captured '" + w +
                     "' without per-task indexing; write to a per-task slot "
                     "('" + w + "[task]') and reduce in index order");
        } else if (tu_globals.count(w) != 0U) {
          report(u, lam.line, lam.column, rules::kParallelMutation,
                 "lambda passed to " + lam.passed_to +
                     " mutates file-scope '" + w +
                     "'; shared state under the pool races and breaks "
                     "serial==parallel identity");
        }
      }
      // (b) Call-mediated mutation: the body calls a function — possibly
      // defined in another translation unit — that writes a TU global or a
      // local static. This is the class a per-file linter provably cannot
      // see.
      for (const auto& cs : u.parsed.calls) {
        if (cs.lambda != static_cast<int>(li) || cs.member) {
          continue;
        }
        const auto it = idx_.facts.find(cs.callee);
        if (it == idx_.facts.end() || it->second.mutates.empty()) {
          continue;
        }
        report(u, cs.line, cs.column, rules::kParallelMutation,
               "lambda passed to " + lam.passed_to + " calls '" + cs.callee +
                   "' which writes shared state '" + it->second.mutates +
                   "' (" + it->second.mutates_file + ":" +
                   std::to_string(it->second.mutates_line) +
                   "); tasks must only touch per-task slots and task_rng "
                   "streams");
      }
    }
  }

  // --- family 2: determinism escape (nondet flow into sinks) ---

  /// Deterministic sinks: obs metric updates and Rng seeding. profile_add
  /// is deliberately absent — it is the quarantined wall-clock channel.
  bool is_sink_call(const ParsedUnit& u, const CallSite& cs) const {
    if (!cs.member) {
      return cs.callee == "add_counter" || cs.callee == "set_gauge" ||
             cs.callee == "observe" || cs.callee == "record_span" ||
             cs.callee == "Rng" || cs.callee == "task_rng" ||
             cs.callee == "mix_seed";
    }
    if (cs.callee != "add" && cs.callee != "set" && cs.callee != "observe") {
      return false;
    }
    // `registry().counter("x").add(v)`: walk back over the accessor's
    // balanced parens to the identifier naming it.
    const auto& toks = u.parsed.lexed.tokens;
    if (cs.tok < 2 || toks[cs.tok - 2].text != ")") {
      return false;
    }
    std::size_t k = cs.tok - 2;
    int depth = 0;
    while (true) {
      if (toks[k].text == ")") {
        ++depth;
      } else if (toks[k].text == "(" && --depth == 0) {
        break;
      }
      if (k == 0) {
        return false;
      }
      --k;
    }
    return k >= 1 && (toks[k - 1].text == "counter" ||
                      toks[k - 1].text == "gauge" ||
                      toks[k - 1].text == "histogram");
  }

  void check_sinks(const ParsedUnit& u) {
    if (!in_src(u.kind) && u.kind != FileKind::kExampleFile) {
      return;  // sinks only matter where deterministic outputs are produced
    }
    const auto& toks = u.parsed.lexed.tokens;
    for (const auto& cs : u.parsed.calls) {
      if (!is_sink_call(u, cs)) {
        continue;
      }
      for (const auto& arg : cs.args) {
        // A call inside the argument whose (transitive) body reads a
        // nondeterminism source poisons the sink.
        for (std::size_t k = arg.first_tok;
             k < arg.first_tok + arg.ntoks && k < toks.size(); ++k) {
          if (toks[k].kind != TokKind::kIdent ||
              k + 1 >= toks.size() || toks[k + 1].text != "(") {
            continue;
          }
          const auto it = idx_.facts.find(std::string(toks[k].text));
          if (it == idx_.facts.end() || it->second.taint_depth < 0 ||
              !it->second.returns_value) {
            continue;
          }
          const FuncFact& fact = it->second;
          std::string chain = "'" + std::string(toks[k].text) + "'";
          if (!fact.taint_via.empty()) {
            chain += " (via '" + fact.taint_via + "')";
          }
          report(u, cs.line, cs.column, rules::kNondetFlow,
                 "deterministic sink '" + cs.callee + "' consumes " + chain +
                     " which derives from '" + fact.taint_source + "' (" +
                     fact.taint_source_file + ":" +
                     std::to_string(fact.taint_source_line) +
                     "); wall-clock/rand values must stay in the profile "
                     "quarantine");
          break;  // one finding per sink argument list is enough
        }
      }
    }
  }

  // --- family 3: unit-safety flow across declarations ---

  void check_unit_flow(const ParsedUnit& u) {
    if (!in_src(u.kind) && u.kind != FileKind::kExampleFile) {
      return;
    }
    for (const auto& cs : u.parsed.calls) {
      if (generic_method_name(cs.callee)) {
        continue;
      }
      const auto dit = idx_.decls.find(cs.callee);
      if (dit == idx_.decls.end()) {
        continue;
      }
      for (std::size_t a = 0; a < cs.args.size(); ++a) {
        const CallArg& arg = cs.args[a];
        if (arg.unit_hint.empty()) {
          continue;
        }
        // Every known declaration with enough parameters must agree that
        // this position is a raw double, and at least one of them must sit
        // in a header (the public API surface). Disagreement or a strong
        // type anywhere → no finding.
        bool header_decl = false;
        bool all_raw_double = true;
        std::size_t considered = 0;
        const DeclSig* example = nullptr;
        for (const auto& d : dit->second) {
          if (a >= d.params.size()) {
            continue;
          }
          ++considered;
          const std::string& ty = d.params[a].type;
          if (ty != "double" && ty != "float") {
            all_raw_double = false;
            break;
          }
          // src/util/ is the unit-agnostic numeric substrate (rng, digest,
          // hashing): raw doubles there are the contract, not an omission.
          if (d.kind == FileKind::kSourceHeader &&
              repo_relative(d.file).rfind("src/util/", 0) != 0) {
            header_decl = true;
            example = &d;
          }
        }
        if (considered == 0 || !all_raw_double || !header_decl) {
          continue;
        }
        report(u, cs.line, cs.column, rules::kUnitFlow,
               "unit-carrying value (" + arg.unit_hint + ") passed to raw "
                   "double parameter " + std::to_string(a + 1) + " of '" +
                   cs.callee + "' (" + repo_relative(example->file) + ":" +
                   std::to_string(example->line) +
                   "); take " + arg.unit_hint + " in the API so the unit "
                   "survives the call boundary");
      }
    }
  }

  const std::vector<ParsedUnit>& units_;
  Index idx_;
  std::vector<Diagnostic> diags_;
};

}  // namespace

std::vector<Diagnostic> run_project_rules(
    const std::vector<ParsedUnit>& units) {
  return ProjectRules(units).run();
}

}  // namespace mgtlint
