// mgtlint parse layer: lexer + a lightweight heuristic C++ parser.
//
// The lexer serves every rule. The parser exists for the one cross-TU rule,
// unit-flow-raw-double, and records exactly what that rule reads: each
// function declaration's name and parameter types, and each call site's
// callee plus the unit its arguments imply. Calls inside lambda bodies are
// recorded like any other. This is a best-effort single-pass parse, not a
// conforming C++ front end; the rule built on it must therefore fail
// *silent* (no finding) when the parse is unsure, never noisy.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace mgtlint {

// ------------------------------------------------------------------ lexer --

enum class TokKind { kIdent, kNumber, kPunct, kString };

/// `text` is a view into the lexed buffer, which must outlive the token.
struct Token {
  TokKind kind;
  std::string_view text;
  std::size_t line;
  std::size_t column;
};

/// Per-line suppression table built from `// mgtlint:allow(rule-a, rule-b)`
/// comments: line -> rule ids.
using AllowTable = std::map<std::size_t, std::set<std::string>>;

/// Lexer output: tokens plus the suppression table. An allow comment
/// suppresses matching findings on the line the directive appears on and on
/// the following line, so it works both trailing the offending code and on
/// the line above it. Inside a multi-line /* */ comment the directive is
/// attributed to the line it is *written* on, not the comment's first line.
struct LexResult {
  std::vector<Token> tokens;
  AllowTable allow;
};

LexResult lex(std::string_view src);

// ----------------------------------------------------------------- parser --

/// A function declaration or definition.
struct FunctionInfo {
  std::string name;  // unqualified ("render_chunk")
  std::size_t line = 0;
  /// Per parameter, the last type-ish identifier of its declarator
  /// ("Picoseconds", "double"); "" when the parameter has none.
  std::vector<std::string> param_types;
};

struct CallSite {
  std::string callee;  // unqualified name
  std::size_t line = 0;
  std::size_t column = 0;
  /// Per top-level argument, the strong unit type its spelling implies:
  /// `t.ps()` implies Picoseconds, an identifier ending in `_mv` implies
  /// Millivolts, ... Empty when the argument carries no unit evidence.
  std::vector<std::string> arg_units;
};

struct ParsedFile {
  std::string path;
  AllowTable allow;
  std::vector<FunctionInfo> functions;
  std::vector<CallSite> calls;
};

/// Parses one buffer. Never fails: on confusing input the result simply
/// carries fewer facts.
ParsedFile parse_source(std::string path, std::string_view content);

/// Strong unit type implied by a unit-suffixed identifier (`delay_ps` ->
/// "Picoseconds"). Returns "" when the name implies nothing.
std::string unit_from_suffix(std::string_view ident);

}  // namespace mgtlint
