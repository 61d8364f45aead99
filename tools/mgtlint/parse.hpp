// mgtlint parse layer: lexer + a lightweight heuristic C++ parser.
//
// v1 of mgtlint was a pure token scanner; the cross-TU rules of v2 need a
// little more shape: which functions exist (with qualified names and
// parameter lists), what each body calls, which lambdas are handed to the
// parallel layer and what they capture/mutate, and which namespace-scope
// mutable variables a translation unit owns. This header provides exactly
// that — a best-effort single-pass parse, not a conforming C++ front end.
// Rules built on it must therefore be written to fail *silent* (no finding)
// when the parse is unsure, never to fail noisy.
//
// Lifetime: Token::text is a view into the source buffer. ParsedFile pins
// the buffer via a shared_ptr so parsed units can be moved around freely.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace mgtlint {

// ------------------------------------------------------------------ lexer --

enum class TokKind { kIdent, kNumber, kPunct, kString };

struct Token {
  TokKind kind;
  std::string_view text;
  std::size_t line;
  std::size_t column;
};

/// Lexer output: tokens plus the per-line suppression table built from
/// `// mgtlint:allow(rule-a, rule-b)` comments. An allow comment suppresses
/// matching findings on the line the directive appears on and on the
/// following line, so it works both trailing the offending code and on the
/// line above it. Inside a multi-line /* */ comment the directive is
/// attributed to the line it is *written* on, not the comment's first line.
struct LexResult {
  std::vector<Token> tokens;
  std::map<std::size_t, std::set<std::string>> allow;  // line -> rule ids
};

LexResult lex(std::string_view src);

// ----------------------------------------------------------------- parser --

/// One declared parameter of a function. `type` is the last type-ish
/// identifier of the parameter's declarator ("Picoseconds", "double"),
/// which is what the unit-flow rules key on.
struct Param {
  std::string type;
  std::string name;
  bool is_const = false;
  bool is_reference = false;
  bool is_pointer = false;
  bool has_default = false;
};

/// One top-level argument of a call site, summarized for the flow rules.
struct CallArg {
  std::size_t first_tok = 0;  // token index into ParsedFile::lexed.tokens
  std::size_t ntoks = 0;
  bool bare_number = false;  // a plain numeric literal (no unit suffix)
  /// Strong unit type implied by the argument's spelling: `t.ps()` implies
  /// Picoseconds, an identifier ending in `_mv` implies Millivolts, ...
  /// Empty when the argument carries no unit evidence.
  std::string unit_hint;
};

struct CallSite {
  std::string callee;     // unqualified name
  std::string qualifier;  // identifier left of a `::` ("util", "obs"), or ""
  bool member = false;    // preceded by `.` or `->`
  std::size_t tok = 0;    // token index of the callee identifier
  std::size_t line = 0;
  std::size_t column = 0;
  std::vector<CallArg> args;
  int lambda = -1;    // index into ParsedFile::lambdas when inside one
  int function = -1;  // index into ParsedFile::functions whose body holds it
};

/// A lambda expression and what the parallel-discipline rules need from it.
struct LambdaSite {
  bool default_ref = false;   // [&]
  bool default_copy = false;  // [=]
  std::vector<std::string> ref_captures;   // [&x] explicit by-ref captures
  std::vector<std::string> copy_captures;  // [x] explicit by-value captures
  std::string index_param;  // first parameter name (the task index, if any)
  std::string passed_to;    // callee of the enclosing call, or ""
  std::string passed_qualifier;  // qualifier of that callee ("util", ...)
  bool passed_member = false;    // enclosing call was a member call (.run())
  std::size_t tok = 0;  // token index of the `[` introducer
  std::size_t line = 0;
  std::size_t column = 0;
  std::size_t body_begin = 0;  // token range of the body, [begin, end)
  std::size_t body_end = 0;
  /// Identifiers assigned / compound-assigned / incremented in the body
  /// without an index subscript, excluding the lambda's own parameters and
  /// locals it declares. These are the shared-mutation suspects.
  std::vector<std::string> unsubscripted_writes;
};

struct FunctionInfo {
  std::string name;       // unqualified ("render_chunk")
  std::string qualified;  // best-effort scope-qualified ("signal::render_chunk")
  std::size_t tok = 0;    // token index of the name
  std::size_t line = 0;
  std::vector<Param> params;
  bool has_body = false;
  bool returns_void = false;
  bool is_member = false;  // declared at class scope or with A::b qualifier
  std::size_t body_begin = 0;  // token range of the body, [begin, end)
  std::size_t body_end = 0;
  /// Unqualified names of non-member functions the body calls.
  std::set<std::string> called;
  /// Body writes a namespace-scope mutable variable of this TU (the named
  /// one), or "" when it doesn't. Cross-file callers of such functions from
  /// parallel lambdas are the races a per-file linter cannot see.
  std::string writes_global;
  std::size_t writes_global_line = 0;
  /// Body declares and mutates a function-local `static` — shared state in
  /// disguise, same hazard as a global under parallel_for.
  std::string writes_static_local;
};

/// Namespace-scope (or file-static) mutable variable.
struct GlobalVar {
  std::string name;
  std::size_t line = 0;
};

struct ParsedFile {
  std::string path;
  std::shared_ptr<const std::string> source;  // pins Token::text views
  LexResult lexed;
  std::vector<FunctionInfo> functions;
  std::vector<CallSite> calls;
  std::vector<LambdaSite> lambdas;
  std::vector<GlobalVar> globals;
  /// Names of structs/classes declared in this file that derive from the
  /// strong-unit CRTP base (`detail::Scalar<...>`), e.g. Picoseconds.
  std::vector<std::string> unit_types;
};

/// Parses one buffer. Never fails: on confusing input the result simply
/// carries fewer facts.
ParsedFile parse_source(std::string path, std::string content);

/// Strong unit type implied by a unit-suffixed identifier (`delay_ps` ->
/// "Picoseconds") or by a unit accessor name (`ps` -> "Picoseconds").
/// Returns "" when the name implies nothing.
std::string unit_from_suffix(std::string_view ident);
std::string unit_from_accessor(std::string_view accessor);

}  // namespace mgtlint
