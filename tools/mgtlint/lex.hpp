// mgtlint lexer: the one pass every rule reads.
//
// Turns a buffer into tokens with 1-based line/column positions and
// collects the `// mgtlint:allow(...)` suppression table on the way.
// Comments, string/char literals and #include/#pragma operands never reach
// the rules. This is a lexer for linting, not a conforming C++ one: it
// knows just enough (raw strings, digit separators, exponents) to keep
// literal text from masking or faking code.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace mgtlint {

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

/// Strong unit type implied by a unit-suffixed identifier (`delay_ps` ->
/// "Picoseconds"). Returns "" when the name implies nothing.
std::string unit_from_suffix(std::string_view ident);

}  // namespace mgtlint
