#include "parse.hpp"

#include <algorithm>
#include <cctype>

namespace mgtlint {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Registers the rules named in an allow directive found in `comment`.
/// `comment_line` is the line the comment *starts* on; the directive itself
/// is attributed to the line it appears on inside the comment, so an allow
/// written at the end of a multi-line /* */ block suppresses the code that
/// follows the block rather than the code next to the block's first line.
void parse_allow(std::string_view comment, std::size_t comment_line,
                 LexResult& out) {
  const std::string_view tag = "mgtlint:allow(";
  const auto pos = comment.find(tag);
  if (pos == std::string_view::npos) {
    return;
  }
  const std::size_t line =
      comment_line +
      static_cast<std::size_t>(
          std::count(comment.begin(), comment.begin() + pos, '\n'));
  const auto open = pos + tag.size();
  const auto close = comment.find(')', open);
  if (close == std::string_view::npos) {
    return;
  }
  std::string_view list = comment.substr(open, close - open);
  while (!list.empty()) {
    const auto comma = list.find(',');
    std::string_view item = list.substr(0, comma);
    while (!item.empty() &&
           std::isspace(static_cast<unsigned char>(item.front()))) {
      item.remove_prefix(1);
    }
    while (!item.empty() &&
           std::isspace(static_cast<unsigned char>(item.back()))) {
      item.remove_suffix(1);
    }
    if (!item.empty()) {
      out.allow[line].insert(std::string(item));
      out.allow[line + 1].insert(std::string(item));
    }
    if (comma == std::string_view::npos) {
      break;
    }
    list.remove_prefix(comma + 1);
  }
}

}  // namespace

LexResult lex(std::string_view src) {
  LexResult out;
  std::size_t i = 0;
  std::size_t line = 1;
  std::size_t col = 1;
  bool at_line_start = true;

  auto advance = [&](std::size_t n) {
    for (std::size_t k = 0; k < n && i < src.size(); ++k, ++i) {
      if (src[i] == '\n') {
        ++line;
        col = 1;
        at_line_start = true;
      } else {
        ++col;
      }
    }
  };

  while (i < src.size()) {
    const char c = src[i];
    if (c == '\n' || std::isspace(static_cast<unsigned char>(c))) {
      advance(1);
      continue;
    }
    // Preprocessor: swallow #include/#pragma lines whole (their operands
    // are paths/pragmas, not code); other directives lex normally so
    // #define bodies stay checked.
    if (c == '#' && at_line_start) {
      std::size_t j = i + 1;
      while (j < src.size() &&
             std::isspace(static_cast<unsigned char>(src[j])) &&
             src[j] != '\n') {
        ++j;
      }
      std::size_t k = j;
      while (k < src.size() && ident_char(src[k])) {
        ++k;
      }
      const std::string_view kw = src.substr(j, k - j);
      if (kw == "include" || kw == "pragma") {
        while (i < src.size() && src[i] != '\n') {
          advance(1);
        }
        continue;
      }
      out.tokens.push_back({TokKind::kPunct, src.substr(i, 1), line, col});
      advance(1);
      at_line_start = false;
      continue;
    }
    at_line_start = false;
    // Comments (and allow directives).
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
      const std::size_t start = i;
      const std::size_t start_line = line;
      while (i < src.size() && src[i] != '\n') {
        advance(1);
      }
      parse_allow(src.substr(start, i - start), start_line, out);
      continue;
    }
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '*') {
      const std::size_t start = i;
      const std::size_t start_line = line;
      advance(2);
      while (i + 1 < src.size() && !(src[i] == '*' && src[i + 1] == '/')) {
        advance(1);
      }
      advance(2);
      parse_allow(src.substr(start, i - start), start_line, out);
      continue;
    }
    // Raw strings: R"delim( ... )delim".
    if (c == 'R' && i + 1 < src.size() && src[i + 1] == '"') {
      std::size_t j = i + 2;
      while (j < src.size() && src[j] != '(' && src[j] != '"' &&
             src[j] != '\n') {
        ++j;
      }
      if (j < src.size() && src[j] == '(') {
        const std::string close =
            ")" + std::string(src.substr(i + 2, j - (i + 2))) + "\"";
        const auto end = src.find(close, j + 1);
        const std::size_t stop =
            end == std::string_view::npos ? src.size() : end + close.size();
        out.tokens.push_back(
            {TokKind::kString, src.substr(i, stop - i), line, col});
        advance(stop - i);
        continue;
      }
    }
    // String / char literals.
    if (c == '"' || c == '\'') {
      const char quote = c;
      const std::size_t start = i;
      const std::size_t start_line = line;
      const std::size_t start_col = col;
      advance(1);
      while (i < src.size() && src[i] != quote) {
        advance(src[i] == '\\' ? 2 : 1);
      }
      advance(1);
      out.tokens.push_back({TokKind::kString, src.substr(start, i - start),
                            start_line, start_col});
      continue;
    }
    if (ident_start(c)) {
      const std::size_t start = i;
      const std::size_t start_col = col;
      while (i < src.size() && ident_char(src[i])) {
        advance(1);
      }
      out.tokens.push_back({TokKind::kIdent, src.substr(start, i - start),
                            line, start_col});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      const std::size_t start = i;
      const std::size_t start_col = col;
      while (i < src.size() &&
             (ident_char(src[i]) || src[i] == '.' ||
              ((src[i] == '+' || src[i] == '-') && i > start &&
               (src[i - 1] == 'e' || src[i - 1] == 'E' ||
                src[i - 1] == 'p' || src[i - 1] == 'P')))) {
        advance(1);
      }
      out.tokens.push_back({TokKind::kNumber, src.substr(start, i - start),
                            line, start_col});
      continue;
    }
    // Multi-char punctuation we care about: -> and ::.
    if (c == '-' && i + 1 < src.size() && src[i + 1] == '>') {
      out.tokens.push_back({TokKind::kPunct, src.substr(i, 2), line, col});
      advance(2);
      continue;
    }
    if (c == ':' && i + 1 < src.size() && src[i + 1] == ':') {
      out.tokens.push_back({TokKind::kPunct, src.substr(i, 2), line, col});
      advance(2);
      continue;
    }
    out.tokens.push_back({TokKind::kPunct, src.substr(i, 1), line, col});
    advance(1);
  }
  return out;
}

// ----------------------------------------------------------- unit lookups --

std::string unit_from_suffix(std::string_view ident) {
  struct Entry {
    std::string_view suffix;
    std::string_view type;
  };
  static constexpr Entry kMap[] = {
      {"_ps", "Picoseconds"},   {"_mv", "Millivolts"},
      {"_ghz", "Gigahertz"},    {"_gbps", "GbitsPerSec"},
      {"_ui", "UnitIntervals"},
  };
  for (const auto& e : kMap) {
    if (ident.size() > e.suffix.size() && ident.ends_with(e.suffix)) {
      return std::string(e.type);
    }
  }
  return {};
}

namespace {

/// Strong unit type implied by a unit accessor name (`ps` -> "Picoseconds").
std::string unit_from_accessor(std::string_view accessor) {
  struct Entry {
    std::string_view name;
    std::string_view type;
  };
  static constexpr Entry kMap[] = {
      {"ps", "Picoseconds"},     {"ns", "Picoseconds"},
      {"us", "Picoseconds"},     {"mv", "Millivolts"},
      {"volts", "Millivolts"},   {"ghz", "Gigahertz"},
      {"mhz", "Gigahertz"},      {"ui", "UnitIntervals"},
      {"mv_per_ps", "MvPerPs"},  {"gbps", "GbitsPerSec"},
      {"mbps", "GbitsPerSec"},
  };
  for (const auto& e : kMap) {
    if (accessor == e.name) {
      return std::string(e.type);
    }
  }
  return {};
}

// ----------------------------------------------------------------- parser --

bool is_keyword(std::string_view s) {
  static const std::set<std::string_view> kKeywords = {
      "if",       "for",      "while",   "switch",   "return",  "catch",
      "sizeof",   "alignof",  "new",     "delete",   "throw",   "case",
      "do",       "else",     "goto",    "break",    "continue", "co_return",
      "static_cast", "const_cast", "dynamic_cast", "reinterpret_cast",
      "static_assert", "decltype", "noexcept", "alignas", "typeid",
  };
  return kKeywords.count(s) != 0U;
}

bool is_type_decoration(std::string_view s) {
  return s == "const" || s == "constexpr" || s == "volatile" ||
         s == "static" || s == "inline" || s == "unsigned" || s == "signed" ||
         s == "typename" || s == "mutable" || s == "register" ||
         s == "thread_local";
}

/// The parser proper: a single forward walk with explicit recursion for
/// namespace / class scopes. Everything it cannot place it skips; the goal
/// is facts-with-locations, not a syntax tree.
class Parser {
 public:
  Parser(ParsedFile& out, const std::vector<Token>& toks)
      : out_(out), toks_(toks) {}

  void run() { parse_scope(0, toks_.size()); }

 private:
  const Token& tok(std::size_t i) const { return toks_[i]; }
  std::size_t n() const { return toks_.size(); }
  std::string_view text(std::size_t i) const {
    return i < n() ? toks_[i].text : std::string_view{};
  }

  /// Index just past the group opened by the bracket at `i` ('(' '[' '{').
  /// Angle brackets are not matched here (ambiguous with comparisons);
  /// callers that need template args handle '<' themselves.
  std::size_t skip_group(std::size_t i) const {
    const std::string_view open = text(i);
    std::string_view close;
    if (open == "(") {
      close = ")";
    } else if (open == "[") {
      close = "]";
    } else if (open == "{") {
      close = "}";
    } else {
      return i + 1;
    }
    int depth = 0;
    for (; i < n(); ++i) {
      if (text(i) == open) {
        ++depth;
      } else if (text(i) == close && --depth == 0) {
        return i + 1;
      }
    }
    return n();
  }

  /// Best-effort skip of a template argument group starting at '<'.
  std::size_t skip_angles(std::size_t i) const {
    int depth = 0;
    for (; i < n(); ++i) {
      const std::string_view x = text(i);
      if (x == "<") {
        ++depth;
      } else if (x == ">") {
        if (--depth <= 0) {
          return i + 1;
        }
      } else if (x == ";" || x == "{") {
        return i;  // gave up: it was a comparison after all
      }
    }
    return n();
  }

  // ---- declaration scope (namespace or class body) ----

  void parse_scope(std::size_t begin, std::size_t end) {
    std::size_t i = begin;
    std::size_t stmt = begin;  // first token of the current declaration
    while (i < end) {
      const std::string_view x = text(i);
      if (x == "namespace") {
        // `namespace a::b {` or `namespace {`.
        std::size_t j = i + 1;
        while (j < end && (tok(j).kind == TokKind::kIdent || text(j) == "::")) {
          ++j;
        }
        if (j < end && text(j) == "{") {
          const std::size_t close = skip_group(j);
          parse_scope(j + 1, close - 1);
          i = stmt = close;
          continue;
        }
        i = j + 1;
        continue;
      }
      if ((x == "class" || x == "struct") && i + 1 < end &&
          tok(i + 1).kind == TokKind::kIdent &&
          (i == begin || text(i - 1) != "enum")) {
        i = stmt = parse_class(i, end);
        continue;
      }
      if (x == "enum") {
        // Skip `enum [class] Name [: base] { ... };` or fwd decl.
        std::size_t j = i + 1;
        while (j < end && text(j) != "{" && text(j) != ";") {
          ++j;
        }
        i = stmt = text(j) == "{" ? skip_group(j) : j + 1;
        continue;
      }
      if (x == "template") {
        i = text(i + 1) == "<" ? skip_angles(i + 1) : i + 1;
        continue;
      }
      if (x == "using" || x == "typedef" || x == "friend" ||
          x == "extern") {
        // `extern "C" { ... }` keeps its block parsed; aliases skip to ';'.
        if (x == "extern" && i + 1 < end &&
            tok(i + 1).kind == TokKind::kString && text(i + 2) == "{") {
          i = i + 3;
          stmt = i;
          continue;
        }
        while (i < end && text(i) != ";") {
          ++i;
        }
        i = stmt = i + 1;
        continue;
      }
      if (x == ";") {
        i = stmt = i + 1;
        continue;
      }
      if (x == "}") {
        ++i;
        stmt = i;
        continue;
      }
      if (x == "public" || x == "protected" || x == "private") {
        i += text(i + 1) == ":" ? 2 : 1;
        stmt = i;
        continue;
      }
      // Candidate function: identifier followed by '(' with no '=' earlier
      // in the declaration (excludes `int x = f();`).
      if (tok(i).kind == TokKind::kIdent && text(i + 1) == "(" &&
          !is_keyword(x) && !equals_since(stmt, i)) {
        const std::size_t after = try_function(i, end);
        if (after != 0) {
          i = stmt = after;
          continue;
        }
      }
      if (x == "{") {
        // A brace we did not claim (array init, unrecognized construct):
        // skip it wholesale rather than misreading its body as decls.
        i = stmt = skip_group(i);
        continue;
      }
      if (x == "=") {
        // Variable initializer: skip to ';'.
        while (i < end && text(i) != ";" && text(i) != "{") {
          ++i;
        }
        if (text(i) == "{") {
          i = skip_group(i);
        }
        continue;
      }
      ++i;
    }
  }

  bool equals_since(std::size_t stmt, std::size_t i) const {
    for (std::size_t k = stmt; k < i; ++k) {
      if (text(k) == "=") {
        return true;
      }
    }
    return false;
  }

  /// `class Name [final] [: bases] { ... };` — parses the body as a class
  /// scope. Returns the index just past the body (or the fwd-decl ';').
  std::size_t parse_class(std::size_t i, std::size_t end) {
    std::size_t j = i + 1;
    while (j < end && text(j) != "{" && text(j) != ";") {
      if (text(j) == "(") {  // a macro call in the head; bail out
        return j;
      }
      ++j;
    }
    if (j >= end || text(j) == ";") {
      return j + 1;  // forward declaration
    }
    const std::size_t close = skip_group(j);
    parse_scope(j + 1, close - 1);
    return close;
  }

  /// Attempts to read a function declaration/definition whose name is the
  /// identifier at `name_i`. Returns the index just past the declaration,
  /// or 0 if this is not a function.
  std::size_t try_function(std::size_t name_i, std::size_t end) {
    const std::size_t params_open = name_i + 1;
    const std::size_t params_close = skip_group(params_open) - 1;
    if (params_close >= end || text(params_close) != ")") {
      return 0;
    }
    // After the parameter list: cv/ref/noexcept/attributes, then one of
    // `{` (definition), `;` (declaration), `:` (ctor init list), `=` (pure,
    // default, delete), or `->` (trailing return). Anything else (`,`, an
    // operator, ...) means this was an initializer or macro, not a function.
    std::size_t j = params_close + 1;
    while (j < end) {
      const std::string_view x = text(j);
      if (x == "const" || x == "noexcept" || x == "override" ||
          x == "final" || x == "&" || x == "&&" || x == "try") {
        ++j;
        continue;
      }
      if (x == "(") {  // noexcept(...)
        j = skip_group(j);
        continue;
      }
      if (x == "[") {  // [[nodiscard]] after params (rare)
        j = skip_group(j);
        continue;
      }
      if (x == "->") {  // trailing return type: skip to body/semicolon
        while (j < end && text(j) != "{" && text(j) != ";") {
          ++j;
        }
        continue;
      }
      break;
    }
    const std::string_view next = text(j);
    const bool is_def = next == "{" || next == ":";
    const bool is_decl = next == ";" || next == "=";
    if (!is_def && !is_decl) {
      return 0;
    }

    FunctionInfo fn;
    fn.name = std::string(text(name_i));
    fn.line = tok(name_i).line;
    parse_params(params_open, params_close, fn.param_types);
    out_.functions.push_back(std::move(fn));

    std::size_t after = j;
    if (is_decl) {
      while (after < end && text(after) != ";") {
        ++after;
      }
      return after + 1;
    }
    // Skip a ctor-init list to the body brace.
    while (after < end && text(after) != "{") {
      ++after;
    }
    const std::size_t close = skip_group(after);
    parse_body(after + 1, close > 0 ? close - 1 : after + 1);
    return close;
  }

  void parse_params(std::size_t open, std::size_t close,
                    std::vector<std::string>& out) {
    if (open + 1 >= close) {
      return;
    }
    std::size_t start = open + 1;
    int depth = 0;
    for (std::size_t i = open + 1; i <= close; ++i) {
      const std::string_view x = text(i);
      if (x == "(" || x == "[" || x == "{" || x == "<") {
        ++depth;
      } else if (x == ")" || x == "]" || x == "}" || x == ">") {
        --depth;
      }
      const bool at_end = i == close;
      if ((x == "," && depth == 0) || at_end) {
        if (i > start) {
          out.push_back(param_type(start, i));
        }
        start = i + 1;
      }
    }
  }

  /// Type of the parameter spanning [begin, end_tok): the identifier before
  /// the name, or the only identifier of an unnamed parameter. A `::` chain
  /// is not walked back to its head; the last component is what the rule
  /// compares against.
  std::string param_type(std::size_t begin, std::size_t end_tok) {
    std::vector<std::size_t> idents;
    for (std::size_t i = begin; i < end_tok; ++i) {
      const std::string_view x = text(i);
      if (x == "=") {
        break;
      }
      if (x == "<") {  // template args contribute nothing we key on
        i = skip_angles(i) - 1;
        continue;
      }
      if (tok(i).kind == TokKind::kIdent && !is_type_decoration(x)) {
        idents.push_back(i);
      }
    }
    if (idents.empty()) {
      return {};
    }
    return std::string(
        text(idents[idents.size() == 1 ? 0 : idents.size() - 2]));
  }

  // ---- function bodies: calls ----

  /// Records every call in a function body, lambda bodies included.
  /// Bracket groups are skipped whole: a subscript's contents, and a lambda's
  /// capture list (the lambda's parameters and body follow it and are
  /// scanned like the rest of the function).
  void parse_body(std::size_t begin, std::size_t end_tok) {
    for (std::size_t i = begin; i < end_tok; ++i) {
      const std::string_view x = text(i);
      if (x == "[") {
        i = skip_group(i) - 1;
        continue;
      }
      if (tok(i).kind == TokKind::kIdent && text(i + 1) == "(" &&
          !is_keyword(x) && !is_type_decoration(x)) {
        record_call(i);
      }
    }
  }

  void record_call(std::size_t i) {
    CallSite cs;
    cs.callee = std::string(text(i));
    cs.line = tok(i).line;
    cs.column = tok(i).column;
    const std::size_t close = skip_group(i + 1) - 1;
    std::size_t start = i + 2;
    int depth = 0;
    for (std::size_t k = start; k <= close; ++k) {
      const std::string_view x = text(k);
      if (x == "(" || x == "[" || x == "{") {
        ++depth;
      } else if (x == ")" || x == "]" || x == "}") {
        --depth;
      }
      if ((x == "," && depth == 0) || k == close) {
        if (k > start) {
          cs.arg_units.push_back(arg_unit(start, k));
        }
        start = k + 1;
      }
    }
    out_.calls.push_back(std::move(cs));
  }

  /// Unit evidence of the argument spanning [begin, end_tok): an
  /// `expr.ps()` / `expr->mv()` tail, or a unit-suffixed identifier as the
  /// whole argument.
  std::string arg_unit(std::size_t begin, std::size_t end_tok) const {
    const std::size_t ntoks = end_tok - begin;
    if (ntoks >= 4 && text(end_tok - 1) == ")" &&
        text(end_tok - 2) == "(" &&
        tok(end_tok - 3).kind == TokKind::kIdent &&
        (text(end_tok - 4) == "." || text(end_tok - 4) == "->")) {
      return unit_from_accessor(text(end_tok - 3));
    }
    if (ntoks == 1 && tok(begin).kind == TokKind::kIdent) {
      return unit_from_suffix(text(begin));
    }
    return {};
  }

  ParsedFile& out_;
  const std::vector<Token>& toks_;
};

}  // namespace

ParsedFile parse_source(std::string path, std::string_view content) {
  LexResult lexed = lex(content);
  ParsedFile out;
  out.path = std::move(path);
  Parser(out, lexed.tokens).run();
  out.allow = std::move(lexed.allow);
  return out;
}

}  // namespace mgtlint
