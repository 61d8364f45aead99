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

namespace {

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
/// namespace / class / function-body scopes. Everything it cannot place it
/// skips; the goal is facts-with-locations, not a syntax tree.
class Parser {
 public:
  explicit Parser(ParsedFile& out) : out_(out), toks_(out.lexed.tokens) {}

  void run() {
    std::vector<std::string> scope;
    parse_scope(0, toks_.size(), scope, /*class_scope=*/false);
  }

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

  void parse_scope(std::size_t begin, std::size_t end,
                   std::vector<std::string>& scope, bool class_scope) {
    std::size_t i = begin;
    std::size_t stmt = begin;  // first token of the current declaration
    while (i < end) {
      const std::string_view x = text(i);
      if (x == "namespace") {
        // `namespace a::b {` or `namespace {`.
        std::size_t j = i + 1;
        std::vector<std::string> names;
        while (j < end && tok(j).kind == TokKind::kIdent) {
          names.emplace_back(text(j));
          j += text(j + 1) == "::" ? 2 : 1;
        }
        if (j < end && text(j) == "{") {
          const std::size_t close = skip_group(j);
          for (const auto& s : names) {
            scope.push_back(s);
          }
          parse_scope(j + 1, close - 1, scope, /*class_scope=*/false);
          scope.resize(scope.size() - names.size());
          i = stmt = close;
          continue;
        }
        i = j + 1;
        continue;
      }
      if ((x == "class" || x == "struct") && i + 1 < end &&
          tok(i + 1).kind == TokKind::kIdent &&
          (i == begin || text(i - 1) != "enum")) {
        i = parse_class(i, end, scope);
        stmt = i;
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
        const std::size_t after = try_function(stmt, i, end, scope,
                                               class_scope);
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
        // Variable initializer: note the variable, then skip to ';'.
        if (!class_scope) {
          note_global(stmt, i);
        }
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

  /// `class Name [final] [: bases] { ... };` — records unit types (bases
  /// containing Scalar) and parses the body as a class scope. Returns the
  /// index just past the body (or the fwd-decl ';').
  std::size_t parse_class(std::size_t i, std::size_t end,
                          std::vector<std::string>& scope) {
    std::size_t j = i + 1;
    std::string name;
    while (j < end && tok(j).kind == TokKind::kIdent) {
      name = std::string(text(j));
      ++j;
    }
    bool derives_scalar = false;
    while (j < end && text(j) != "{" && text(j) != ";") {
      if (text(j) == "Scalar") {
        derives_scalar = true;
      }
      if (text(j) == "(") {  // a macro call in the head; bail out
        return j;
      }
      ++j;
    }
    if (j >= end || text(j) == ";") {
      return j + 1;  // forward declaration
    }
    if (derives_scalar && !name.empty()) {
      out_.unit_types.push_back(name);
    }
    const std::size_t close = skip_group(j);
    scope.push_back(name);
    parse_scope(j + 1, close - 1, scope, /*class_scope=*/true);
    scope.pop_back();
    return close;
  }

  /// Attempts to read a function declaration/definition whose name is the
  /// identifier at `name_i` (declaration starts at `stmt`). Returns the
  /// index just past the declaration, or 0 if this is not a function.
  std::size_t try_function(std::size_t stmt, std::size_t name_i,
                           std::size_t end, std::vector<std::string>& scope,
                           bool class_scope) {
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
    fn.tok = name_i;
    fn.line = tok(name_i).line;
    fn.is_member = class_scope;
    // Qualified name: scope stack plus any explicit A::B:: before the name.
    std::vector<std::string> quals;
    std::size_t q = name_i;
    while (q >= 2 && text(q - 1) == "::" &&
           tok(q - 2).kind == TokKind::kIdent) {
      quals.insert(quals.begin(), std::string(text(q - 2)));
      q -= 2;
      fn.is_member = true;
    }
    std::string full;
    for (const auto& s : scope) {
      if (!s.empty()) {
        full += s + "::";
      }
    }
    for (const auto& s : quals) {
      full += s + "::";
    }
    fn.qualified = full + fn.name;
    // Return type: a `void` token in the declaration specifiers (before any
    // explicit qualifier), not followed by `*`.
    for (std::size_t k = stmt; k < q; ++k) {
      if (text(k) == "void" && text(k + 1) != "*") {
        fn.returns_void = true;
      }
    }
    // Constructors/destructors return nothing either.
    if (!scope.empty() && (fn.name == scope.back() || text(stmt) == "~")) {
      fn.returns_void = true;
    }
    parse_params(params_open, params_close, fn.params);

    std::size_t after = j;
    if (is_decl) {
      while (after < end && text(after) != ";") {
        ++after;
      }
      ++after;
    } else {
      // Skip a ctor-init list to the body brace.
      while (after < end && text(after) != "{") {
        ++after;
      }
      const std::size_t close = skip_group(after);
      fn.has_body = true;
      fn.body_begin = after + 1;
      fn.body_end = close > 0 ? close - 1 : after + 1;
      after = close;
    }
    out_.functions.push_back(std::move(fn));
    const int fn_idx = static_cast<int>(out_.functions.size()) - 1;
    if (out_.functions[fn_idx].has_body) {
      parse_body(out_.functions[fn_idx].body_begin,
                 out_.functions[fn_idx].body_end, fn_idx);
      analyze_function_body(fn_idx);
    }
    return after;
  }

  void parse_params(std::size_t open, std::size_t close,
                    std::vector<Param>& out) {
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
          out.push_back(parse_one_param(start, i));
        }
        start = i + 1;
      }
    }
  }

  Param parse_one_param(std::size_t begin, std::size_t end_tok) {
    Param p;
    std::vector<std::size_t> idents;
    for (std::size_t i = begin; i < end_tok; ++i) {
      const std::string_view x = text(i);
      if (x == "=") {
        p.has_default = true;
        break;
      }
      if (x == "const") {
        p.is_const = true;
        continue;
      }
      if (x == "&") {
        p.is_reference = true;
        continue;
      }
      if (x == "*") {
        p.is_pointer = true;
        continue;
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
      return p;
    }
    if (idents.size() == 1) {
      p.type = std::string(text(idents[0]));  // unnamed parameter
      return p;
    }
    // Name = last identifier; type = the identifier before it, skipping a
    // `::` chain back to its head is unnecessary (the last component is
    // what the rules compare against).
    p.name = std::string(text(idents.back()));
    p.type = std::string(text(idents[idents.size() - 2]));
    return p;
  }

  // ---- function bodies: calls and lambdas ----

  struct OpenCall {
    std::string callee;
    std::string qualifier;
    bool member = false;
    int depth;  // paren depth at which this call's '(' sits
  };

  void parse_body(std::size_t begin, std::size_t end_tok, int fn_idx) {
    std::vector<OpenCall> call_stack;
    int paren_depth = 0;
    for (std::size_t i = begin; i < end_tok; ++i) {
      const std::string_view x = text(i);
      if (x == "(") {
        ++paren_depth;
        continue;
      }
      if (x == ")") {
        while (!call_stack.empty() &&
               call_stack.back().depth == paren_depth) {
          call_stack.pop_back();
        }
        --paren_depth;
        continue;
      }
      // Lambda introducer: '[' not preceded by a value expression.
      if (x == "[" && is_lambda_intro(i, begin)) {
        i = parse_lambda(i, end_tok, fn_idx, call_stack) - 1;
        continue;
      }
      if (x == "[") {
        i = skip_group(i) - 1;  // subscript: contents are expressions we
        continue;               // still want? calls inside are rare; skip
      }
      if (tok(i).kind == TokKind::kIdent && text(i + 1) == "(" &&
          !is_keyword(x) && !is_type_decoration(x)) {
        record_call(i, fn_idx, /*lambda_idx=*/-1, call_stack);
        call_stack.push_back(make_open_call(i, paren_depth + 1));
        // fall through: the '(' itself is handled next iteration
      }
    }
  }

  OpenCall make_open_call(std::size_t i, int depth) {
    OpenCall oc;
    oc.callee = std::string(text(i));
    oc.member = i >= 1 && (text(i - 1) == "." || text(i - 1) == "->");
    if (i >= 2 && text(i - 1) == "::" &&
        tok(i - 2).kind == TokKind::kIdent) {
      oc.qualifier = std::string(text(i - 2));
    }
    oc.depth = depth;
    return oc;
  }

  bool is_lambda_intro(std::size_t i, std::size_t begin) const {
    if (i == begin) {
      return true;
    }
    const Token& p = tok(i - 1);
    if (p.kind == TokKind::kIdent) {
      // After a plain identifier the '[' is a subscript; only the keyword
      // `return` puts it back in expression position.
      return p.text == "return";
    }
    if (p.kind == TokKind::kNumber || p.kind == TokKind::kString) {
      return false;
    }
    const std::string_view x = p.text;
    // After a closing bracket the '[' is a subscript ( a()[0], b[1][2] ).
    if (x == ")" || x == "]") {
      return false;
    }
    // `[[nodiscard]]`-style attributes: treat the second '[' as part of the
    // attribute, and the first as non-lambda only when followed by '['.
    if (text(i + 1) == "[" || x == "[") {
      return false;
    }
    return true;  // ( , = { ; && || return — expression position
  }

  /// Parses a lambda starting at '['. Records the site and scans the body.
  /// Returns the index just past the body.
  std::size_t parse_lambda(std::size_t i, std::size_t end_tok, int fn_idx,
                           const std::vector<OpenCall>& call_stack) {
    LambdaSite lam;
    lam.tok = i;
    lam.line = tok(i).line;
    lam.column = tok(i).column;
    if (!call_stack.empty()) {
      lam.passed_to = call_stack.back().callee;
      lam.passed_qualifier = call_stack.back().qualifier;
      lam.passed_member = call_stack.back().member;
    }
    // Capture list.
    const std::size_t cap_close = skip_group(i) - 1;
    for (std::size_t k = i + 1; k < cap_close; ++k) {
      const std::string_view x = text(k);
      if (x == "&") {
        if (tok(k + 1).kind == TokKind::kIdent) {
          lam.ref_captures.emplace_back(text(k + 1));
          ++k;
        } else {
          lam.default_ref = true;
        }
      } else if (x == "=") {
        lam.default_copy = true;
      } else if (tok(k).kind == TokKind::kIdent && x != "this") {
        lam.copy_captures.emplace_back(x);
      }
    }
    std::size_t j = cap_close + 1;
    std::set<std::string> locals;
    if (text(j) == "(") {
      const std::size_t close = skip_group(j) - 1;
      std::vector<Param> params;
      parse_params(j, close, params);
      for (const auto& p : params) {
        if (!p.name.empty()) {
          locals.insert(p.name);
        }
      }
      if (!params.empty() && !params[0].name.empty()) {
        lam.index_param = params[0].name;
      }
      j = close + 1;
    }
    while (j < end_tok && text(j) != "{" && text(j) != ";") {
      ++j;  // mutable / noexcept / -> ret
    }
    if (j >= end_tok || text(j) != "{") {
      out_.lambdas.push_back(std::move(lam));
      return j;
    }
    const std::size_t body_close = skip_group(j);
    const std::size_t body_begin = j + 1;
    const std::size_t body_end = body_close > 0 ? body_close - 1 : j + 1;
    lam.body_begin = body_begin;
    lam.body_end = body_end;
    const std::string index_param = lam.index_param;
    out_.lambdas.push_back(std::move(lam));
    const int lam_idx = static_cast<int>(out_.lambdas.size()) - 1;
    // NOTE: nested parse_lambda calls below may grow out_.lambdas and
    // invalidate references into it — always re-index, never hold one.

    // Body: record calls (tagged with this lambda) and mutations.
    collect_locals(body_begin, body_end, locals);
    std::vector<OpenCall> inner_stack;
    int depth = 0;
    for (std::size_t k = body_begin; k < body_end; ++k) {
      const std::string_view x = text(k);
      if (x == "(") {
        ++depth;
        continue;
      }
      if (x == ")") {
        while (!inner_stack.empty() && inner_stack.back().depth == depth) {
          inner_stack.pop_back();
        }
        --depth;
        continue;
      }
      if (x == "[" && is_lambda_intro(k, body_begin)) {
        k = parse_lambda(k, body_end, fn_idx, inner_stack) - 1;
        continue;
      }
      if (tok(k).kind == TokKind::kIdent && text(k + 1) == "(" &&
          !is_keyword(x) && !is_type_decoration(x)) {
        record_call(k, fn_idx, lam_idx, inner_stack);
        inner_stack.push_back(make_open_call(k, depth + 1));
      }
    }
    std::vector<std::string> writes;
    collect_writes(body_begin, body_end, locals, index_param, writes);
    out_.lambdas[lam_idx].unsubscripted_writes = std::move(writes);
    return body_close;
  }

  void record_call(std::size_t i, int fn_idx, int lambda_idx,
                   const std::vector<OpenCall>&) {
    CallSite cs;
    cs.callee = std::string(text(i));
    cs.tok = i;
    cs.line = tok(i).line;
    cs.column = tok(i).column;
    cs.member = i >= 1 && (text(i - 1) == "." || text(i - 1) == "->");
    if (i >= 2 && text(i - 1) == "::" &&
        tok(i - 2).kind == TokKind::kIdent) {
      cs.qualifier = std::string(text(i - 2));
    }
    cs.function = fn_idx;
    cs.lambda = lambda_idx;
    parse_call_args(i + 1, cs.args);
    const bool member = cs.member;
    out_.calls.push_back(std::move(cs));
    if (fn_idx >= 0 && !member) {
      out_.functions[fn_idx].called.insert(out_.calls.back().callee);
    }
  }

  void parse_call_args(std::size_t open, std::vector<CallArg>& out) {
    const std::size_t close = skip_group(open) - 1;
    if (close <= open + 1) {
      return;  // no args
    }
    std::size_t start = open + 1;
    int depth = 0;
    for (std::size_t i = open + 1; i <= close; ++i) {
      const std::string_view x = text(i);
      if (x == "(" || x == "[" || x == "{") {
        ++depth;
      } else if (x == ")" || x == "]" || x == "}") {
        --depth;
      }
      if ((x == "," && depth == 0) || i == close) {
        if (i > start) {
          out.push_back(summarize_arg(start, i));
        }
        start = i + 1;
      }
    }
  }

  CallArg summarize_arg(std::size_t begin, std::size_t end_tok) {
    CallArg a;
    a.first_tok = begin;
    a.ntoks = end_tok - begin;
    // Bare numeric literal: `3.5`, `- 3.5` — one number token with no
    // user-defined suffix (the lexer folds `10.0_ps` into one token).
    const bool neg = a.ntoks == 2 && (text(begin) == "-" ||
                                      text(begin) == "+");
    const std::size_t num = neg ? begin + 1 : begin;
    if ((a.ntoks == 1 || neg) && tok(num).kind == TokKind::kNumber &&
        text(num).find('_') == std::string_view::npos) {
      a.bare_number = true;
    }
    // Unit evidence: `expr.ps()` / `expr->mv()` tail, or a unit-suffixed
    // identifier as the whole argument.
    if (a.ntoks >= 4 && text(end_tok - 1) == ")" &&
        text(end_tok - 2) == "(" &&
        tok(end_tok - 3).kind == TokKind::kIdent &&
        (text(end_tok - 4) == "." || text(end_tok - 4) == "->")) {
      a.unit_hint = unit_from_accessor(text(end_tok - 3));
    } else if (a.ntoks == 1 && tok(begin).kind == TokKind::kIdent) {
      a.unit_hint = unit_from_suffix(text(begin));
    }
    return a;
  }

  // ---- write/local analysis ----

  /// Heuristic local-declaration collection: any `Type name` pair where the
  /// name is followed by a declarator-ish token. Over-collecting is safe
  /// (it only ever silences a finding).
  void collect_locals(std::size_t begin, std::size_t end_tok,
                      std::set<std::string>& locals) {
    for (std::size_t i = begin; i + 1 < end_tok; ++i) {
      if (tok(i).kind != TokKind::kIdent || is_keyword(text(i))) {
        continue;
      }
      std::size_t j = i + 1;
      while (j < end_tok && (text(j) == "&" || text(j) == "*" ||
                             text(j) == "const")) {
        ++j;
      }
      if (j < end_tok && tok(j).kind == TokKind::kIdent &&
          !is_keyword(text(j))) {
        const std::string_view after = text(j + 1);
        if (after == "=" || after == ";" || after == "," || after == ":" ||
            after == "{" || after == ")") {
          locals.insert(std::string(text(j)));
        }
      }
    }
  }

  /// Collects identifiers written in [begin, end) without an index
  /// subscript: `x = v`, `x += v`, `++x`, `x++`, and `x.field = v` (the
  /// chain head is charged). Writes through `x[i]` are the sanctioned
  /// per-task-slot idiom and are not collected.
  void collect_writes(std::size_t begin, std::size_t end_tok,
                      const std::set<std::string>& locals,
                      const std::string& index_param,
                      std::vector<std::string>& out) {
    (void)index_param;
    std::set<std::string> seen;
    for (std::size_t i = begin; i < end_tok; ++i) {
      if (tok(i).kind != TokKind::kIdent || is_keyword(text(i))) {
        continue;
      }
      // Chain head only: `a.b.c = v` charges `a`; skip non-head members.
      if (i >= 1 && (text(i - 1) == "." || text(i - 1) == "->")) {
        continue;
      }
      const std::string head(text(i));
      // Walk forward over `.member` / `->member` chains.
      std::size_t j = i + 1;
      bool subscripted = false;
      while (j < end_tok) {
        if (text(j) == "[") {
          subscripted = true;
          j = skip_group(j);
          continue;
        }
        if ((text(j) == "." || text(j) == "->") && j + 1 < end_tok &&
            tok(j + 1).kind == TokKind::kIdent) {
          j += 2;
          continue;
        }
        break;
      }
      if (subscripted) {
        continue;
      }
      bool write = false;
      const std::string_view a = text(j);
      const std::string_view b = text(j + 1);
      if (a == "=" && b != "=" &&
          (i == begin || (text(i - 1) != "=" && text(i - 1) != "<" &&
                          text(i - 1) != ">" && text(i - 1) != "!"))) {
        write = true;
      } else if ((a == "+" || a == "-" || a == "*" || a == "/" ||
                  a == "%" || a == "&" || a == "|" || a == "^") &&
                 b == "=") {
        write = true;
      } else if ((a == "+" && b == "+") || (a == "-" && b == "-")) {
        write = true;
      } else if (i >= 2 && ((text(i - 1) == "+" && text(i - 2) == "+") ||
                            (text(i - 1) == "-" && text(i - 2) == "-"))) {
        write = true;
      }
      if (!write || locals.count(head) != 0U) {
        continue;
      }
      if (seen.insert(head).second) {
        out.push_back(head);
      }
    }
  }

  /// Post-pass over a parsed function body: does it write a TU global or a
  /// function-local static? (Fills FunctionInfo::writes_global / _static.)
  void analyze_function_body(int fn_idx) {
    FunctionInfo& fn = out_.functions[fn_idx];
    std::set<std::string> locals;
    for (const auto& p : fn.params) {
      if (!p.name.empty()) {
        locals.insert(p.name);
      }
    }
    // Function-local statics are shared state: declare them, then *remove*
    // them from locals so writes to them register.
    std::set<std::string> statics;
    for (std::size_t i = fn.body_begin; i + 2 < fn.body_end; ++i) {
      if (text(i) != "static" || text(i + 1) == "const" ||
          text(i + 1) == "constexpr") {
        continue;
      }
      // `static Type name ...`: name is the last ident before = ; ( [
      std::size_t j = i + 1;
      std::string name;
      while (j < fn.body_end && (tok(j).kind == TokKind::kIdent ||
                                 text(j) == "::" || text(j) == "<" ||
                                 text(j) == ">" || text(j) == "&" ||
                                 text(j) == "*" || text(j) == ",")) {
        if (tok(j).kind == TokKind::kIdent && !is_type_decoration(text(j))) {
          name = std::string(text(j));
        }
        ++j;
      }
      if (!name.empty()) {
        statics.insert(name);
      }
    }
    collect_locals(fn.body_begin, fn.body_end, locals);
    for (const auto& s : statics) {
      locals.erase(s);
    }
    std::vector<std::string> writes;
    collect_writes(fn.body_begin, fn.body_end, locals, "", writes);
    for (const auto& w : writes) {
      if (statics.count(w) != 0U && fn.writes_static_local.empty()) {
        fn.writes_static_local = w;
      }
      for (const auto& g : out_.globals) {
        if (g.name == w && fn.writes_global.empty()) {
          fn.writes_global = w;
          fn.writes_global_line = g.line;
        }
      }
    }
  }

  /// Namespace-scope variable declaration ending in `= ...;` — extract the
  /// name (the identifier right before the `=`). Const/constexpr/reference
  /// declarations and anything containing parens are not mutable globals.
  void note_global(std::size_t stmt, std::size_t eq) {
    std::string name;
    for (std::size_t i = stmt; i < eq; ++i) {
      const std::string_view x = text(i);
      if (x == "const" || x == "constexpr" || x == "(" || x == ")" ||
          x == "using" || x == "extern") {
        return;
      }
      if (tok(i).kind == TokKind::kIdent && !is_type_decoration(x)) {
        name = std::string(x);
      }
    }
    // Require at least `Type name`: two identifiers.
    std::size_t idents = 0;
    for (std::size_t i = stmt; i < eq; ++i) {
      if (tok(i).kind == TokKind::kIdent && !is_type_decoration(text(i))) {
        ++idents;
      }
    }
    if (!name.empty() && idents >= 2) {
      out_.globals.push_back({name, tok(eq).line});
    }
  }

  ParsedFile& out_;
  const std::vector<Token>& toks_;
};

}  // namespace

ParsedFile parse_source(std::string path, std::string content) {
  ParsedFile out;
  out.path = std::move(path);
  out.source = std::make_shared<const std::string>(std::move(content));
  out.lexed = lex(*out.source);
  Parser(out).run();
  return out;
}

}  // namespace mgtlint
