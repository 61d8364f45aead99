#include "lex.hpp"

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
        std::string close = ")";
        close += src.substr(i + 2, j - (i + 2));
        close += '"';
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
      // A digit separator (`10'000`, `0xFF'FF`) stays inside the number;
      // read as a quote it would open a char literal that swallows code up
      // to the next quote in the file.
      const std::size_t start = i;
      const std::size_t start_col = col;
      while (i < src.size() &&
             (ident_char(src[i]) || src[i] == '.' ||
              (src[i] == '\'' && i + 1 < src.size() &&
               std::isalnum(static_cast<unsigned char>(src[i + 1]))) ||
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

}  // namespace mgtlint
