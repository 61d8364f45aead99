// mgtlint: repo-specific static analysis for the mgt reproduction.
//
// Two stages: a lexer (lex.hpp) feeds every rule, and every rule
// (determinism, unit safety, contract hygiene) is a token-level check on one
// buffer at a time. No rule needs another file, so a file is linted as soon
// as it is read.
//
// The library half (this header) lints in-memory buffers so the rules are
// unit-testable; main.cpp wraps it in a directory walker. The one way to
// silence a finding is an inline `// mgtlint:allow(<rule>)` comment.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace mgtlint {

/// Where a file sits in the repo; controls which rules apply.
enum class FileKind {
  kSourceHeader,  // .hpp under src/ (public API surface)
  kSourceImpl,    // .cpp under src/
  kTestFile,      // tests/
  kBenchFile,     // bench/ (wall-clock timing of benchmarks is allowed)
  kExampleFile,   // examples/
  kToolFile,      // tools/
  kOtherHeader,   // any other .hpp/.h
  kOtherImpl,     // any other .cpp
};

/// Classifies a path by its repo-relative location and extension.
FileKind classify_path(std::string_view path);

/// Path with everything left of the repo anchor (src/, tests/, bench/,
/// examples/, tools/) stripped: "/home/u/mgt/src/pecl/mux.hpp" ->
/// "src/pecl/mux.hpp". Used for path-scoped exemptions.
std::string repo_relative(std::string_view path);

/// One finding. `rule` is the stable kebab-case id usable in
/// `// mgtlint:allow(<rule>)` suppressions.
struct Diagnostic {
  std::string file;
  std::size_t line = 0;
  std::size_t column = 0;
  std::string rule;
  std::string message;
};

/// Stable rule ids (see README for the catalog).
namespace rules {
inline constexpr std::string_view kRandomDevice = "no-random-device";
inline constexpr std::string_view kRand = "no-rand";
inline constexpr std::string_view kTime = "no-time";
inline constexpr std::string_view kWallClock = "no-wall-clock";
inline constexpr std::string_view kUnorderedIter = "no-unordered-iter";
inline constexpr std::string_view kUnitDouble = "unit-suffix-double";
inline constexpr std::string_view kFloat = "no-float";
inline constexpr std::string_view kAssert = "no-assert";
inline constexpr std::string_view kUsingNamespace = "no-using-namespace-header";
inline constexpr std::string_view kExplicitCtor = "explicit-ctor";
inline constexpr std::string_view kCatchIgnore = "no-catch-ignore";
inline constexpr std::string_view kCatchByValue = "catch-by-reference";
inline constexpr std::string_view kUncheckedStatus = "no-unchecked-status";
inline constexpr std::string_view kUncheckedDecode = "no-unchecked-decode";
inline constexpr std::string_view kWallclockMetric = "no-wallclock-metric";
inline constexpr std::string_view kUnboundedWait = "no-unbounded-wait";
inline constexpr std::string_view kRawDoubleParam = "raw-double-param";
}  // namespace rules

/// Rule metadata, consumed by --list-rules.
struct RuleInfo {
  std::string_view id;
  std::string_view summary;  // one line, imperative
};

/// The full catalog, one entry per rule, stable order.
const std::vector<RuleInfo>& rule_catalog();

/// Lints one in-memory buffer with every rule. `path` is used for
/// classification and for the diagnostics' file field.
std::vector<Diagnostic> lint_source(std::string_view path,
                                    std::string_view content);

/// Formats a diagnostic as "file:line:col: [rule] message".
std::string format_diagnostic(const Diagnostic& d);

}  // namespace mgtlint
