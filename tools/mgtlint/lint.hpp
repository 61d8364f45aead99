// mgtlint: repo-specific static analysis for the mgt reproduction.
//
// Three stages: a lexer (parse.hpp) feeds every rule; the per-file rules
// (determinism, unit safety, contract hygiene) are token-level checks on one
// buffer at a time; and one cross-TU rule, unit-flow-raw-double, reads a
// heuristic parse (parse.hpp) of every file of one invocation to match call
// sites in one file against declarations in another.
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
/// "src/pecl/mux.hpp". Used for the file references inside cross-TU
/// messages and for path-scoped exemptions.
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
// Cross-TU: needs every file's declarations, so it only fires from
// lint_project, never from single-buffer lint_source.
inline constexpr std::string_view kUnitFlow = "unit-flow-raw-double";
}  // namespace rules

/// Rule metadata, consumed by --list-rules.
struct RuleInfo {
  std::string_view id;
  std::string_view summary;  // one line, imperative
  bool cross_tu = false;     // needs every file (lint_project only)
};

/// The full catalog, one entry per rule, stable order.
const std::vector<RuleInfo>& rule_catalog();

/// Lints one in-memory buffer with the per-file rules. `path` is used for
/// classification (unless a kind is passed) and for the diagnostics' file
/// field.
std::vector<Diagnostic> lint_source(std::string_view path,
                                    std::string_view content);
std::vector<Diagnostic> lint_source(std::string_view path,
                                    std::string_view content, FileKind kind);

/// One input buffer of a project-wide invocation.
struct ProjectInput {
  std::string path;
  std::string content;
};

/// Lints a whole project in one invocation: per-file rules on every buffer
/// plus the cross-TU rule over the declarations of all of them. Results are
/// sorted by (file, line, column, rule).
std::vector<Diagnostic> lint_project(const std::vector<ProjectInput>& files);

/// Formats a diagnostic as "file:line:col: [rule] message".
std::string format_diagnostic(const Diagnostic& d);

}  // namespace mgtlint
