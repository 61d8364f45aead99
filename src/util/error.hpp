// Error handling for the mgt library.
//
// Precondition violations are programming errors and throw mgt::Error with a
// message that names the violated condition and its source location.
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace mgt {

/// Exception thrown on contract violations and unrecoverable configuration
/// errors anywhere in the mgt library.
class Error : public std::runtime_error {
public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Exception for hardware-style failures a degraded-mode caller is expected
/// to recover from: a dead channel at calibration, an optical link below
/// sensitivity, a convergence loop that ran out of attempts. Carries the
/// failing component's name so recovery code can attribute it in a
/// HealthReport. Derives from Error, so callers that do not opt into
/// recovery keep today's fail-fast behavior.
class RecoverableError : public Error {
public:
  RecoverableError(std::string component, const std::string& what)
      : Error(component + ": " + what), component_(std::move(component)) {}

  [[nodiscard]] const std::string& component() const { return component_; }

private:
  std::string component_;
};

namespace detail {
/// Throws the mgt::Error for a failed MGT_CHECK:
/// "file:line: check failed: cond (msg)", with no parentheses when `msg` is
/// empty. Out of line and cold, so a check that passes costs one branch.
[[noreturn, gnu::cold]] void raise_check_failure(const char* cond,
                                                 std::source_location loc,
                                                 std::string_view msg = {});
}  // namespace detail

}  // namespace mgt

/// Contract check: MGT_CHECK(x > 0) or MGT_CHECK(x > 0, "x is a size").
/// One statement; the message is evaluated only when the check fails.
#define MGT_CHECK(cond, ...)                                               \
  do {                                                                     \
    if (!(cond)) [[unlikely]]                                              \
      ::mgt::detail::raise_check_failure(                                  \
          #cond, std::source_location::current() __VA_OPT__(, ) __VA_ARGS__); \
  } while (false)
