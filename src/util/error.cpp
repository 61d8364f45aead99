#include "util/error.hpp"

namespace mgt::detail {

void raise_check_failure(const char* cond, std::source_location loc,
                         std::string_view msg) {
  std::string full = loc.file_name();
  full += ':';
  full += std::to_string(loc.line());
  full += ": check failed: ";
  full += cond;
  if (!msg.empty()) {
    full += " (";
    full += msg;
    full += ')';
  }
  throw Error(full);
}

}  // namespace mgt::detail
