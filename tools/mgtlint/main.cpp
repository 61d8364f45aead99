// mgtlint CLI: walks the given files/directories, lints every .cpp/.hpp/.h
// as it reads it (no rule needs another file, so no buffer outlives its own
// lint), and prints the findings sorted by file and position as
// `file:line:col: [rule] message`.
//
//   mgtlint <file-or-dir>...   lint, print every finding
//   mgtlint --list-rules       print the rule catalog and exit
//
// Exit codes: 0 = clean, 1 = findings, 2 = usage or I/O error. The only
// way to silence a finding is an inline `// mgtlint:allow(<rule>)`.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "lint.hpp"

namespace fs = std::filesystem;

namespace {

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h";
}

void collect(const fs::path& root, std::vector<std::string>& files) {
  if (fs::is_directory(root)) {
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (entry.is_regular_file() && lintable(entry.path())) {
        files.push_back(entry.path().generic_string());
      }
    }
  } else {
    files.push_back(root.generic_string());
  }
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

void usage() {
  std::printf(
      "usage: mgtlint <file-or-dir>...\n"
      "       mgtlint --list-rules\n"
      "exit codes: 0 clean, 1 findings, 2 usage/io error\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--list-rules") {
      for (const auto& r : mgtlint::rule_catalog()) {
        std::printf("%-32.*s %.*s\n", static_cast<int>(r.id.size()),
                    r.id.data(), static_cast<int>(r.summary.size()),
                    r.summary.data());
      }
      return 0;
    }
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    }
    if (arg.starts_with("-")) {
      std::fprintf(stderr, "mgtlint: unknown option %s (see --help)\n",
                   arg.c_str());
      return 2;
    }
    if (!fs::exists(arg)) {
      std::fprintf(stderr, "mgtlint: no such path: %s\n", arg.c_str());
      return 2;
    }
    collect(arg, files);
  }
  if (files.empty()) {
    std::fprintf(stderr, "mgtlint: no input files (see --help)\n");
    return 2;
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<mgtlint::Diagnostic> diags;
  for (const auto& file : files) {
    std::string text;
    if (!read_file(file, text)) {
      std::fprintf(stderr, "mgtlint: cannot read %s\n", file.c_str());
      return 2;
    }
    auto found = mgtlint::lint_source(file, text);
    diags.insert(diags.end(), std::make_move_iterator(found.begin()),
                 std::make_move_iterator(found.end()));
  }
  std::sort(diags.begin(), diags.end(),
            [](const mgtlint::Diagnostic& a, const mgtlint::Diagnostic& b) {
              return std::tie(a.file, a.line, a.column, a.rule, a.message) <
                     std::tie(b.file, b.line, b.column, b.rule, b.message);
            });
  for (const auto& diag : diags) {
    std::printf("%s\n", mgtlint::format_diagnostic(diag).c_str());
  }
  std::fprintf(stderr, "mgtlint: %zu file(s), %zu finding(s)\n", files.size(),
               diags.size());
  return diags.empty() ? 0 : 1;
}
