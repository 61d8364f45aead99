// mgtlint CLI: walks the given files/directories, reads every .cpp/.hpp/.h
// once, runs the per-file rules on each buffer plus the cross-TU rule over
// the declarations of all of them, and prints findings as
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
#include <sstream>
#include <string>
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
        std::printf("%-32.*s %s%.*s\n", static_cast<int>(r.id.size()),
                    r.id.data(), r.cross_tu ? "[cross-tu] " : "",
                    static_cast<int>(r.summary.size()), r.summary.data());
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

  // One read per file: lint_project wants every buffer at once so the
  // cross-TU rule sees every declaration of the project.
  std::vector<mgtlint::ProjectInput> inputs;
  for (const auto& file : files) {
    std::string text;
    if (!read_file(file, text)) {
      std::fprintf(stderr, "mgtlint: cannot read %s\n", file.c_str());
      return 2;
    }
    inputs.push_back({file, std::move(text)});
  }

  const std::vector<mgtlint::Diagnostic> diags = mgtlint::lint_project(inputs);
  for (const auto& diag : diags) {
    std::printf("%s\n", mgtlint::format_diagnostic(diag).c_str());
  }
  std::fprintf(stderr, "mgtlint: %zu file(s), %zu finding(s)\n", files.size(),
               diags.size());
  return diags.empty() ? 0 : 1;
}
