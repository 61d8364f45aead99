// perfbench: runs one benchmark workload for a fixed host time and prints
// its metrics. perfbench/run.py builds this binary and drives it (see
// perfbench/README.md for the workloads and metrics):
//
//   perfbench --workload eye_prbs7_2g5 --seed 1 --seconds 10 --mode plain
//
// --mode plain times the public call of every op and reports the
// end-to-end metrics; --mode traced times the same ops call by call and
// reports the per-layer metrics. Output is a {"run": ...} metadata line
// and, as the last line, {"correct", "attempted", "failed", "metrics"}.
// Diagnostics go to stderr.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using namespace perfbench;

/// The seed whose op digests are kept in perfbench/reference/.
constexpr std::uint64_t kDefaultSeed = 1;
/// A run sets up a fresh system every this many ops, so a 300-op run has 8
/// set-ups spread over its whole length. setup_s is the fastest of them,
/// for the same reason op_ms_min is the fastest op: host contention comes
/// in phases of seconds, and set-ups made back to back share one phase.
constexpr std::size_t kOpsPerSystem = 40;
/// paper_err_ps is the mean over this many leading ops, so it is a pure
/// function of the seed; run.py asks a --trace 0 run for at least this
/// many ops (PAPER_OPS). A mean, not a median: the bathtub floor moves in
/// whole 10 ps strobe codes, and only the mean sees a shift in how often
/// each code width occurs.
constexpr std::size_t kPaperOps = 300;
/// Failure reasons printed per run.
constexpr std::size_t kMaxReportedFailures = 20;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool traced = false;
  std::size_t min_ops = 100;
  std::size_t max_ops = 0;  // 0: no limit
  std::string reference;    // expected digests for the default seed
  std::string digests_in;   // plain-run digests the traced run must match
  std::string digests_out;
  std::string trace_out;    // span dump (traced mode)
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--mode") {
      if (value != "plain" && value != "traced") {
        throw std::invalid_argument("--mode is plain or traced");
      }
      a.traced = value == "traced";
    } else if (flag == "--min-ops") {
      a.min_ops = std::stoull(value);
    } else if (flag == "--max-ops") {
      a.max_ops = std::stoull(value);
    } else if (flag == "--reference") {
      a.reference = value;
    } else if (flag == "--digests-in") {
      a.digests_in = value;
    } else if (flag == "--digests-out") {
      a.digests_out = value;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) {
    throw std::invalid_argument("--workload is required");
  }
  return a;
}

/// Digest files: one "<op> <hex digest>" line per op; '#' starts a comment.
std::vector<std::uint64_t> read_digests(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::vector<std::uint64_t> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::size_t op = 0;
    std::string hex;
    fields >> op >> hex;
    if (!fields || op != out.size()) {
      throw std::runtime_error("malformed digest line in " + path);
    }
    out.push_back(std::stoull(hex, nullptr, 16));
  }
  return out;
}

void write_digests(const std::string& path, const Args& a,
                   const std::vector<std::uint64_t>& digests) {
  std::ofstream out(path);
  out << "# perfbench op digests: workload " << a.workload << ", seed "
      << a.seed << ", " << digests.size() << " ops\n";
  for (std::size_t k = 0; k < digests.size(); ++k) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(digests[k]));
    out << k << ' ' << hex << '\n';
  }
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
}

/// Shortest decimal that round-trips the double.
std::string json_number(double x) {
  if (!std::isfinite(x)) {
    return "null";
  }
  char buf[32];
  const auto end = std::to_chars(buf, buf + sizeof buf, x).ptr;
  return std::string(buf, end);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Run metadata: what ran, under which configuration, and the op-time
/// median and tail (the highest percentile with 10 samples beyond it).
std::string run_metadata(const Args& a, const std::vector<double>& op_ms) {
  static const char* const kKnobs[] = {
      "MGT_THREADS",         "MGT_SIMD",        "MGT_RENDER_CACHE",
      "MGT_RENDER_CACHE_MB", "MGT_TIMING_MODE", "MGT_OBS",
      "MGT_TELEMETRY"};
  std::map<std::string, std::string> env;
  for (const char* knob : kKnobs) {
    env[knob];  // listed even when unset
  }
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("MGT_", 0) == 0) {
      const auto eq = kv.find('=');
      env[kv.substr(0, eq)] = eq == std::string::npos ? "" : kv.substr(eq + 1);
    }
  }
  const unsigned tail = tail_permille(op_ms.size());
  std::ostringstream out;
  out << "{\"run\": {\"workload\": " << json_string(a.workload)
      << ", \"mode\": " << json_string(a.traced ? "traced" : "plain")
      << ", \"seed\": " << a.seed << ", \"seconds\": " << json_number(a.seconds)
      << ", \"ops\": " << op_ms.size()
      << ", \"op_ms_p50\": " << json_number(median(op_ms))
      << ", \"op_ms_tail\": " << json_number(percentile(op_ms, tail))
      << ", \"tail_percentile\": " << json_number(tail / 10.0)
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"obs_enabled\": " << (mgt::obs::enabled() ? "true" : "false")
      << ", \"env\": {";
  bool first = true;
  for (const auto& [name, value] : env) {
    out << (first ? "" : ", ") << json_string(name) << ": "
        << (std::getenv(name.c_str()) == nullptr ? std::string("null")
                                                 : json_string(value));
    first = false;
  }
  out << "}}}";
  return out.str();
}

struct OpRecord {
  double ms = 0.0;
  OpResult result;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t mux_bits = 0;
  std::string failure;
};

int run(const Args& a) {
  // Refuse timings from an unoptimized build.
  bool optimized = std::string(PERFBENCH_BUILD_TYPE) != "Debug";
#ifndef NDEBUG
  optimized = false;
#endif
  if (!optimized) {
    std::cerr << "perfbench: refusing to time a Debug build\n";
    return 2;
  }

  const std::vector<std::uint64_t> reference =
      a.reference.empty() || a.seed != kDefaultSeed ? std::vector<std::uint64_t>{}
                                                     : read_digests(a.reference);
  const std::vector<std::uint64_t> replica =
      a.digests_in.empty() ? std::vector<std::uint64_t>{}
                           : read_digests(a.digests_in);

  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  Tracer tracer;
  TraceCounts counts;
  std::vector<OpRecord> ops;
  std::size_t failed = 0;
  std::size_t replica_mismatches = 0;
  const auto t_begin = Clock::now();
  for (std::size_t k = 0;; ++k) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t_begin).count();
    if ((a.max_ops != 0 && k >= a.max_ops) ||
        (elapsed >= a.seconds && k >= a.min_ops)) {
      break;
    }
    // Set-up (untimed as an op): construction (JTAG FLASH boot), USB
    // programming, the noise offset and one warm-up op. Each system has a
    // seed of its own, so no two render the same stimulus, and the old one
    // is dropped first, so only one is alive at a time.
    if (k % kOpsPerSystem == 0) {
      workload.reset();
      const auto t0 = Clock::now();
      workload =
          make_workload(a.workload, derive_seed(a.seed, k / kOpsPerSystem));
      (void)workload->run_op();
      setup_s.push_back(
          std::chrono::duration<double>(Clock::now() - t0).count());
    }
    OpRecord rec;
    const std::uint64_t hits0 = obs_counter("render_cache.hits");
    const std::uint64_t misses0 = obs_counter("render_cache.misses");
    const std::uint64_t evictions0 = obs_counter("render_cache.evictions");
    const std::uint64_t mux0 = obs_counter("pecl.mux.bits");
    const auto t0 = Clock::now();
    try {
      if (a.traced) {
        tracer.set_op(static_cast<std::uint32_t>(k));
        const Scope op(tracer, "op");
        rec.result = workload->run_traced_op(tracer, op.id(), counts);
      } else {
        rec.result = workload->run_op();
      }
    } catch (const std::exception& e) {
      rec.failure = std::string("threw: ") + e.what();
    }
    rec.ms = std::chrono::duration<double, std::milli>(Clock::now() - t0)
                 .count();
    rec.cache_hits = obs_counter("render_cache.hits") - hits0;
    rec.cache_misses = obs_counter("render_cache.misses") - misses0;
    rec.cache_evictions = obs_counter("render_cache.evictions") - evictions0;
    rec.mux_bits = obs_counter("pecl.mux.bits") - mux0;

    if (rec.failure.empty() && a.traced && !a.digests_in.empty() &&
        (k >= replica.size() || rec.result.digest != replica[k])) {
      rec.failure = "traced digest differs from the public call's";
      ++replica_mismatches;
    }
    if (rec.failure.empty() && rec.cache_hits > 0) {
      rec.failure = "render cache replayed " +
                    std::to_string(rec.cache_hits) + " chunks";
    }
    if (rec.failure.empty() && !rec.result.band_failure.empty()) {
      rec.failure = "outside paper band: " + rec.result.band_failure;
    }
    if (rec.failure.empty() && k < reference.size() &&
        rec.result.digest != reference[k]) {
      rec.failure = "digest differs from the reference";
    }
    if (!rec.failure.empty()) {
      if (failed < kMaxReportedFailures) {
        std::cerr << "perfbench: op " << k << " failed: " << rec.failure
                  << "\n";
      }
      ++failed;
    }
    ops.push_back(std::move(rec));
  }

  if (!a.digests_out.empty()) {
    std::vector<std::uint64_t> digests;
    for (const OpRecord& rec : ops) {
      digests.push_back(rec.result.digest);
    }
    write_digests(a.digests_out, a, digests);
  }
  if (!a.trace_out.empty()) {
    std::ofstream out(a.trace_out);
    tracer.write_jsonl(out);
  }

  const auto n = static_cast<double>(ops.size());
  std::vector<double> op_ms;
  double paper_err_sum = 0.0;
  std::size_t paper_err_ops = 0;
  double cache_hits = 0.0;
  double cache_misses = 0.0;
  double cache_evictions = 0.0;
  double mux_bits = 0.0;
  for (const OpRecord& rec : ops) {
    op_ms.push_back(rec.ms);
    if (paper_err_ops < kPaperOps) {
      paper_err_sum += rec.result.paper_err_ps;
      ++paper_err_ops;
    }
    cache_hits += static_cast<double>(rec.cache_hits);
    cache_misses += static_cast<double>(rec.cache_misses);
    cache_evictions += static_cast<double>(rec.cache_evictions);
    mux_bits += static_cast<double>(rec.mux_bits);
  }

  // Every op does the same amount of work, but host contention on a shared
  // machine comes in multi-second phases that slow every op up to 2x and
  // move the median and the tail from run to run. The fastest op is the
  // op time on a quiet host; the median and the tail go in the metadata.
  const double op_ms_min =
      op_ms.empty() ? 0.0 : *std::min_element(op_ms.begin(), op_ms.end());
  std::vector<Metric> metrics;
  if (!a.traced) {
    metrics = {
        {"op_ms_min", op_ms_min, "ms"},
        // Simulated UI = bits through the serializer (pecl.mux.bits).
        {"sim_bits_per_s",
         op_ms_min > 0.0 ? mux_bits / n / (op_ms_min / 1000.0) : 0.0, "UI/s"},
        {"setup_s",
         setup_s.empty() ? 0.0
                         : *std::min_element(setup_s.begin(), setup_s.end()),
         "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"paper_err_ps",
         paper_err_ops > 0 ? paper_err_sum / static_cast<double>(paper_err_ops)
                           : 0.0,
         "ps"},
    };
  } else {
    const auto self = tracer.self_ns_by_layer();
    auto self_ns = [&](const char* layer) {
      const auto it = self.find(layer);
      return it == self.end() ? 0.0 : static_cast<double>(it->second);
    };
    const double op_ns = static_cast<double>(tracer.total_ns("op"));
    auto share = [&](double ns) { return op_ns > 0.0 ? ns / op_ns : 0.0; };
    auto per = [](double x, double count) {
      return count > 0.0 ? x / count : 0.0;
    };
    const auto generated = static_cast<double>(counts.generated_bits);
    const auto rendered = static_cast<double>(counts.render_samples);
    const auto eye_samples = static_cast<double>(counts.eye_samples);
    const auto crossing_samples = static_cast<double>(counts.crossing_samples);
    const auto loopback = static_cast<double>(counts.loopback_samples);
    const double analysis_ns =
        self_ns("analysis.eye_metrics") + self_ns("analysis.decompose") +
        self_ns("analysis.edge_jitter") + self_ns("analysis.bathtub_opening");
    metrics = {
        {"core.generate.ns_per_bit", per(self_ns("core.generate"), generated),
         "ns/bit"},
        {"core.generate.share", share(self_ns("core.generate")), "frac"},
        {"core.program.share", share(self_ns("core.program")), "frac"},
        {"signal.render.ns_per_sample", per(self_ns("signal.render"), rendered),
         "ns/sample"},
        {"signal.render.share", share(self_ns("signal.render")), "frac"},
        {"signal.render.samples_per_op", per(rendered + loopback, n),
         "samples"},
        {"signal.render.edges_per_ksample",
         per(1000.0 * static_cast<double>(counts.window_edges), rendered),
         "edges/ksample"},
        {"sink.eye.ns_per_sample", per(self_ns("sink.eye"), eye_samples),
         "ns/sample"},
        {"sink.eye.share", share(self_ns("sink.eye")), "frac"},
        {"sink.crossing.ns_per_sample",
         per(self_ns("sink.crossing"), crossing_samples), "ns/sample"},
        {"sink.crossing.share", share(self_ns("sink.crossing")), "frac"},
        {"analysis.eye_metrics.us_per_op",
         per(self_ns("analysis.eye_metrics") / 1000.0, n), "us"},
        {"analysis.decompose.us_per_op",
         per(self_ns("analysis.decompose") / 1000.0, n), "us"},
        {"analysis.edge_jitter.us_per_op",
         per(self_ns("analysis.edge_jitter") / 1000.0, n), "us"},
        {"analysis.bathtub_opening.us_per_op",
         per(self_ns("analysis.bathtub_opening") / 1000.0, n), "us"},
        {"analysis.share", share(analysis_ns), "frac"},
        {"minitester.acquisitions_per_scan",
         per(static_cast<double>(counts.acquisitions), n), "count"},
        {"minitester.samples_per_scan", per(loopback, n), "samples"},
        {"minitester.loopback.ns_per_sample",
         per(self_ns("minitester.bathtub"), loopback), "ns/sample"},
        {"minitester.loopback.share", share(self_ns("minitester.bathtub")),
         "frac"},
        {"pecl.mux.bits_per_op", per(mux_bits, n), "bits"},
        {"signal.render_cache.hits", per(cache_hits, n), "count"},
        {"signal.render_cache.misses", per(cache_misses, n), "count"},
        {"signal.render_cache.evictions", per(cache_evictions, n), "count"},
        {"trace.unaccounted_share", share(self_ns("op")), "frac"},
        {"trace.op_ms_min", op_ms_min, "ms"},
        {"trace.replica_mismatches", static_cast<double>(replica_mismatches),
         "count"},
    };
  }

  const bool correct = failed == 0 && !ops.empty() && mgt::obs::enabled();
  if (!mgt::obs::enabled()) {
    std::cerr << "perfbench: obs is disabled, so the render-cache guard "
                 "cannot see replays\n";
  }
  std::cout << run_metadata(a, op_ms) << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << ops.size() << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << json_string(metrics[i].name)
              << ": {\"value\": " << json_number(metrics[i].value)
              << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
