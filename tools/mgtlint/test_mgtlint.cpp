// Fixture suite for mgtlint: every rule gets at least one known-bad snippet
// (must fire) and one allowlisted snippet (must stay silent), plus lexer and
// scoping edge cases. The snippets live in raw strings, which the lexer
// skips — so this file itself lints clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint.hpp"

namespace {

using mgtlint::Diagnostic;
using mgtlint::FileKind;
using mgtlint::lint_source;

std::vector<std::string> fired_rules(std::string_view path,
                                     std::string_view code) {
  std::vector<std::string> rules;
  for (const auto& d : lint_source(path, code)) {
    rules.push_back(d.rule);
  }
  return rules;
}

bool fires(std::string_view path, std::string_view code,
           std::string_view rule) {
  const auto rules = fired_rules(path, code);
  return std::find(rules.begin(), rules.end(), std::string(rule)) !=
         rules.end();
}

// ------------------------------------------------------------ determinism --

TEST(MgtlintDeterminism, RandomDeviceBad) {
  EXPECT_TRUE(fires("src/a.cpp", R"(
    #include <random>
    int seed() { std::random_device rd; return (int)rd(); }
  )",
                    "no-random-device"));
}

TEST(MgtlintDeterminism, RandomDeviceAllowlisted) {
  EXPECT_FALSE(fires("src/a.cpp", R"(
    int seed() {
      std::random_device rd;  // mgtlint:allow(no-random-device)
      return (int)rd();
    }
  )",
                     "no-random-device"));
}

TEST(MgtlintDeterminism, AllowOnPreviousLine) {
  EXPECT_FALSE(fires("src/a.cpp", R"(
    // mgtlint:allow(no-random-device)
    std::random_device rd;
  )",
                     "no-random-device"));
}

TEST(MgtlintDeterminism, RandAndSrandBad) {
  const char* code = R"(
    int roll() { srand(7); return rand(); }
  )";
  EXPECT_TRUE(fires("src/a.cpp", code, "no-rand"));
  const auto rules = fired_rules("src/a.cpp", code);
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "no-rand"), 2);
}

TEST(MgtlintDeterminism, RandAllowlistedAndMembersExempt) {
  EXPECT_FALSE(fires("src/a.cpp", R"(
    int roll(Rng& rng) { return (int)rng.rand(); }
    int legacy() { return rand(); }  // mgtlint:allow(no-rand)
  )",
                     "no-rand"));
}

TEST(MgtlintDeterminism, RandomizeIdentifierNotConfusedWithRand) {
  EXPECT_FALSE(fires("src/a.cpp", R"(
    void randomize_codes(int n);
    int strand(int x) { return x; }
  )",
                     "no-rand"));
}

TEST(MgtlintDeterminism, TimeBadOutsideBench) {
  EXPECT_TRUE(fires("src/a.cpp", "long now() { return time(nullptr); }",
                    "no-time"));
  EXPECT_TRUE(fires("tests/t.cpp", "long now() { return time(nullptr); }",
                    "no-time"));
}

TEST(MgtlintDeterminism, TimeAllowedInBenchAndAsMember) {
  EXPECT_FALSE(fires("bench/b.cpp", "long now() { return time(nullptr); }",
                     "no-time"));
  EXPECT_FALSE(fires("src/a.cpp", "auto t = sim.time();", "no-time"));
  EXPECT_FALSE(fires("src/a.cpp",
                     "double rise_time(int code); auto x = rise_time(3);",
                     "no-time"));
}

TEST(MgtlintDeterminism, TimeAllowlisted) {
  EXPECT_FALSE(fires("src/a.cpp",
                     "long now() { return time(nullptr); }  "
                     "// mgtlint:allow(no-time)",
                     "no-time"));
}

TEST(MgtlintDeterminism, WallClockBadOutsideBench) {
  EXPECT_TRUE(fires("src/a.cpp",
                    "auto t = std::chrono::steady_clock::now();",
                    "no-wall-clock"));
  EXPECT_TRUE(fires("examples/e.cpp",
                    "auto t = std::chrono::system_clock::now();",
                    "no-wall-clock"));
  EXPECT_TRUE(fires("src/a.cpp",
                    "auto t = std::chrono::high_resolution_clock::now();",
                    "no-wall-clock"));
}

TEST(MgtlintDeterminism, WallClockAllowedInBenchAndAllowlisted) {
  EXPECT_FALSE(fires("bench/b.cpp",
                     "auto t = std::chrono::steady_clock::now();",
                     "no-wall-clock"));
  EXPECT_FALSE(fires("bench/b.cpp",
                     "auto t = std::chrono::high_resolution_clock::now();",
                     "no-wall-clock"));
  EXPECT_FALSE(fires("src/a.cpp",
                     "auto t = std::chrono::steady_clock::now();  "
                     "// mgtlint:allow(no-wall-clock)",
                     "no-wall-clock"));
}

TEST(MgtlintDeterminism, UnorderedIterationBad) {
  EXPECT_TRUE(fires("src/a.cpp", R"(
    #include <unordered_map>
    double total(const std::unordered_map<int, double>& weights) {
      double sum = 0.0;
      for (const auto& kv : weights) { sum += kv.second; }
      return sum;
    }
  )",
                    "no-unordered-iter"));
}

TEST(MgtlintDeterminism, UnorderedBeginCallBad) {
  EXPECT_TRUE(fires("src/a.cpp", R"(
    std::unordered_set<int> pool;
    auto it = pool.begin();
  )",
                    "no-unordered-iter"));
}

TEST(MgtlintDeterminism, UnorderedIterationAllowlistedAndLookupFine) {
  EXPECT_FALSE(fires("src/a.cpp", R"(
    std::unordered_map<int, double> weights;
    double w = weights.at(3);          // keyed lookup: order-independent
    // mgtlint:allow(no-unordered-iter)
    for (const auto& kv : weights) { use(kv); }
  )",
                     "no-unordered-iter"));
}

TEST(MgtlintDeterminism, OrderedContainerIterationFine) {
  EXPECT_FALSE(fires("src/a.cpp", R"(
    std::map<int, double> weights;
    for (const auto& kv : weights) { use(kv); }
  )",
                     "no-unordered-iter"));
}

// --------------------------------------------------- wall-clock -> metrics --

TEST(MgtlintWallclockMetric, ClockIntoFreeHelperBad) {
  EXPECT_TRUE(fires("src/a.cpp", R"(
    void f() {
      obs::add_counter("x", std::chrono::steady_clock::now()
                                .time_since_epoch().count());
    }
  )",
                    "no-wallclock-metric"));
  EXPECT_TRUE(fires("src/a.cpp", R"(
    void f() { obs::set_gauge("t", (double)time(nullptr)); }
  )",
                    "no-wallclock-metric"));
}

TEST(MgtlintWallclockMetric, ClockIntoChainedUpdateBad) {
  EXPECT_TRUE(fires("src/a.cpp", R"(
    void f() {
      obs::registry().counter("x").add(clock_gettime(0, nullptr));
    }
  )",
                    "no-wallclock-metric"));
  EXPECT_TRUE(fires("src/a.cpp", R"(
    void f() {
      obs::registry().histogram("h", 0.0, 1.0, 8).observe(rdtsc());
    }
  )",
                    "no-wallclock-metric"));
}

TEST(MgtlintWallclockMetric, FiresInBenchFilesToo) {
  // The broad no-wall-clock rule exempts bench/; this one does not — a
  // bench may time itself, but never through a metric.
  EXPECT_TRUE(fires("bench/bench_x.cpp", R"(
    void f() {
      obs::add_counter("x", std::chrono::steady_clock::now()
                                .time_since_epoch().count());
    }
  )",
                    "no-wallclock-metric"));
}

TEST(MgtlintWallclockMetric, SimValuesMembersAndProfileFine) {
  EXPECT_FALSE(fires("src/a.cpp", R"(
    void f(std::uint64_t n) { obs::add_counter("x", n); }
  )",
                     "no-wallclock-metric"));
  // `.time()` is a member read, not the libc wall clock.
  EXPECT_FALSE(fires("src/a.cpp", R"(
    void f(const Span& s) { obs::set_gauge("t", s.time()); }
  )",
                     "no-wallclock-metric"));
  // profile_add is the designated wall-clock channel (quarantined from the
  // deterministic snapshot), so it is exempt by construction.
  EXPECT_FALSE(fires("src/a.cpp", R"(
    void f(std::uint64_t wall_ns) {
      obs::registry().profile_add("scope", 1, 0, wall_ns);
    }
  )",
                     "no-wallclock-metric"));
  // An unrelated call chain ending in .add() is not a metric sink.
  EXPECT_FALSE(fires("src/a.cpp", R"(
    void f() { widget().add(std::chrono::steady_clock::now()); }
  )",
                     "no-wallclock-metric"));
}

TEST(MgtlintWallclockMetric, Allowlisted) {
  EXPECT_FALSE(fires("src/a.cpp", R"(
    void f() {
      // mgtlint:allow(no-wallclock-metric)
      obs::add_counter("x", (unsigned long long)time(nullptr));
    }
  )",
                     "no-wallclock-metric"));
}

// ------------------------------------------------------------ unit safety --

TEST(MgtlintUnits, RawDoubleParameterBad) {
  EXPECT_TRUE(fires("src/pecl/x.hpp", "void set_delay(double delay_ps);",
                    "unit-suffix-double"));
  EXPECT_TRUE(fires("src/signal/x.hpp", "void drive(double swing_mv);",
                    "unit-suffix-double"));
  EXPECT_TRUE(fires("src/a.hpp", "struct S { double rate_gbps = 0.0; };",
                    "unit-suffix-double"));
  EXPECT_TRUE(fires("src/a.hpp", "struct S { double f_ghz; };",
                    "unit-suffix-double"));
  EXPECT_TRUE(fires("src/a.hpp", "struct S { double opening_ui; };",
                    "unit-suffix-double"));
}

TEST(MgtlintUnits, RawDoubleAllowlisted) {
  EXPECT_FALSE(fires("src/a.hpp",
                     "void set_delay(double delay_ps);  "
                     "// mgtlint:allow(unit-suffix-double)",
                     "unit-suffix-double"));
}

TEST(MgtlintUnits, StrongTypesAndImplFilesFine) {
  // Strong types carry the unit; the suffix rule only bites raw doubles.
  EXPECT_FALSE(fires("src/a.hpp", "void set_delay(Picoseconds delay);",
                     "unit-suffix-double"));
  // Function *names* with a unit suffix document their return value.
  EXPECT_FALSE(fires("src/a.hpp", "double worst_residual_ps() const;",
                     "unit-suffix-double"));
  // The rule covers the public API surface (headers), not .cpp internals.
  EXPECT_FALSE(fires("src/a.cpp", "void set_delay(double delay_ps) {}",
                     "unit-suffix-double"));
}

TEST(MgtlintUnits, FloatInSrcBad) {
  EXPECT_TRUE(fires("src/a.cpp", "float gain = 1.0f;", "no-float"));
  EXPECT_TRUE(fires("src/a.hpp", "float gain();", "no-float"));
}

TEST(MgtlintUnits, FloatAllowlistedAndOutsideSrcFine) {
  EXPECT_FALSE(fires("src/a.cpp",
                     "float gain = 1.0f;  // mgtlint:allow(no-float)",
                     "no-float"));
  EXPECT_FALSE(fires("bench/b.cpp", "float gain = 1.0f;", "no-float"));
  // Words containing "float" are not the keyword.
  EXPECT_FALSE(fires("src/a.cpp", "bool floating_output = false;",
                     "no-float"));
}

// ------------------------------------------------------- contract hygiene --

TEST(MgtlintContracts, AssertBad) {
  EXPECT_TRUE(fires("src/a.cpp", "void f(int n) { assert(n > 0); }",
                    "no-assert"));
}

TEST(MgtlintContracts, AssertAllowlistedAndRelativesFine) {
  EXPECT_FALSE(fires("src/a.cpp",
                     "void f(int n) { assert(n > 0); }  "
                     "// mgtlint:allow(no-assert)",
                     "no-assert"));
  EXPECT_FALSE(fires("src/a.cpp", "static_assert(sizeof(int) == 4);",
                     "no-assert"));
  EXPECT_FALSE(fires("tests/t.cpp", "ASSERT_EQ(a, b); MGT_CHECK(a > 0);",
                     "no-assert"));
}

TEST(MgtlintContracts, UsingNamespaceHeaderBad) {
  EXPECT_TRUE(fires("src/a.hpp", "using namespace std;",
                    "no-using-namespace-header"));
}

TEST(MgtlintContracts, UsingNamespaceCppFineAndAllowlisted) {
  EXPECT_FALSE(fires("src/a.cpp", "using namespace mgt;",
                     "no-using-namespace-header"));
  EXPECT_FALSE(fires("src/a.hpp",
                     "using namespace std;  "
                     "// mgtlint:allow(no-using-namespace-header)",
                     "no-using-namespace-header"));
  EXPECT_FALSE(fires("src/a.hpp", "using mgt::Picoseconds;",
                     "no-using-namespace-header"));
}

TEST(MgtlintContracts, NonExplicitSingleArgCtorBad) {
  EXPECT_TRUE(fires("src/a.hpp", R"(
    class Delay {
    public:
      Delay(double ps);
    };
  )",
                    "explicit-ctor"));
  // Trailing defaulted params still make it single-argument callable.
  EXPECT_TRUE(fires("src/a.hpp", R"(
    struct Delay {
      Delay(double ps, int taps = 4);
    };
  )",
                    "explicit-ctor"));
}

TEST(MgtlintContracts, ExplicitCtorAndSpecialMembersFine) {
  EXPECT_FALSE(fires("src/a.hpp", R"(
    class Delay {
    public:
      Delay() = default;
      explicit Delay(double ps);
      constexpr explicit Delay(int code);
      Delay(const Delay& other) = default;
      Delay(Delay&& other) = default;
      Delay(double ps, int taps);
      ~Delay();
    private:
      double ps_ = 0.0;
    };
  )",
                     "explicit-ctor"));
}

TEST(MgtlintContracts, CtorAllowlisted) {
  EXPECT_FALSE(fires("src/a.hpp", R"(
    class Delay {
    public:
      Delay(double ps);  // mgtlint:allow(explicit-ctor)
    };
  )",
                     "explicit-ctor"));
}

TEST(MgtlintContracts, MemberInitListDelegationNotFlagged) {
  EXPECT_FALSE(fires("src/a.hpp", R"(
    class Delay {
    public:
      explicit Delay(double ps) : ps_(ps) {}
      Delay(int code, double step) : Delay(code * step) {}
    private:
      double ps_;
    };
  )",
                     "explicit-ctor"));
}

TEST(MgtlintContracts, NestedClassTracking) {
  EXPECT_TRUE(fires("src/a.hpp", R"(
    class Outer {
    public:
      struct Config {
        Config(int bins);
      };
      explicit Outer(Config c);
    };
  )",
                    "explicit-ctor"));
}

TEST(MgtlintContracts, EmptyCatchBad) {
  EXPECT_TRUE(fires("src/a.cpp", R"(
    void f() {
      try { g(); } catch (...) {}
    }
  )",
                    "no-catch-ignore"));
  // A comment is not handling: the lexer strips it, the body stays empty.
  EXPECT_TRUE(fires("src/a.cpp", R"(
    void f() {
      try { g(); } catch (const Error&) { /* best effort */ }
    }
  )",
                    "no-catch-ignore"));
}

TEST(MgtlintContracts, NonEmptyCatchAndAllowlistedFine) {
  EXPECT_FALSE(fires("src/a.cpp", R"(
    void f() {
      try { g(); } catch (const Error& e) { ++failures; }
    }
  )",
                     "no-catch-ignore"));
  EXPECT_FALSE(fires("src/a.cpp", R"(
    void f() {
      // mgtlint:allow(no-catch-ignore)
      try { g(); } catch (...) {}
    }
  )",
                     "no-catch-ignore"));
  // Outside src/ the rule stays quiet (tests legitimately probe throws).
  EXPECT_FALSE(fires("tests/a.cpp", R"(
    void f() {
      try { g(); } catch (...) {}
    }
  )",
                     "no-catch-ignore"));
}

TEST(MgtlintContracts, CatchByValueBad) {
  EXPECT_TRUE(fires("src/a.cpp", R"(
    void f() {
      try { g(); } catch (Error e) { log(e); }
    }
  )",
                    "catch-by-reference"));
}

TEST(MgtlintContracts, CatchByReferenceEllipsisAndAllowlistedFine) {
  EXPECT_FALSE(fires("src/a.cpp", R"(
    void f() {
      try { g(); } catch (const Error& e) { log(e); }
    }
  )",
                     "catch-by-reference"));
  EXPECT_FALSE(fires("src/a.cpp", R"(
    void f() {
      try { g(); } catch (...) { ++failures; }
    }
  )",
                     "catch-by-reference"));
  EXPECT_FALSE(fires("src/a.cpp", R"(
    void f() {
      // mgtlint:allow(catch-by-reference)
      try { g(); } catch (Error e) { log(e); }
    }
  )",
                     "catch-by-reference"));
}

TEST(MgtlintContracts, UncheckedStatusBad) {
  EXPECT_TRUE(fires("src/a.cpp", R"(
    void f(core::TestSystem& sys) {
      sys.self_test();
    }
  )",
                    "no-unchecked-status"));
  EXPECT_TRUE(fires("src/a.cpp", R"(
    void f(link::LinkChannel& ch, const BitVector& p) {
      ch.send_payload(p);
    }
  )",
                    "no-unchecked-status"));
  EXPECT_TRUE(fires("src/a.cpp", R"(
    void f(Deep& d) {
      d.sys->inner.self_test();
    }
  )",
                    "no-unchecked-status"));
}

TEST(MgtlintContracts, UncheckedStatusConsumedResultFine) {
  EXPECT_FALSE(fires("src/a.cpp", R"(
    bool f(core::TestSystem& sys) {
      const auto report = sys.self_test();
      return sys.self_test().worst() == fault::HealthStatus::kOk;
    }
  )",
                     "no-unchecked-status"));
  EXPECT_FALSE(fires("src/a.cpp", R"(
    fault::HealthReport f(core::TestSystem& sys) {
      return sys.self_test();
    }
  )",
                     "no-unchecked-status"));
  EXPECT_FALSE(fires("src/a.cpp", R"(
    void f(link::LinkChannel& ch, const std::vector<BitVector>& ps) {
      const auto results = ch.transfer(ps);
      if (ch.send_payload(ps[0]).delivered) { note(); }
    }
  )",
                     "no-unchecked-status"));
}

TEST(MgtlintContracts, UncheckedStatusVoidCastAndAllowlistedFine) {
  EXPECT_FALSE(fires("src/a.cpp", R"(
    void f(core::TestSystem& sys) {
      (void)sys.self_test();
    }
  )",
                     "no-unchecked-status"));
  EXPECT_FALSE(fires("src/a.cpp", R"(
    void f(link::LinkChannel& ch, const BitVector& p) {
      ch.send_payload(p);  // mgtlint:allow(no-unchecked-status)
    }
  )",
                     "no-unchecked-status"));
}

TEST(MgtlintContracts, UncheckedDecodeBad) {
  EXPECT_TRUE(fires("src/a.cpp", R"(
    void f(std::uint8_t byte) {
      usb::decode_pid(byte);
    }
  )",
                    "no-unchecked-decode"));
  EXPECT_TRUE(fires("src/a.cpp", R"(
    void f(const char* raw) {
      util::parse_thread_count(raw);
    }
  )",
                    "no-unchecked-decode"));
  EXPECT_TRUE(fires("src/a.cpp", R"(
    void f(Frame& frame, const Bytes& b) {
      frame.decoder.decode_frame(b);
    }
  )",
                    "no-unchecked-decode"));
}

TEST(MgtlintContracts, UncheckedDecodeCheckedResultFine) {
  EXPECT_FALSE(fires("src/a.cpp", R"(
    bool f(std::uint8_t byte, const char* raw) {
      if (!usb::decode_pid(byte)) {
        return false;
      }
      const auto v = util::parse_thread_count(raw);
      return usb::decode_pid(byte).has_value();
    }
  )",
                     "no-unchecked-decode"));
}

TEST(MgtlintContracts, UncheckedDecodeVoidCastAllowAndNonSrcFine) {
  EXPECT_FALSE(fires("src/a.cpp", R"(
    void f(const char* raw) {
      (void)util::parse_thread_count(raw);
    }
  )",
                     "no-unchecked-decode"));
  EXPECT_FALSE(fires("src/a.cpp", R"(
    void f(const char* raw) {
      util::parse_thread_count(raw);  // mgtlint:allow(no-unchecked-decode)
    }
  )",
                     "no-unchecked-decode"));
  // Outside src/ the rule stays quiet: tests/benches legitimately call
  // decoders for side effects on counters.
  EXPECT_FALSE(fires("tests/t.cpp", R"(
    void f(const char* raw) {
      util::parse_thread_count(raw);
    }
  )",
                     "no-unchecked-decode"));
}

// ------------------------------------------------------------------ lexer --

TEST(MgtlintLexer, StringsCommentsAndIncludesAreSkipped) {
  EXPECT_FALSE(fires("src/a.cpp", R"__(
    #include <ctime>
    const char* label = "guard time (each side)";
    // calling time() here would be bad
    /* std::random_device in prose */
    char c = '"';
  )__",
                     "no-time"));
  EXPECT_FALSE(fires("src/a.cpp", "const char* s = \"rand()\";", "no-rand"));
  EXPECT_FALSE(fires("src/a.cpp",
                     "const char* s = R\"(std::random_device)\";",
                     "no-random-device"));
}

// A digit separator must not open a char literal: read as a quote, the `'`
// in `10'000` hid every token up to the next quote in the file.
TEST(MgtlintLexer, DigitSeparatorDoesNotHideCode) {
  EXPECT_TRUE(fires("src/b.cpp",
                    "void f() { g(10'000); }\nint r() { return rand(); }",
                    "no-rand"));
  EXPECT_TRUE(fires("src/b.cpp",
                    "auto m = 0xFF'FF + 1'000.5e-3;\nint r = rand();",
                    "no-rand"));
}

TEST(MgtlintLexer, AllowListsMultipleRules) {
  EXPECT_TRUE(fired_rules("src/a.cpp",
                          "// mgtlint:allow(no-rand, no-time)\n"
                          "int x = rand() + (int)time(nullptr);")
                  .empty());
}

TEST(MgtlintLexer, AllowOfOneRuleDoesNotSuppressAnother) {
  EXPECT_TRUE(fires("src/a.cpp",
                    "int x = rand();  // mgtlint:allow(no-time)", "no-rand"));
}

TEST(MgtlintLexer, DiagnosticPositionsAreOneBased) {
  const auto diags = lint_source("src/a.cpp", "int x = rand();");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 1u);
  EXPECT_EQ(diags[0].column, 9u);
  EXPECT_EQ(mgtlint::format_diagnostic(diags[0]).substr(0, 14),
            "src/a.cpp:1:9:");
}

// ------------------------------------------------------------------ misc --

TEST(MgtlintMisc, ClassifyPath) {
  EXPECT_EQ(mgtlint::classify_path("src/pecl/mux.hpp"),
            FileKind::kSourceHeader);
  EXPECT_EQ(mgtlint::classify_path("/root/repo/src/pecl/mux.cpp"),
            FileKind::kSourceImpl);
  EXPECT_EQ(mgtlint::classify_path("bench/bench_common.hpp"),
            FileKind::kBenchFile);
  EXPECT_EQ(mgtlint::classify_path("tests/test_core.cpp"),
            FileKind::kTestFile);
  EXPECT_EQ(mgtlint::classify_path("examples/quickstart.cpp"),
            FileKind::kExampleFile);
  EXPECT_EQ(mgtlint::classify_path("tools/mgtlint/lint.cpp"),
            FileKind::kToolFile);
}

// -------------------------------------------------------- unbounded wait --

TEST(MgtlintUnboundedWait, CondVarWaitBad) {
  EXPECT_TRUE(fires("src/util/pool.cpp", R"(
    void block(std::condition_variable& cv, std::unique_lock<std::mutex>& l) {
      cv.wait(l);
    }
  )",
                    "no-unbounded-wait"));
}

TEST(MgtlintUnboundedWait, ThreadJoinAndSemaphoreAcquireBad) {
  EXPECT_TRUE(fires("src/service/scheduler.cpp", R"(
    void stop(std::thread& t) { t.join(); }
  )",
                    "no-unbounded-wait"));
  EXPECT_TRUE(fires("src/service/scheduler.cpp", R"(
    void take(std::counting_semaphore<4>& s) { s.acquire(); }
  )",
                    "no-unbounded-wait"));
}

TEST(MgtlintUnboundedWait, ArrowAccessBad) {
  EXPECT_TRUE(fires("src/util/pool.cpp", R"(
    void block(std::condition_variable* cv,
               std::unique_lock<std::mutex>& l) { cv->wait(l); }
  )",
                    "no-unbounded-wait"));
}

TEST(MgtlintUnboundedWait, DeadlineVariantsFine) {
  EXPECT_FALSE(fires("src/util/pool.cpp", R"(
    bool block(std::condition_variable& cv, std::unique_lock<std::mutex>& l,
               std::chrono::milliseconds d) {
      return cv.wait_for(l, d) == std::cv_status::no_timeout;
    }
    bool take(std::counting_semaphore<4>& s, std::chrono::milliseconds d) {
      return s.try_acquire_for(d);
    }
  )",
                     "no-unbounded-wait"));
}

TEST(MgtlintUnboundedWait, FreeFunctionsAndOtherTreesFine) {
  // A free function named wait() is not a blocking primitive call, and the
  // rule only polices src/ (tests and benches may block indefinitely).
  EXPECT_FALSE(fires("src/core/sim.cpp", R"(
    void wait(int ticks);
    void run() { wait(4); }
  )",
                     "no-unbounded-wait"));
  EXPECT_FALSE(fires("tests/test_pool.cpp", R"(
    void stop(std::thread& t) { t.join(); }
  )",
                     "no-unbounded-wait"));
}

TEST(MgtlintUnboundedWait, AllowlistSuppresses) {
  EXPECT_FALSE(fires("src/util/pool.cpp", R"(
    void stop(std::thread& t) {
      t.join();  // mgtlint:allow(no-unbounded-wait)
    }
  )",
                     "no-unbounded-wait"));
}

TEST(MgtlintMisc, AllRulesListsEveryRuleOnce) {
  std::vector<std::string_view> ids;
  for (const auto& r : mgtlint::rule_catalog()) {
    ids.push_back(r.id);
  }
  EXPECT_EQ(ids.size(), 17u);
  for (const auto id : ids) {
    EXPECT_EQ(std::count(ids.begin(), ids.end(), id), 1) << std::string(id);
  }
}

// ------------------------------------------- allow directive attribution --

// Regression: a directive inside a multi-line /* */ comment must be
// attributed to the line it is *written* on, not the comment's first line.
TEST(MgtlintAllow, DirectiveOnLastCommentLineCoversNextLine) {
  EXPECT_FALSE(fires("src/a.cpp", R"(
    /* legacy seeding, scheduled for removal
       mgtlint:allow(no-rand) */
    int r() { return rand(); }
  )",
                     "no-rand"));
}

TEST(MgtlintAllow, DirectiveOnFirstCommentLineDoesNotReachPastComment) {
  EXPECT_TRUE(fires("src/a.cpp", R"(
    /* mgtlint:allow(no-rand)
       two more lines of prose push the code
       out of the directive's reach */
    int r() { return rand(); }
  )",
                    "no-rand"));
}

// ------------------------------------------------------- raw-double-param --

int count_rule(std::string_view path, std::string_view code,
               std::string_view rule) {
  const auto rules = fired_rules(path, code);
  return static_cast<int>(std::count(rules.begin(), rules.end(), rule));
}

// The shape of the unit leak that once reached a jitter-theory helper: a
// public API whose parameter is a bare double, so a caller's `.ps()` (or a
// ns, or a UI count) crosses the boundary with no unit to check.
TEST(MgtlintRawDoubleParam, FreshRawDoubleApiFires) {
  const auto diags = lint_source("src/pll/phase.hpp", R"(
    namespace pll {
    void set_phase(double x);
    }  // namespace pll
  )");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "raw-double-param");
  EXPECT_EQ(diags[0].line, 3u);
  EXPECT_NE(diags[0].message.find("'x'"), std::string::npos);
}

TEST(MgtlintRawDoubleParam, FiresOnEveryDeclarationShape) {
  const char* rule = "raw-double-param";
  EXPECT_EQ(count_rule("src/a.hpp", "void f(int n, double gain);", rule), 1);
  EXPECT_EQ(count_rule("src/a.hpp", R"(
    Picoseconds fit(const std::vector<double>& xs,
                    double scale,
                    double offset) const;
  )",
                       rule),
            2);
  EXPECT_EQ(count_rule("src/a.hpp", "Config make(double skew = 1.0);", rule),
            1);
  EXPECT_EQ(count_rule("src/a.hpp", "void g(const double& a, double& b);",
                       rule),
            2);
  EXPECT_EQ(count_rule("src/a.hpp", "void g(double* out);", rule), 1);
  EXPECT_EQ(count_rule("src/a.hpp",
                       "using Runner = std::function<Result(double level)>;",
                       rule),
            1);
  // An unnamed parameter is still a parameter.
  EXPECT_EQ(count_rule("src/a.hpp", "using F = std::function<double(double)>;",
                       rule),
            1);
  EXPECT_EQ(count_rule("src/a.hpp", "void h(double);", rule), 1);
  // Inline member definitions declare their parameters too.
  EXPECT_EQ(count_rule("src/a.hpp", R"(
    struct S {
      void set(double v) { v_ = v; }
      double v_ = 0.0;
    };
  )",
                       rule),
            1);
}

TEST(MgtlintRawDoubleParam, DoesNotDoubleReportAUnitSuffixedName) {
  const auto rules =
      fired_rules("src/pecl/x.hpp", "void set_delay(double delay_ps);");
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0], "unit-suffix-double");
}

// The suite name predates the per-file rule: these two exemptions were
// first pinned for the cross-TU unit-flow check and still hold for
// raw-double-param.
TEST(MgtlintCrossTu, UtilNumericSubstrateIsExempt) {
  // rng/digest/hashing deliberately erase units; gaussian(mean, sigma) on
  // raw doubles is the contract there, not an omission. obs/ metrics are
  // unit-agnostic the same way.
  const char* rule = "raw-double-param";
  EXPECT_FALSE(fires("src/util/rng.hpp",
                     "double gaussian(double mean, double sigma);", rule));
  EXPECT_FALSE(fires("src/obs/metrics.hpp", "void set_phase(double x);",
                     rule));
  EXPECT_FALSE(fires("/home/u/mgt/src/util/stats.hpp",
                     "void set_phase(double x);", rule));
}

TEST(MgtlintCrossTu, ImplOnlyDeclarationStaysSilent) {
  // No header declaration -> not a public API boundary; a TU-local helper
  // taking a raw double is fine.
  EXPECT_FALSE(fires("src/pll/tune.cpp", R"(
    static void set_phase_impl(double x) { poke(x); }
    void tune(Picoseconds step) { set_phase_impl(step.ps()); }
  )",
                     "raw-double-param"));
}

TEST(MgtlintRawDoubleParam, SilentOutsideItsScope) {
  const char* decl = "void set_phase(double x);";
  const char* rule = "raw-double-param";
  // Tests and the other trees are not API surface.
  EXPECT_FALSE(fires("tests/test_pll.cpp", decl, rule));
  EXPECT_FALSE(fires("bench/bench_common.hpp", decl, rule));
  EXPECT_FALSE(fires("examples/demo.cpp", decl, rule));
}

TEST(MgtlintRawDoubleParam, SilentOnNonParameterDoubles) {
  const char* rule = "raw-double-param";
  EXPECT_FALSE(fires("src/a.hpp", "void f(Picoseconds t, Millivolts v);",
                     rule));
  EXPECT_FALSE(fires("src/a.hpp", R"(
    struct S {
      double gain = 1.0;
      double a, b;
      [[nodiscard]] double ratio() const;
      std::vector<double> samples;
      std::pair<double, double> range;
    };
    double eval(std::span<const double> xs, std::tuple<int, double, int> t);
    using Scalar = double;
    template <typename T> T cast_of(T v) { return static_cast<double>(v); }
  )",
                     rule));
  // Casts and locals inside inline bodies.
  EXPECT_FALSE(fires("src/a.hpp", R"(
    inline Picoseconds mid(Picoseconds a, int n) {
      for (double k = 0.0; k < n; k += 1.0) { a = a + Picoseconds{k}; }
      const auto scale = [](double s) { return s * 2.0; };
      const double half = (double)n / 2.0;
      return Picoseconds{double(n) * sizeof(double) + scale(half)};
    }
  )",
                     rule));
}

TEST(MgtlintRawDoubleParam, AllowSuppresses) {
  EXPECT_TRUE(fired_rules("src/analysis/ber.hpp",
                          "double q_of_ber(double ber);  "
                          "// mgtlint:allow(raw-double-param)")
                  .empty());
  EXPECT_TRUE(fired_rules("src/analysis/ber.hpp", R"(
    // Dimensionless BER. mgtlint:allow(raw-double-param)
    double q_of_ber(double ber);
  )")
                  .empty());
}

}  // namespace
