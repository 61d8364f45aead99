// Unit tests for src/util: units, RNG, bit vectors, statistics, tables.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <set>
#include <sstream>

#include "util/bitvec.hpp"
#include "util/digest.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace mgt {
namespace {

using namespace mgt::literals;

// ---------------------------------------------------------------- units --

TEST(Units, PicosecondArithmetic) {
  const Picoseconds a{400.0};
  const Picoseconds b{100.0};
  EXPECT_DOUBLE_EQ((a + b).ps(), 500.0);
  EXPECT_DOUBLE_EQ((a - b).ps(), 300.0);
  EXPECT_DOUBLE_EQ((a * 2.0).ps(), 800.0);
  EXPECT_DOUBLE_EQ((a / 4.0).ps(), 100.0);
  EXPECT_DOUBLE_EQ(a / b, 4.0);
  EXPECT_LT(b, a);
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(Picoseconds::from_ns(25.6).ps(), 25600.0);
  EXPECT_DOUBLE_EQ(Picoseconds{25600.0}.ns(), 25.6);
  EXPECT_DOUBLE_EQ(Millivolts{800.0}.volts(), 0.8);
  EXPECT_DOUBLE_EQ(Gigahertz{1.25}.period().ps(), 800.0);
  EXPECT_DOUBLE_EQ(GbitsPerSec{2.5}.unit_interval().ps(), 400.0);
  EXPECT_DOUBLE_EQ(GbitsPerSec::from_ui(Picoseconds{200.0}).gbps(), 5.0);
}

TEST(Units, Literals) {
  EXPECT_DOUBLE_EQ((400_ps).ps(), 400.0);
  EXPECT_DOUBLE_EQ((1.6_ns).ps(), 1600.0);
  EXPECT_DOUBLE_EQ((800_mV).mv(), 800.0);
  EXPECT_DOUBLE_EQ((2.5_Gbps).unit_interval().ps(), 400.0);
  EXPECT_DOUBLE_EQ((1.25_GHz).mhz(), 1250.0);
}

TEST(Units, CompoundAssignment) {
  Picoseconds t{100.0};
  t += Picoseconds{50.0};
  EXPECT_DOUBLE_EQ(t.ps(), 150.0);
  t -= Picoseconds{25.0};
  EXPECT_DOUBLE_EQ(t.ps(), 125.0);
  t *= 2.0;
  EXPECT_DOUBLE_EQ(t.ps(), 250.0);
}

TEST(Units, NegationAndScalarOrdering) {
  EXPECT_DOUBLE_EQ((-Picoseconds{40.0}).ps(), -40.0);
  EXPECT_DOUBLE_EQ((2.0 * Picoseconds{40.0}).ps(), 80.0);
  EXPECT_EQ(Picoseconds{40.0}, Picoseconds{40.0});
  EXPECT_GT(Picoseconds{40.0}, -Picoseconds{40.0});
  EXPECT_LE(Millivolts{0.0}, Millivolts{0.0});
}

TEST(Units, RatioEdgeCases) {
  // Ratio of like quantities is dimensionless, including the signed and
  // infinite cases a bathtub fit can produce.
  EXPECT_DOUBLE_EQ(Picoseconds{-200.0} / Picoseconds{400.0}, -0.5);
  EXPECT_DOUBLE_EQ(Picoseconds{0.0} / Picoseconds{400.0}, 0.0);
  EXPECT_TRUE(std::isinf(Picoseconds{1.0} / Picoseconds{0.0}));
  EXPECT_TRUE(std::isnan(Picoseconds{0.0} / Picoseconds{0.0}));
}

TEST(Units, PeriodAndUnitIntervalRoundTrips) {
  // f -> period -> f and rate -> UI -> rate are exact inverses.
  const Gigahertz f{1.25};
  EXPECT_DOUBLE_EQ(1e3 / f.period().ps(), f.ghz());
  const GbitsPerSec rate{5.0};
  EXPECT_DOUBLE_EQ(GbitsPerSec::from_ui(rate.unit_interval()).gbps(),
                   rate.gbps());
}

TEST(Units, UnitIntervalsScaleToAbsoluteTime) {
  const UnitIntervals opening{0.88};
  EXPECT_DOUBLE_EQ(opening.ui(), 0.88);
  EXPECT_DOUBLE_EQ(opening.at(Picoseconds{400.0}).ps(), 352.0);
  EXPECT_LT(UnitIntervals{0.5}, UnitIntervals{0.88});
}

TEST(Units, SlewRateDimensionalAnalysis) {
  const MvPerPs slope = Millivolts{800.0} / Picoseconds{120.0};
  EXPECT_NEAR(slope.mv_per_ps(), 6.6667, 1e-3);
  // slope * dt recovers the voltage change, in either operand order.
  EXPECT_NEAR((slope * Picoseconds{120.0}).mv(), 800.0, 1e-9);
  EXPECT_NEAR((Picoseconds{60.0} * slope).mv(), 400.0, 1e-9);
}

// ---------------------------------------------------------------- error --

TEST(Error, CheckWithMessagePassesSilently) {
  EXPECT_NO_THROW(MGT_CHECK(1 + 1 == 2));
  EXPECT_NO_THROW(MGT_CHECK(true, "never shown"));
}

TEST(Error, CheckFailureNamesConditionAndLocation) {
  const int lanes = 0;
  try {
    MGT_CHECK(lanes > 0);  // this line number appears in the message
    FAIL() << "MGT_CHECK did not throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("lanes > 0"), std::string::npos) << what;
    EXPECT_NE(what.find("test_util.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("check failed"), std::string::npos) << what;
    // file:line formatting with a plausible line number.
    EXPECT_NE(what.find(":"), std::string::npos) << what;
  }
}

TEST(Error, CheckCarriesOptionalMessageViaVaOpt) {
  // The __VA_OPT__ branch: a second argument lands in parentheses.
  try {
    MGT_CHECK(2 + 2 == 5, "arithmetic is broken");
    FAIL() << "MGT_CHECK did not throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos) << what;
    EXPECT_NE(what.find("(arithmetic is broken)"), std::string::npos) << what;
  }
  // And without one, no empty parentheses are appended.
  try {
    MGT_CHECK(false);
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).find("()"), std::string::npos);
  }
}

TEST(Error, CheckLineNumberMatchesCallSite) {
  const std::size_t expected_line = __LINE__ + 2;  // the MGT_CHECK below
  try {
    MGT_CHECK(false);
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(":" + std::to_string(expected_line) + ":"),
              std::string::npos)
        << what;
  }
}

TEST(Error, PassingCheckNeverEvaluatesItsMessage) {
  int built = 0;
  auto message = [&built] {
    ++built;
    return std::string("built");
  };
  for (int i = 0; i < 3; ++i) {
    MGT_CHECK(i < 3, message());
  }
  EXPECT_EQ(built, 0);
  EXPECT_THROW(MGT_CHECK(built > 0, message()), Error);
  EXPECT_EQ(built, 1);
}

TEST(Error, FailingCheckCarriesABuiltMessage) {
  const std::size_t n = 42;
  try {
    MGT_CHECK(n < 8, "got " + std::to_string(n));
    FAIL() << "MGT_CHECK did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("check failed: n < 8 (got 42)"),
              std::string::npos)
        << e.what();
  }
}

TEST(Error, CheckIsOneStatement) {
  // Unbraced if/else around the macro: the else binds to the outer if.
  auto guarded = [](bool take_check, bool ok) {
    int branch = 0;
    if (take_check)
      MGT_CHECK(ok, "guarded");
    else
      branch = 2;
    return branch;
  };
  EXPECT_EQ(guarded(true, true), 0);
  EXPECT_EQ(guarded(false, false), 2);
  EXPECT_THROW(guarded(true, false), Error);
}

TEST(Error, ErrorIsARuntimeError) {
  // Callers may catch std::exception; the message must survive the slice.
  try {
    throw Error("bring-up failed");
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "bring-up failed");
  }
}

// ------------------------------------------------------------------ rng --

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.next() == b.next() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-5.0, 5.0);
    EXPECT_GE(u, -5.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanAndVariance) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    stats.add(rng.uniform());
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.stddev(), std::sqrt(1.0 / 12.0), 0.01);
}

TEST(Rng, GaussianMoments) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) {
    stats.add(rng.gaussian(3.0, 2.0));
  }
  EXPECT_NEAR(stats.mean(), 3.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BelowZeroThrows) {
  Rng rng(1);
  EXPECT_THROW(rng.below(0), Error);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(23);
  Rng child = parent.fork();
  // Parent and child should not produce the same sequence.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += parent.next() == child.next() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsDeterministic) {
  Rng a(29);
  Rng b(29);
  Rng ca = a.fork();
  Rng cb = b.fork();
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(ca.next(), cb.next());
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, ForkMatchesPinnedStream) {
  // The first eight words of the parent (jumped by 2^128 steps) and of the
  // child (the pre-jump state) after one fork(), recorded on the jump loop
  // as first written. The two tests above hold for any rewrite of the
  // jump that changes the stream; these words do not.
  struct Golden {
    std::uint64_t seed;
    std::array<std::uint64_t, 8> parent, child;
  };
  const std::array<Golden, 2> golden = {{
      {1,
       {0xdafd92f1adffc5b9ULL, 0x89d5ed6828f5becfULL, 0xc81a7b85673e9dacULL,
        0xe3ed98a07ef5a746ULL, 0xe294a7e13e75c33cULL, 0xccf30d2611797724ULL,
        0x9d4b1fe0948c2378ULL, 0x04a810f6c7f4acc6ULL},
       {0xcfc5d07f6f03c29bULL, 0xbf424132963fe08dULL, 0x19a37d5757aaf520ULL,
        0xbf08119f05cd56d6ULL, 0x2f47184b86186fa4ULL, 0x97299fcae7202345ULL,
        0xfca3c79508f41507ULL, 0x85fea5c90363f221ULL}},
      {0xC0FFEE,
       {0x3a6bc996e17c0d26ULL, 0xa2bfb15f70366607ULL, 0x5707110dbc37cbb8ULL,
        0x97c1014be7ccdfd9ULL, 0x33587309086b2d63ULL, 0xf62b4db0010c7756ULL,
        0x94c4554c0f8bc1e3ULL, 0x23a69a1ced31cb13ULL},
       {0x8c7615e9af6b4ae5ULL, 0xd175fd6e7f597969ULL, 0xac823e0ae898e8ecULL,
        0x671278cc50163c69ULL, 0xb667cb9226a19096ULL, 0x5a29ff026eb6d50eULL,
        0x033317478868e9a6ULL, 0xeafc7ec5ec4add36ULL}},
  }};
  for (const Golden& g : golden) {
    SCOPED_TRACE(g.seed);
    Rng parent(g.seed);
    Rng child = parent.fork();
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(parent.next(), g.parent[i]) << "parent word " << i;
      EXPECT_EQ(child.next(), g.child[i]) << "child word " << i;
    }
  }
}

TEST(Rng, SeedsArePinned) {
  // splitmix64's reference stream from seed 0, and the seeds built on it:
  // Rng's first word and util::mix_seed, recorded while the library still
  // carried three copies of splitmix64.
  std::uint64_t x = 0;
  EXPECT_EQ(splitmix64(x), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(splitmix64(x), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(splitmix64(x), 0x06c45d188009454fULL);
  EXPECT_EQ(Rng(0).next(), 0x53175d61490b23dfULL);
  EXPECT_EQ(util::mix_seed(1, 2), 0xd039a9df2b022299ULL);
  EXPECT_EQ(util::mix_seed(0xC0FFEE, 7), 0x044b5dbd5a8d7633ULL);
}

// --------------------------------------------------------------- digest --

TEST(Digest, Fnv1aMatchesStandardVectors) {
  EXPECT_EQ(util::fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(util::fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(util::fnv1a("foobar"), 0x85944171f73967e8ULL);
}

TEST(Digest, Fnv64IsPinned) {
  // Fnv64's offset basis is not FNV-1a's (see digest.hpp). These values,
  // recorded before fnv1a() and Fnv64 shared a prime, hold the basis, the
  // byte order of a word and the bit pattern of a double.
  EXPECT_EQ(util::Fnv64{}.digest(), 0x14650fb0739d0383ULL);
  util::Fnv64 f;
  f.mix_u64(0x0123456789ABCDEFULL);
  f.mix_bool(true);
  f.mix_double(-0.0);
  f.mix_double(1.5);
  EXPECT_EQ(f.digest(), 0x4fcbf03f311ab9d3ULL);
}

// --------------------------------------------------------------- bitvec --

TEST(BitVector, BasicSetGet) {
  BitVector v(100);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_FALSE(v.get(42));
  v.set(42, true);
  EXPECT_TRUE(v.get(42));
  EXPECT_TRUE(v[42]);
  v.set(42, false);
  EXPECT_FALSE(v.get(42));
}

TEST(BitVector, OutOfRangeThrows) {
  BitVector v(10);
  EXPECT_THROW((void)v.get(10), Error);
  EXPECT_THROW(v.set(10, true), Error);
}

TEST(BitVector, FillConstructorKeepsPopcountHonest) {
  BitVector v(70, true);
  EXPECT_EQ(v.popcount(), 70u);
  BitVector w(64, true);
  EXPECT_EQ(w.popcount(), 64u);
}

TEST(BitVector, FromStringIgnoresSeparators) {
  const auto v = BitVector::from_string("1010 1100_11");
  EXPECT_EQ(v.size(), 10u);
  EXPECT_EQ(v.to_string(), "1010110011");
}

TEST(BitVector, PushBackAndAppend) {
  BitVector v;
  for (int i = 0; i < 130; ++i) {
    v.push_back(i % 3 == 0);
  }
  EXPECT_EQ(v.size(), 130u);
  EXPECT_TRUE(v.get(0));
  EXPECT_FALSE(v.get(1));
  EXPECT_TRUE(v.get(129));

  BitVector w = BitVector::from_string("11");
  w.append(BitVector::from_string("00"));
  EXPECT_EQ(w.to_string(), "1100");
}

TEST(BitVector, HammingDistance) {
  const auto a = BitVector::from_string("10101010");
  const auto b = BitVector::from_string("10011010");
  EXPECT_EQ(a.hamming_distance(b), 2u);
  EXPECT_EQ(a.hamming_distance(a), 0u);
  EXPECT_THROW((void)a.hamming_distance(BitVector(7)), Error);
}

TEST(BitVector, TransitionsAndRuns) {
  const auto v = BitVector::from_string("11100110");
  EXPECT_EQ(v.transition_count(), 3u);
  EXPECT_EQ(v.longest_run(), 3u);
  EXPECT_EQ(BitVector().longest_run(), 0u);
  EXPECT_EQ(BitVector::alternating(10).transition_count(), 9u);
}

TEST(BitVector, Slice) {
  const auto v = BitVector::from_string("0011010111");
  EXPECT_EQ(v.slice(2, 4).to_string(), "1101");
  EXPECT_THROW(v.slice(8, 4), Error);
}

class InterleaveRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(InterleaveRoundTrip, DeinterleaveInvertsInterleave) {
  const std::size_t k = GetParam();
  Rng rng(k * 7919);
  std::vector<BitVector> lanes;
  for (std::size_t i = 0; i < k; ++i) {
    lanes.push_back(BitVector::random(64, rng));
  }
  const BitVector serial = BitVector::interleave(lanes);
  EXPECT_EQ(serial.size(), 64 * k);
  const auto back = serial.deinterleave(k);
  ASSERT_EQ(back.size(), k);
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(back[i], lanes[i]) << "lane " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Lanes, InterleaveRoundTrip,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

TEST(BitVector, InterleaveOrdering) {
  // a0 b0 a1 b1 ...
  const auto a = BitVector::from_string("1111");
  const auto b = BitVector::from_string("0000");
  EXPECT_EQ(BitVector::interleave({a, b}).to_string(), "10101010");
}

TEST(BitVector, InterleaveRequiresEqualLanes) {
  EXPECT_THROW(BitVector::interleave(
                   {BitVector(4), BitVector(5)}),
               Error);
  EXPECT_THROW(BitVector::interleave({}), Error);
  EXPECT_THROW(BitVector(10).deinterleave(3), Error);
}

TEST(BitVector, RandomIsSeedDeterministic) {
  Rng a(5);
  Rng b(5);
  EXPECT_EQ(BitVector::random(999, a), BitVector::random(999, b));
}

// ---------------------------------------------------------------- stats --

// The phase fold's exact_fmod must be bitwise std::fmod, and positive_mod
// bitwise the fmod-based formula it replaced, on every input: values near
// multiples of the modulus (where the rounded quotient is one off),
// quotients at and past 2^52 (the std::fmod fallback), signed zeros,
// non-finite values and arbitrary bit patterns.
double fmod_positive_mod(double x, double m) {
  double r = std::fmod(x, m);
  if (r < 0.0) {
    r += m;
  }
  return r;
}

std::vector<double> mod_inputs(double m, std::mt19937_64& gen) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> xs = {0.0,      -0.0,     m,        -m,
                            DBL_MAX,  -DBL_MAX, 1e300,    -1e300,
                            DBL_TRUE_MIN, -DBL_TRUE_MIN, inf, -inf,
                            std::numeric_limits<double>::quiet_NaN()};
  auto with_neighbours = [&](double x) {
    for (double v : {x, std::nextafter(x, -inf), std::nextafter(x, inf)}) {
      xs.push_back(v);
      xs.push_back(-v);
    }
  };
  for (double k : {1.0, 2.0, 3.0, 7.0, 1000.0, 0x1p20 + 1.0, 0x1p40 + 3.0,
                   0x1p51 - 1.0, 0x1p52 - 1.0, 0x1p52, 0x1p52 + 2.0, 0x1p53,
                   0x1p60}) {
    with_neighbours(k * m);
  }
  std::uniform_int_distribution<std::uint64_t> k_dist(1, 1ull << 53);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::uniform_int_distribution<int> exp_dist(-60, 70);
  for (int i = 0; i < 4000; ++i) {
    with_neighbours(static_cast<double>(k_dist(gen) >> (i % 53)) * m);
    xs.push_back(std::ldexp(m * unit(gen), exp_dist(gen)));
    xs.push_back(m * 1e6 * unit(gen));
  }
  for (int i = 0; i < 20000; ++i) {
    xs.push_back(std::bit_cast<double>(gen()));
  }
  return xs;
}

TEST(ExactFmod, BitwiseEqualToStdFmod) {
  std::mt19937_64 gen(0x5EED);
  std::vector<double> moduli = {0.5, 400.0, 800.0, 1.0 / 3.0, 1e10,
                                DBL_TRUE_MIN * 12345.0};
  for (int i = 0; i < 8; ++i) {
    moduli.push_back(std::bit_cast<double>(gen()));  // any sign, NaN, inf
  }
  std::size_t cases = 0;
  std::size_t mismatches = 0;
  for (double m : moduli) {
    for (double x : mod_inputs(m, gen)) {
      ++cases;
      const bool fmod_ok = std::bit_cast<std::uint64_t>(exact_fmod(x, m)) ==
                           std::bit_cast<std::uint64_t>(std::fmod(x, m));
      const bool mod_ok =
          std::bit_cast<std::uint64_t>(positive_mod(x, m)) ==
          std::bit_cast<std::uint64_t>(fmod_positive_mod(x, m));
      if (!fmod_ok || !mod_ok) {
        if (++mismatches <= 10) {
          char buf[96];
          std::snprintf(buf, sizeof buf, "x=%a m=%a", x, m);
          ADD_FAILURE() << buf << (fmod_ok ? " positive_mod" : " exact_fmod");
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "over " << cases << " cases";
  EXPECT_GT(cases, 500000u);
}


TEST(RunningStats, MatchesDirectComputation) {
  RunningStats s;
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 10.0};
  double sum = 0.0;
  for (double x : xs) {
    s.add(x);
    sum += x;
  }
  const double mean = sum / 5.0;
  double var = 0.0;
  for (double x : xs) {
    var += (x - mean) * (x - mean);
  }
  var /= 5.0;
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), mean);
  EXPECT_NEAR(s.stddev(), std::sqrt(var), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
  EXPECT_DOUBLE_EQ(s.peak_to_peak(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  const RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.peak_to_peak(), 0.0);
}

TEST(RunningStats, MergeEqualsSinglePass) {
  Rng rng(31);
  RunningStats whole;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.gaussian(1.0, 3.0);
    whole.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.stddev(), whole.stddev(), 1e-9);
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStats, RmsVersusStddev) {
  RunningStats s;
  s.add(3.0);
  s.add(-3.0);
  EXPECT_DOUBLE_EQ(s.rms(), 3.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 3.0);
  RunningStats offset;
  offset.add(5.0);
  offset.add(5.0);
  EXPECT_DOUBLE_EQ(offset.rms(), 5.0);
  EXPECT_DOUBLE_EQ(offset.stddev(), 0.0);
}

TEST(Histogram, CountsAndOverflow) {
  Histogram h(0.0, 10.0, 10);
  h.add(-1.0);
  h.add(0.5);
  h.add(9.99);
  h.add(10.0);
  h.add(25.0);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.bin(0), 1u);
  EXPECT_EQ(h.bin(9), 1u);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.5);
}

TEST(Histogram, QuantileLinearInterpolation) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) {
    h.add(static_cast<double>(i) + 0.5);
  }
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 1.5);
  EXPECT_THROW((void)h.quantile(1.5), Error);
}

TEST(Histogram, ModeBin) {
  Histogram h(0.0, 3.0, 3);
  h.add(1.5);
  h.add(1.6);
  h.add(0.5);
  EXPECT_EQ(h.mode_bin(), 1u);
}

TEST(Histogram, InvalidConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 10), Error);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), Error);
}

// ---------------------------------------------------------------- table --

TEST(ReportTable, PrintsAllCells) {
  ReportTable table("Fig X", {"metric", "paper", "measured", "note"});
  table.add_comparison("jitter p-p", "46.7 ps", "45.1 ps", "");
  std::ostringstream os;
  table.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("Fig X"), std::string::npos);
  EXPECT_NE(text.find("46.7 ps"), std::string::npos);
  EXPECT_NE(text.find("45.1 ps"), std::string::npos);
}

TEST(ReportTable, RowWidthMismatchThrows) {
  ReportTable table("t", {"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), Error);
}

TEST(Fmt, Formatting) {
  EXPECT_EQ(fmt(46.71, 1), "46.7");
  EXPECT_EQ(fmt(3.0, 0), "3");
  EXPECT_EQ(fmt_unit(0.88, "UI", 2), "0.88 UI");
}

// ---------------------------------------------------------------- error --

TEST(Error, CheckMacroThrowsWithLocation) {
  try {
    MGT_CHECK(1 == 2, "math is broken");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math is broken"), std::string::npos);
    EXPECT_NE(what.find("test_util.cpp"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) {
  EXPECT_NO_THROW(MGT_CHECK(2 + 2 == 4));
}

}  // namespace
}  // namespace mgt
