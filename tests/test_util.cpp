#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "util/args.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/stats.h"

namespace mcs {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a() == b();
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkIndependentStreams) {
  Rng root(7);
  Rng a = root.fork(1);
  Rng b = root.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a() == b();
  EXPECT_LT(equal, 3);
  // Forks are deterministic: the same root seed and stream id reproduce
  // the same stream.
  Rng root2(7);
  Rng c = root.fork(3);
  Rng c2 = root2.fork(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(c(), c2());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  OnlineStats stats;
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.uniform();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    stats.add(x);
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.01);
}

TEST(Rng, UniformRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.0, 5.0);
    ASSERT_GE(x, -2.0);
    ASSERT_LT(x, 5.0);
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-1.0));
    EXPECT_TRUE(rng.bernoulli(2.0));
  }
}

TEST(Rng, BelowBounds) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t x = rng.below(7);
    ASSERT_LT(x, 7u);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, BelowOneIsZero) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BetweenInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t x = rng.between(-3, 3);
    ASSERT_GE(x, -3);
    ASSERT_LE(x, 3);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(OnlineStats, Empty) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, KnownValues) {
  OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.sum(), 40.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(OnlineStats, WelfordMatchesTwoPass) {
  // Welford's single-pass variance must agree with the textbook two-pass
  // computation to 1e-12 relative, including on badly conditioned data
  // (large mean, small spread).
  Rng rng(77);
  for (const double offset : {0.0, 100.0, 1e6}) {
    OnlineStats s;
    std::vector<double> xs;
    for (int i = 0; i < 5000; ++i) {
      const double x = offset + rng.uniform(-1.0, 1.0);
      xs.push_back(x);
      s.add(x);
    }
    double mean = 0.0;
    for (const double x : xs) mean += x;
    mean /= static_cast<double>(xs.size());
    double m2 = 0.0;
    for (const double x : xs) m2 += (x - mean) * (x - mean);
    const double twoPass = m2 / static_cast<double>(xs.size() - 1);
    // Both algorithms lose digits as the condition number mean/stddev
    // grows; scale the 1e-12 bound accordingly (it is exact-tight for the
    // well-conditioned cases).
    const double kappa = std::max(1.0, std::abs(mean));
    EXPECT_NEAR(s.mean(), mean, 1e-12 * kappa);
    EXPECT_NEAR(s.variance(), twoPass, 1e-12 * std::max(1.0, twoPass) * kappa);
  }
}

TEST(OnlineStats, MergeEqualsSequential) {
  Rng rng(5);
  OnlineStats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-10.0, 10.0);
    whole.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-12 * whole.variance());
  EXPECT_EQ(left.min(), whole.min());
  EXPECT_EQ(left.max(), whole.max());
  EXPECT_NEAR(left.sum(), whole.sum(), 1e-9 * std::abs(whole.sum()));

  // Merging into/from empty accumulators is the identity.
  OnlineStats empty;
  OnlineStats copy = whole;
  copy.merge(empty);
  EXPECT_EQ(copy.count(), whole.count());
  EXPECT_DOUBLE_EQ(copy.mean(), whole.mean());
  empty.merge(whole);
  EXPECT_EQ(empty.count(), whole.count());
  EXPECT_DOUBLE_EQ(empty.variance(), whole.variance());
}

TEST(Percentile, EdgeCases) {
  // n = 1: every percentile is the single sample.
  EXPECT_DOUBLE_EQ(percentile({42.0}, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(percentile({42.0}, 50.0), 42.0);
  EXPECT_DOUBLE_EQ(percentile({42.0}, 100.0), 42.0);
  // Ties collapse to the tied value.
  EXPECT_DOUBLE_EQ(percentile({3.0, 3.0, 3.0, 3.0}, 95.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 3.0, 3.0, 3.0, 9.0}, 50.0), 3.0);
  // p0 / p100 are min / max regardless of input order.
  EXPECT_DOUBLE_EQ(percentile({5.0, 1.0, 9.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({5.0, 1.0, 9.0}, 100.0), 9.0);
  // Out-of-range p clamps.
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0}, 150.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0}, -5.0), 1.0);
  // Interpolation between order statistics.
  EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 75.0), 7.5);
}

TEST(Summary, PercentileFields) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  const Summary s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.median, 50.5);
  EXPECT_NEAR(s.p95, 95.05, 1e-12);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  // Tiny samples: p95 interpolates toward the max.
  const Summary two = summarize({1.0, 2.0});
  EXPECT_DOUBLE_EQ(two.p95, 1.95);
  const Summary empty = summarize({});
  EXPECT_DOUBLE_EQ(empty.p95, 0.0);
}

TEST(Quantile, Basics) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.0);
}

TEST(Quantile, EmptyInputIsFatal) {
  // A quantile of nothing is a logic error upstream (a filter that ate
  // every sample), not a zero — summarize() keeps its lenient empty
  // Summary, but asking for an order statistic of an empty set aborts.
  EXPECT_DEATH((void)quantile({}, 0.5), "empty sample");
  EXPECT_DEATH((void)percentile({}, 50.0), "empty sample");
}

TEST(Quantile, Interpolates) {
  EXPECT_DOUBLE_EQ(quantile({0.0, 10.0}, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile({0.0, 10.0}, 0.75), 7.5);
}

TEST(Summary, Summarize) {
  const Summary s = summarize({1, 2, 3, 4, 100});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean, 22.0);
}

TEST(LinearSlope, ExactLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 20; ++i) {
    x.push_back(i);
    y.push_back(3.0 * i + 7.0);
  }
  EXPECT_NEAR(linearSlope(x, y), 3.0, 1e-12);
}

TEST(LinearSlope, Degenerate) {
  EXPECT_EQ(linearSlope({1.0}, {2.0}), 0.0);
  EXPECT_EQ(linearSlope({1.0, 1.0}, {2.0, 5.0}), 0.0);  // zero x-variance
}

TEST(Csv, Escape) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, SharedEscapeAndJoin) {
  // The free functions are CsvWriter's one escaping implementation
  // (metric names and preset descriptions may contain commas/quotes).
  EXPECT_EQ(csvEscape("agg_value"), "agg_value");
  EXPECT_EQ(csvEscape("slots, total"), "\"slots, total\"");
  EXPECT_EQ(csvEscape("the \"naive\" bound"), "\"the \"\"naive\"\" bound\"");
  EXPECT_EQ(csvJoin({"a", "b,c", "d\"e\""}), "a,\"b,c\",\"d\"\"e\"\"\"");
  EXPECT_EQ(csvJoin({}), "");
}

TEST(Csv, RowCounting) {
  CsvWriter w;  // in-memory, no file
  w.header({"a", "b"});
  w.row({"1", "2"});
  w.row({"3", "4"});
  EXPECT_EQ(w.rows(), 2u);
}

TEST(Args, NamedAndPositional) {
  // Note: a bare `--flag` followed by a non-flag token consumes that token
  // as its value, so boolean flags should use `--flag=1` or come last.
  const char* argv[] = {"prog", "--n=100", "--flag=1", "pos1", "--side", "2.5", "pos2"};
  Args args(7, argv);
  EXPECT_EQ(args.getInt("n", 0), 100);
  EXPECT_TRUE(args.getBool("flag"));
  EXPECT_DOUBLE_EQ(args.getDouble("side", 0.0), 2.5);
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "pos1");
  EXPECT_EQ(args.positional()[1], "pos2");
}

TEST(Args, BareTrailingFlag) {
  const char* argv[] = {"prog", "--verbose"};
  Args args(2, argv);
  EXPECT_TRUE(args.getBool("verbose"));
}

TEST(Args, Fallbacks) {
  const char* argv[] = {"prog"};
  Args args(1, argv);
  EXPECT_EQ(args.getInt("missing", 7), 7);
  EXPECT_EQ(args.get("missing", "x"), "x");
  EXPECT_FALSE(args.getBool("missing"));
  EXPECT_TRUE(args.getBool("missing", true));
}

TEST(Args, BoolSpellings) {
  const char* argv[] = {"prog", "--a=true", "--b=0", "--c=yes", "--d=off"};
  Args args(5, argv);
  EXPECT_TRUE(args.getBool("a"));
  EXPECT_FALSE(args.getBool("b"));
  EXPECT_TRUE(args.getBool("c"));
  EXPECT_FALSE(args.getBool("d"));
}

TEST(Args, NamedOrderedPreservesCommandLineOrder) {
  // Scenario/sweep overrides apply in this order, where key order is
  // load-bearing (e.g. --range after --alpha); std::map order is not it.
  const char* argv[] = {"prog", "--zeta=1", "--alpha=2", "--zeta=3", "--beta", "4"};
  Args args(6, argv);
  const auto& ordered = args.namedOrdered();
  ASSERT_EQ(ordered.size(), 3u);
  EXPECT_EQ(ordered[0], (std::pair<std::string, std::string>{"zeta", "3"}));
  EXPECT_EQ(ordered[1], (std::pair<std::string, std::string>{"alpha", "2"}));
  EXPECT_EQ(ordered[2], (std::pair<std::string, std::string>{"beta", "4"}));
  EXPECT_EQ(args.get("zeta"), "3");  // named() agrees on the value
}

TEST(Args, NamedExposesAllFlags) {
  const char* argv[] = {"prog", "--a=1", "--b=x", "pos"};
  Args args(4, argv);
  ASSERT_EQ(args.named().size(), 2u);
  EXPECT_EQ(args.named().at("a"), "1");
  EXPECT_EQ(args.named().at("b"), "x");
}

TEST(Args, NumericGettersAcceptWellFormedValues) {
  const char* argv[] = {"prog", "--n=-42", "--x=1e-3", "--y=+2.5", "--big=123456789"};
  Args args(5, argv);
  EXPECT_EQ(args.getInt("n", 0), -42);
  EXPECT_DOUBLE_EQ(args.getDouble("x", 0.0), 1e-3);
  EXPECT_DOUBLE_EQ(args.getDouble("y", 0.0), 2.5);
  EXPECT_EQ(args.getInt("big", 0), 123456789);
}

TEST(ParseNumber, StrictWholeStringParsing) {
  long l = 0;
  EXPECT_TRUE(parseLong("123", l));
  EXPECT_EQ(l, 123);
  EXPECT_TRUE(parseLong("-7", l));
  EXPECT_FALSE(parseLong("", l));
  EXPECT_FALSE(parseLong("12x", l));
  EXPECT_FALSE(parseLong("x12", l));
  EXPECT_FALSE(parseLong("1.5", l));
  EXPECT_FALSE(parseLong("99999999999999999999999999", l));  // ERANGE

  double d = 0.0;
  EXPECT_TRUE(parseDouble("2.5", d));
  EXPECT_DOUBLE_EQ(d, 2.5);
  EXPECT_TRUE(parseDouble("1e3", d));
  EXPECT_FALSE(parseDouble("", d));
  EXPECT_FALSE(parseDouble("2.5abc", d));
  EXPECT_FALSE(parseDouble("abc", d));
}

// Malformed values on present flags are fatal usage errors: diagnostic on
// stderr naming the flag, exit status 2.  Silent fallback would run the
// experiment with a garbage parameter.
TEST(ArgsDeathTest, MalformedIntExitsLoudly) {
  const char* argv[] = {"prog", "--n=12x"};
  Args args(2, argv);
  EXPECT_EXIT((void)args.getInt("n", 0), ::testing::ExitedWithCode(2),
              "invalid value \"12x\" for --n");
}

TEST(ArgsDeathTest, MalformedDoubleExitsLoudly) {
  const char* argv[] = {"prog", "--side=wide"};
  Args args(2, argv);
  EXPECT_EXIT((void)args.getDouble("side", 0.0), ::testing::ExitedWithCode(2),
              "invalid value \"wide\" for --side");
}

TEST(ArgsDeathTest, EmptyValueExitsLoudly) {
  const char* argv[] = {"prog", "--n="};
  Args args(2, argv);
  EXPECT_EXIT((void)args.getInt("n", 7), ::testing::ExitedWithCode(2), "expected an integer");
}

}  // namespace
}  // namespace mcs
