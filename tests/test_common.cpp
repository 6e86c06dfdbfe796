// Tests for src/common: RNG determinism and distribution moments, streaming
// stats, quantiles, CSV round-trips, table formatting, thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/csv.h"
#include "common/json.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/thread_pool.h"

namespace vidur {
namespace {

// ------------------------------------------------------------------ check

TEST(Check, ThrowsWithExpressionAndMessage) {
  try {
    VIDUR_CHECK_MSG(1 == 2, "custom context " << 42);
    FAIL() << "expected vidur::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("custom context 42"),
              std::string::npos);
  }
}

TEST(Check, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(VIDUR_CHECK(2 + 2 == 4));
}

// -------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkIsIndependentOfParentConsumption) {
  Rng a(7);
  Rng child = a.fork();
  const auto first = child();
  // Consuming more of the parent must not affect an already-forked child.
  Rng b(7);
  Rng child2 = b.fork();
  (void)b();
  (void)b();
  EXPECT_EQ(child2(), first);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(5, 4), Error);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.exponential(4.0));
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  Rng rng(1);
  EXPECT_THROW(rng.exponential(0.0), Error);
}

TEST(Rng, LognormalMedianIsExpMu) {
  Rng rng(17);
  SampleSeries s;
  for (int i = 0; i < 100000; ++i) s.add(rng.lognormal(2.0, 0.7));
  EXPECT_NEAR(s.median(), std::exp(2.0), 0.15);
}

TEST(Rng, GammaMomentsMatch) {
  Rng rng(19);
  RunningStats stats;
  const double shape = 2.5, scale = 1.5;
  for (int i = 0; i < 200000; ++i) stats.add(rng.gamma(shape, scale));
  EXPECT_NEAR(stats.mean(), shape * scale, 0.05);
  EXPECT_NEAR(stats.variance(), shape * scale * scale, 0.2);
}

TEST(Rng, GammaSmallShape) {
  Rng rng(23);
  RunningStats stats;
  const double shape = 0.4, scale = 2.0;
  for (int i = 0; i < 200000; ++i) {
    const double g = rng.gamma(shape, scale);
    EXPECT_GT(g, 0.0);
    stats.add(g);
  }
  EXPECT_NEAR(stats.mean(), shape * scale, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / 100000.0, 0.3, 0.01);
}

// ------------------------------------------------------------------ stats

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_TRUE(std::isinf(s.min()));
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(31);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal();
    all.add(v);
    (i % 2 == 0 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(SampleSeries, ExactQuantiles) {
  SampleSeries s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-12);
  EXPECT_NEAR(s.quantile(0.90), 90.1, 1e-9);
}

TEST(SampleSeries, QuantileOfSingleElement) {
  SampleSeries s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.99), 7.0);
}

TEST(SampleSeries, QuantileEmptyThrows) {
  SampleSeries s;
  EXPECT_THROW(s.quantile(0.5), Error);
}

TEST(SampleSeries, QuantileCacheInvalidatedByAdd) {
  SampleSeries s;
  s.add(1.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 2.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 10.0);
}

TEST(SampleSeries, SummaryFields) {
  SampleSeries s;
  for (int i = 1; i <= 1000; ++i) s.add(static_cast<double>(i));
  const Summary sum = Summary::of(s);
  EXPECT_EQ(sum.count, 1000u);
  EXPECT_NEAR(sum.mean, 500.5, 1e-9);
  EXPECT_NEAR(sum.p50, 500.5, 1e-9);
  EXPECT_NEAR(sum.p99, 990.01, 0.1);
  EXPECT_DOUBLE_EQ(sum.min, 1.0);
  EXPECT_DOUBLE_EQ(sum.max, 1000.0);
}

// ---------------------------------------------------- LatencyDistribution

/// `n` seeded samples drawn from `distinct` lognormal values: heavy ties,
/// like the inter-token gaps of one replica.
std::vector<double> tied_samples(std::uint64_t seed, int n, int distinct) {
  Rng rng(seed);
  std::vector<double> values(static_cast<std::size_t>(distinct));
  for (double& v : values) v = rng.lognormal(-4.0, 0.6);
  std::vector<double> out(static_cast<std::size_t>(n));
  for (double& x : out)
    x = values[static_cast<std::size_t>(rng.uniform_int(0, distinct - 1))];
  return out;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Quantiles, extrema and count bit for bit; mean and stddev within 1e-12
/// relative (they are summed in a different order).
void expect_matches_series(const std::vector<double>& samples) {
  SampleSeries series;
  LatencyDistribution dist;
  for (const double x : samples) {
    series.add(x);
    dist.add(x);
  }
  const Summary a = Summary::of(series);
  const Summary b = Summary::of(dist);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(bits(a.min), bits(b.min));
  EXPECT_EQ(bits(a.p50), bits(b.p50));
  EXPECT_EQ(bits(a.p90), bits(b.p90));
  EXPECT_EQ(bits(a.p95), bits(b.p95));
  EXPECT_EQ(bits(a.p99), bits(b.p99));
  EXPECT_EQ(bits(a.max), bits(b.max));
  for (const double q : {0.0, 0.25, 0.333, 0.5, 0.999, 1.0})
    EXPECT_EQ(bits(series.quantile(q)), bits(dist.quantile(q))) << q;
  EXPECT_NEAR(b.mean, a.mean, 1e-12 * std::abs(a.mean));
  EXPECT_NEAR(b.stddev, a.stddev, 1e-12 * std::abs(a.stddev));
}

/// Byte-level equality of two summaries.
void expect_same_bytes(const Summary& a, const Summary& b) {
  EXPECT_EQ(a.count, b.count);
  for (const auto field : {&Summary::mean, &Summary::stddev, &Summary::min,
                           &Summary::p50, &Summary::p90, &Summary::p95,
                           &Summary::p99, &Summary::max})
    EXPECT_EQ(bits(a.*field), bits(b.*field));
}

TEST(LatencyDistribution, MatchesSampleSeriesOnTiedMultisets) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_matches_series(tied_samples(seed, 20000, 37));
    expect_matches_series(tied_samples(seed, 5000, 3000));  // few ties
    expect_matches_series(tied_samples(seed, 777, 2));
  }
}

TEST(LatencyDistribution, MatchesSampleSeriesOnOneAndTwoSamples) {
  expect_matches_series({0.0125});
  expect_matches_series({0.02, 0.01});
  expect_matches_series({0.01, 0.01});
  LatencyDistribution one;
  one.add(0.5);
  EXPECT_EQ(one.num_runs(), 1u);
  EXPECT_EQ(one.stddev(), 0.0);
  for (const double q : {0.0, 0.5, 1.0}) EXPECT_EQ(one.quantile(q), 0.5);
}

TEST(LatencyDistribution, KeepsOneRunPerDistinctValue) {
  LatencyDistribution d;
  for (const double x : tied_samples(9, 10000, 250)) d.add(x);
  EXPECT_EQ(d.count(), 10000u);
  std::set<double> distinct;
  for (const double x : tied_samples(9, 10000, 250)) distinct.insert(x);
  EXPECT_EQ(d.num_runs(), distinct.size());
}

TEST(LatencyDistribution, EmptyIsSafe) {
  LatencyDistribution d;
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.mean(), 0.0);
  EXPECT_EQ(d.stddev(), 0.0);
  EXPECT_THROW(d.quantile(0.5), Error);
  const Summary s = Summary::of(d);
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.max, 0.0);
  LatencyDistribution other;
  other.merge(d);
  EXPECT_TRUE(other.empty());
}

TEST(LatencyDistribution, MergeOrderNeverChangesTheSummary) {
  // Five shards (one per simulated replica), merged in all 120 orders,
  // must summarize to the same bytes as adding every sample to one set.
  const std::vector<double> samples = tied_samples(11, 30000, 400);
  std::vector<LatencyDistribution> shards(5);
  LatencyDistribution all;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    shards[(i * 7 + i / 13) % shards.size()].add(samples[i]);
    all.add(samples[i]);
  }
  const Summary expected = Summary::of(all);
  std::vector<std::size_t> order = {0, 1, 2, 3, 4};
  int orders = 0;
  do {
    LatencyDistribution merged;
    for (const std::size_t i : order) merged.merge(shards[i]);
    expect_same_bytes(Summary::of(merged), expected);
    ++orders;
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(orders, 120);

  // Merging into a non-empty set, and re-summarizing after more adds.
  LatencyDistribution split = shards[3];
  split.merge(shards[0]);
  for (const std::size_t i : {4u, 1u, 2u}) split.merge(shards[i]);
  expect_same_bytes(Summary::of(split), expected);
  split.add(1e9);
  EXPECT_EQ(split.max(), 1e9);
  EXPECT_EQ(split.count(), samples.size() + 1);
}

// -------------------------------------------------------------------- csv

TEST(Csv, RoundTrip) {
  CsvWriter w({"a", "b", "c"});
  w.add_row({"1", "x", "2.5"});
  w.add_row({"2", "y", "3.5"});
  const CsvDocument doc = parse_csv(w.str());
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.column("b"), 1u);
  EXPECT_EQ(doc.rows[1][doc.column("c")], "3.5");
}

TEST(Csv, RejectsRaggedRows) {
  EXPECT_THROW(parse_csv("a,b\n1,2,3\n"), Error);
}

TEST(Csv, RejectsWrongWidthRow) {
  CsvWriter w({"a", "b"});
  EXPECT_THROW(w.add_row({"only-one"}), Error);
}

TEST(Csv, MissingColumnThrows) {
  const CsvDocument doc = parse_csv("a,b\n1,2\n");
  EXPECT_THROW(doc.column("zzz"), Error);
}

TEST(Csv, EmptyTrailingFieldParsed) {
  const CsvDocument doc = parse_csv("a,b\n1,\n");
  ASSERT_EQ(doc.rows.size(), 1u);
  EXPECT_EQ(doc.rows[0][1], "");
}

// ------------------------------------------------------------------ table

TEST(ConsoleTable, AlignsColumns) {
  ConsoleTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "2"});
  const std::string s = t.str();
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  EXPECT_NE(s.find("| name"), std::string::npos);
}

TEST(ConsoleTable, RowWidthMismatchThrows) {
  ConsoleTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), Error);
}

TEST(Format, Percent) { EXPECT_EQ(fmt_percent(0.0123), "1.23%"); }

TEST(Format, Double) { EXPECT_EQ(fmt_double(1.23456, 2), "1.23"); }

// ------------------------------------------------------------ thread pool

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  parallel_for(pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

// ------------------------------------------------------------------- json

TEST(Json, BuildsOrderedObjectsAndArrays) {
  JsonValue doc = JsonValue::object();
  doc.set("b", 1);
  doc.set("a", 2.5);
  doc.set("flag", true);
  doc.set("label", "x");
  JsonValue arr = JsonValue::array();
  arr.push(1).push(2).push(3);
  doc.set("items", std::move(arr));

  // Insertion order is preserved (not sorted).
  EXPECT_EQ(doc.members()[0].first, "b");
  EXPECT_EQ(doc.members()[1].first, "a");
  EXPECT_EQ(doc.at("b").as_int(), 1);
  EXPECT_DOUBLE_EQ(doc.at("a").as_double(), 2.5);
  EXPECT_TRUE(doc.at("flag").as_bool());
  EXPECT_EQ(doc.at("label").as_string(), "x");
  EXPECT_EQ(doc.at("items").size(), 3u);
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW(doc.at("missing"), Error);
}

TEST(Json, ParseDumpRoundTripPreservesStructure) {
  const std::string text = R"({
  "name": "x",
  "count": 42,
  "rate": 1.5,
  "on": true,
  "off": false,
  "none": null,
  "nested": {"list": [1, 2.25, "s"]}
})";
  const JsonValue parsed = JsonValue::parse(text);
  // Round trip through dump() and back is identity.
  EXPECT_EQ(JsonValue::parse(parsed.dump()), parsed);
  EXPECT_EQ(parsed.at("count").as_int(), 42);
  EXPECT_TRUE(parsed.at("none").is_null());
  EXPECT_EQ(parsed.at("nested").at("list").items()[2].as_string(), "s");
}

TEST(Json, IntegersRoundTripLosslessly) {
  // Values above 2^53 would be mangled as doubles; ints must stay ints.
  const std::int64_t big = (std::int64_t{1} << 60) + 12345;
  JsonValue doc = JsonValue::object();
  doc.set("seed", big);
  EXPECT_EQ(JsonValue::parse(doc.dump()).at("seed").as_int(), big);
}

TEST(Json, DoublesRoundTripExactly) {
  for (const double v : {0.1, 1.0 / 3.0, 1e-300, 123456.789,
                         0.30000000000000004}) {
    JsonValue doc = JsonValue::array();
    doc.push(v);
    EXPECT_EQ(JsonValue::parse(doc.dump()).items()[0].as_double(), v);
  }
}

TEST(Json, StringEscapesRoundTrip) {
  const std::string nasty = "a\"b\\c\nd\te\rf\x01g";
  JsonValue doc = JsonValue::array();
  doc.push(nasty);
  EXPECT_EQ(JsonValue::parse(doc.dump()).items()[0].as_string(), nasty);
}

TEST(Json, ParseUnicodeEscapes) {
  // BMP codepoint and a surrogate pair (U+1F600).
  const JsonValue v = JsonValue::parse(R"(["é", "😀"])");
  EXPECT_EQ(v.items()[0].as_string(), "\xc3\xa9");
  EXPECT_EQ(v.items()[1].as_string(), "\xf0\x9f\x98\x80");
}

TEST(Json, ParseErrorsCarryLineAndColumn) {
  try {
    JsonValue::parse("{\n  \"a\": 1,\n  oops\n}");
    FAIL() << "expected vidur::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
  EXPECT_THROW(JsonValue::parse("{\"a\": 1} trailing"), Error);
  EXPECT_THROW(JsonValue::parse("{\"a\": 1 \"b\": 2}"), Error);
  EXPECT_THROW(JsonValue::parse("[1, 2"), Error);
  EXPECT_THROW(JsonValue::parse("{\"a\": 1, \"a\": 2}"), Error);
  EXPECT_THROW(JsonValue::parse(""), Error);
}

TEST(Json, DeepNestingFailsInsteadOfOverflowingTheStack) {
  const std::string deep(100000, '[');
  try {
    JsonValue::parse(deep);
    FAIL() << "expected vidur::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos);
  }
  // 256 levels are within the cap.
  std::string ok(200, '[');
  ok += "1";
  ok += std::string(200, ']');
  EXPECT_NO_THROW(JsonValue::parse(ok));
}

TEST(Json, TypeMismatchesThrow) {
  JsonValue num(3);
  EXPECT_THROW(num.as_string(), Error);
  EXPECT_THROW(num.set("k", 1), Error);
  EXPECT_THROW(num.push(1), Error);
  JsonValue dbl(3.5);
  EXPECT_THROW(dbl.as_int(), Error);  // as_int is exact-integers-only
  EXPECT_DOUBLE_EQ(dbl.as_double(), 3.5);
  EXPECT_DOUBLE_EQ(num.as_double(), 3.0);  // ints widen to double
}

TEST(Json, OverflowingNumberLiteralsRejected) {
  // A typo'd exponent must fail loudly, not silently become infinity.
  EXPECT_THROW(JsonValue::parse("[1e400]"), Error);
  EXPECT_THROW(JsonValue::parse("[-1e400]"), Error);
  // Underflow collapses to a finite tiny value and stays accepted.
  EXPECT_NO_THROW(JsonValue::parse("[1e-400]"));
}

TEST(Json, WholeValuedDoublesKeepTheirTypeAcrossRoundTrip) {
  JsonValue doc = JsonValue::array();
  doc.push(2.0);
  doc.push(-12.0);
  const JsonValue back = JsonValue::parse(doc.dump());
  EXPECT_FALSE(back.items()[0].is_int());  // "2.0", not "2"
  EXPECT_FALSE(back.items()[1].is_int());
  EXPECT_EQ(back, doc);
}

TEST(Json, NonFiniteDoublesDumpAsNull) {
  JsonValue doc = JsonValue::array();
  doc.push(std::nan(""));
  EXPECT_TRUE(JsonValue::parse(doc.dump()).items()[0].is_null());
}

}  // namespace
}  // namespace vidur
