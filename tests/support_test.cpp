#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "support/assert.hpp"
#include "support/bitset.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace bm {
namespace {

// ---------------------------------------------------------------- Rng ------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform(-3, 11);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 11);
  }
}

TEST(Rng, UniformSingletonRange) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform(5, 5), 5);
}

TEST(Rng, UniformRejectsInvertedRange) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform(2, 1), Error);
}

TEST(Rng, UniformCoversAllValues) {
  Rng rng(11);
  std::array<int, 4> seen{};
  for (int i = 0; i < 1000; ++i) ++seen[static_cast<std::size_t>(rng.uniform(0, 3))];
  for (int count : seen) EXPECT_GT(count, 150);  // ~250 expected each
}

TEST(Rng, Uniform01InRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(3);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, WeightedFollowsWeights) {
  Rng rng(17);
  const std::vector<double> w{1.0, 3.0};
  int ones = 0;
  for (int i = 0; i < 10000; ++i) ones += (rng.weighted(w) == 1);
  EXPECT_NEAR(ones / 10000.0, 0.75, 0.03);
}

TEST(Rng, WeightedSkipsZeroWeight) {
  Rng rng(17);
  const std::vector<double> w{0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.weighted(w), 1u);
}

TEST(Rng, WeightedRejectsBadInput) {
  Rng rng(17);
  const std::vector<double> empty;
  EXPECT_THROW(rng.weighted(empty), Error);
  const std::vector<double> zero{0.0, 0.0};
  EXPECT_THROW(rng.weighted(zero), Error);
  const std::vector<double> negative{1.0, -1.0};
  EXPECT_THROW(rng.weighted(negative), Error);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(9);
  Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (parent.next() == child.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, IndexRequiresNonEmpty) {
  Rng rng(1);
  EXPECT_THROW(rng.index(0), Error);
  EXPECT_EQ(rng.index(1), 0u);
}

// ------------------------------------------------------------ DynBitset ----

TEST(DynBitset, SetTestReset) {
  DynBitset b(130);
  EXPECT_FALSE(b.test(129));
  b.set(129);
  EXPECT_TRUE(b.test(129));
  b.reset(129);
  EXPECT_FALSE(b.test(129));
}

TEST(DynBitset, CountAndAny) {
  DynBitset b(70);
  EXPECT_TRUE(b.none());
  b.set(0);
  b.set(64);
  b.set(69);
  EXPECT_EQ(b.count(), 3u);
  EXPECT_TRUE(b.any());
}

TEST(DynBitset, SetAllMasksTailBits) {
  DynBitset b(70, true);
  EXPECT_EQ(b.count(), 70u);
}

TEST(DynBitset, SubsetAndIntersect) {
  DynBitset a(10), b(10);
  a.set(2);
  b.set(2);
  b.set(5);
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_TRUE(a.intersects(b));
  a.clear();
  EXPECT_FALSE(a.intersects(b));
  EXPECT_TRUE(a.is_subset_of(b));  // empty set
}

TEST(DynBitset, SetAlgebra) {
  DynBitset a(8), b(8);
  a.set(1);
  a.set(2);
  b.set(2);
  b.set(3);
  DynBitset u = a | b;
  EXPECT_EQ(u.to_indices(), (std::vector<std::size_t>{1, 2, 3}));
  DynBitset i = a & b;
  EXPECT_EQ(i.to_indices(), (std::vector<std::size_t>{2}));
  a -= b;
  EXPECT_EQ(a.to_indices(), (std::vector<std::size_t>{1}));
}

TEST(DynBitset, DomainMismatchThrows) {
  DynBitset a(8), b(9);
  EXPECT_THROW(a.is_subset_of(b), Error);
  EXPECT_THROW(a |= b, Error);
}

TEST(DynBitset, OutOfRangeThrows) {
  DynBitset a(8);
  EXPECT_THROW(a.test(8), Error);
  EXPECT_THROW(a.set(8), Error);
}

TEST(DynBitset, ForEachAscending) {
  DynBitset b(128);
  b.set(3);
  b.set(64);
  b.set(127);
  std::vector<std::size_t> seen;
  b.for_each([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{3, 64, 127}));
  EXPECT_EQ(b.to_string(), "{3,64,127}");
}

TEST(DynBitset, Equality) {
  DynBitset a(8), b(8);
  a.set(3);
  EXPECT_FALSE(a == b);
  b.set(3);
  EXPECT_TRUE(a == b);
}

// ------------------------------------------------------------- Stats -------

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesCombinedStream) {
  RunningStats a, b, all;
  for (int i = 0; i < 10; ++i) {
    a.add(i);
    all.add(i);
  }
  for (int i = 50; i < 70; ++i) {
    b.add(i);
    all.add(i);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(Percentile, InterpolatesLinearly) {
  std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 2.5);
}

TEST(Percentile, RejectsBadInput) {
  EXPECT_THROW(percentile({}, 0.5), Error);
  EXPECT_THROW(percentile({1.0}, 1.5), Error);
}

TEST(Correlation, PerfectAndDegenerate) {
  EXPECT_DOUBLE_EQ(correlation({1, 2, 3}, {2, 4, 6}), 1.0);
  EXPECT_DOUBLE_EQ(correlation({1, 2, 3}, {6, 4, 2}), -1.0);
  EXPECT_DOUBLE_EQ(correlation({1, 1, 1}, {1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(correlation({1.0}, {2.0}), 0.0);
}

// ------------------------------------------------------------- Table -------

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "v"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name   | v  |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 22 |"), std::string::npos);
}

TEST(TextTable, RowWidthChecked) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::pct(0.1234, 1), "12.3%");
}

TEST(CsvWriter, QuotesSpecialFields) {
  const std::string path = ::testing::TempDir() + "bm_csv_test.csv";
  {
    CsvWriter csv(path);
    csv.write_row({"a", "with,comma", "with\"quote"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,\"with,comma\",\"with\"\"quote\"");
  std::remove(path.c_str());
}

TEST(CsvWriter, QuotesEmbeddedLineBreaks) {
  // RFC 4180: LF *and* bare CR inside a field must be quoted, or the field
  // splits into two records in downstream readers.
  const std::string path = ::testing::TempDir() + "bm_csv_crlf_test.csv";
  {
    CsvWriter csv(path);
    csv.write_row({"plain", "line\nfeed", "carriage\rreturn", "both\r\nends"});
  }
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(),
            "plain,\"line\nfeed\",\"carriage\rreturn\",\"both\r\nends\"\n");
  std::remove(path.c_str());
}

// --------------------------------------------------------------- CLI -------

TEST(CliFlags, ParsesAllForms) {
  const char* argv[] = {"prog", "--a=1", "--b", "2", "pos", "--flag"};
  CliFlags f(6, argv);
  EXPECT_EQ(f.get_int("a", 0), 1);
  EXPECT_EQ(f.get_int("b", 0), 2);
  EXPECT_TRUE(f.get_bool("flag", false));
  EXPECT_EQ(f.positional(), (std::vector<std::string>{"pos"}));
}

TEST(CliFlags, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  CliFlags f(1, argv);
  EXPECT_EQ(f.get("missing", "d"), "d");
  EXPECT_EQ(f.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(f.get_double("missing", 1.5), 1.5);
  EXPECT_FALSE(f.has("missing"));
}

TEST(CliFlags, RejectsMalformedNumbers) {
  const char* argv[] = {"prog", "--n=abc", "--x=1.2.3", "--b=maybe"};
  CliFlags f(4, argv);
  EXPECT_THROW(f.get_int("n", 0), Error);
  EXPECT_THROW(f.get_double("x", 0), Error);
  EXPECT_THROW(f.get_bool("b", false), Error);
}

}  // namespace
}  // namespace bm
