// Unit tests for fsml::util — RNG determinism and distribution sanity,
// statistics, table rendering, CLI parsing, time formatting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "test_support.hpp"
#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "util/crc32.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/time_format.hpp"

namespace {

using namespace fsml;

// ---- rng -------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  util::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  util::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRange) {
  util::Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, NextBelowCoversAllValues) {
  util::Rng rng(4);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextBelowOneAlwaysZero) {
  util::Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextBelowZeroThrows) {
  util::Rng rng(5);
  EXPECT_THROW(rng.next_below(0), util::CheckFailure);
}

TEST(Rng, NextInInclusiveBounds) {
  util::Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    const auto v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, NextDoubleInHalfOpenUnit) {
  util::Rng rng(7);
  double sum = 0;
  for (int i = 0; i < 2000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 2000, 0.5, 0.05);
}

TEST(Rng, BoolProbabilityRoughlyRespected) {
  util::Rng rng(8);
  int hits = 0;
  for (int i = 0; i < 4000; ++i)
    if (rng.next_bool(0.25)) ++hits;
  EXPECT_NEAR(hits / 4000.0, 0.25, 0.04);
}

TEST(Rng, SplitProducesIndependentStream) {
  util::Rng a(9);
  util::Rng child = a.split();
  EXPECT_NE(a.next(), child.next());
}

TEST(Rng, ShuffleIsPermutationAndDeterministic) {
  std::vector<int> v1{1, 2, 3, 4, 5, 6, 7, 8}, v2 = v1, sorted = v1;
  util::Rng r1(10), r2(10);
  util::shuffle(v1.begin(), v1.end(), r1);
  util::shuffle(v2.begin(), v2.end(), r2);
  EXPECT_EQ(v1, v2);
  std::sort(v1.begin(), v1.end());
  EXPECT_EQ(v1, sorted);
}

// ---- stats -----------------------------------------------------------------

TEST(Stats, MeanVarianceStdev) {
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(util::mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(util::variance(xs), 4.0);
  EXPECT_DOUBLE_EQ(util::stdev(xs), 2.0);
}

TEST(Stats, SampleVarianceUsesNMinusOne) {
  const std::vector<double> xs{1, 3};
  EXPECT_DOUBLE_EQ(util::sample_variance(xs), 2.0);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(util::median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(util::median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(util::median({7}), 7.0);
}

TEST(Stats, MinMaxSum) {
  const std::vector<double> xs{3, -1, 4};
  EXPECT_DOUBLE_EQ(util::min_of(xs), -1.0);
  EXPECT_DOUBLE_EQ(util::max_of(xs), 4.0);
  EXPECT_DOUBLE_EQ(util::sum(xs), 6.0);
}

TEST(Stats, KahanSumHandlesCancellation) {
  std::vector<double> xs;
  xs.push_back(1.0);
  for (int i = 0; i < 1000; ++i) xs.push_back(1e-16);
  EXPECT_GT(util::sum(xs), 1.0);  // naive summation would return exactly 1.0
}

TEST(Stats, Geomean) {
  EXPECT_NEAR(util::geomean(std::vector<double>{1, 100}), 10.0, 1e-9);
  EXPECT_THROW(util::geomean(std::vector<double>{1, 0}),
               util::CheckFailure);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(util::quantile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(util::quantile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(util::quantile(xs, 0.5), 25.0);
}

TEST(Stats, RelDiff) {
  EXPECT_DOUBLE_EQ(util::rel_diff(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(util::rel_diff(10, 5), 0.5);
  EXPECT_DOUBLE_EQ(util::rel_diff(5, 10), 0.5);
}

TEST(Stats, EmptyInputsThrow) {
  EXPECT_THROW(util::mean({}), util::CheckFailure);
  EXPECT_THROW(util::median({}), util::CheckFailure);
}

// ---- table -----------------------------------------------------------------

TEST(Table, RendersAlignedGrid) {
  util::Table t({"name", "value"});
  t.set_align(1, util::Align::kRight);
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| alpha |     1 |"), std::string::npos);
  EXPECT_NE(s.find("| b     |    22 |"), std::string::npos);
}

TEST(Table, RejectsWrongWidthRow) {
  util::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), util::CheckFailure);
}

TEST(Table, SeparatorInsertsRule) {
  util::Table t({"x"});
  t.add_row({"1"});
  t.add_separator();
  t.add_row({"2"});
  const std::string s = t.to_string();
  // header rule + top + separator + bottom = 4 rules
  std::size_t rules = 0, pos = 0;
  while ((pos = s.find("+---", pos)) != std::string::npos) {
    ++rules;
    pos += 4;
  }
  EXPECT_EQ(rules, 4u);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(util::fixed(3.14159, 2), "3.14");
  EXPECT_EQ(util::with_commas(1234567), "1,234,567");
  EXPECT_EQ(util::with_commas(-1000), "-1,000");
  EXPECT_EQ(util::with_commas(12), "12");
  EXPECT_NE(util::sci(0.00123, 2).find("e-03"), std::string::npos);
}

// ---- cli -------------------------------------------------------------------

TEST(Cli, ParsesAllForms) {
  // Note the space form is greedy: "--flag value" binds the value, so bare
  // flags must come last or use the "=" form.
  const char* argv[] = {"prog", "--a=1", "--b", "2", "pos1", "--flag"};
  util::Cli cli(6, argv);
  EXPECT_EQ(cli.get_int("a", 0), 1);
  EXPECT_EQ(cli.get_int("b", 0), 2);
  EXPECT_TRUE(cli.get_bool("flag", false));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  util::Cli cli(1, argv);
  EXPECT_EQ(cli.get("missing", "dflt"), "dflt");
  EXPECT_EQ(cli.get_int("missing", 9), 9);
  EXPECT_DOUBLE_EQ(cli.get_double("missing", 1.5), 1.5);
  EXPECT_FALSE(cli.has("missing"));
}

TEST(Cli, RejectsMalformedNumbers) {
  const char* argv[] = {"prog", "--n=abc"};
  util::Cli cli(2, argv);
  EXPECT_THROW(cli.get_int("n", 0), std::runtime_error);
}

TEST(Cli, BooleanSpellings) {
  const char* argv[] = {"prog", "--x=yes", "--y=off"};
  util::Cli cli(3, argv);
  EXPECT_TRUE(cli.get_bool("x", false));
  EXPECT_FALSE(cli.get_bool("y", true));
}

// ---- time format -----------------------------------------------------------

TEST(TimeFormat, SecondsStyles) {
  EXPECT_EQ(util::seconds_short(0.005), "0.005s");
  EXPECT_EQ(util::seconds_short(1.234), "1.23s");
  EXPECT_EQ(util::seconds_short(76.8), "76.8s");
  EXPECT_EQ(util::seconds_minutes(192.78), "3m12.78s");
  EXPECT_EQ(util::seconds_minutes(5.0), "5.00s");
}

TEST(TimeFormat, AutoUnits) {
  EXPECT_EQ(util::auto_time(0.0000123), "12us");
  EXPECT_EQ(util::auto_time(0.00345), "3.45ms");
  EXPECT_EQ(util::auto_time(1.5), "1.50s");
  EXPECT_EQ(util::auto_time(125.0), "2m5.00s");
}

TEST(TimeFormat, CyclesToSeconds) {
  EXPECT_DOUBLE_EQ(util::cycles_to_seconds(3'400'000'000ull, 3.4e9), 1.0);
}

TEST(Check, MacrosThrowWithContext) {
  try {
    FSML_CHECK_MSG(false, "extra detail");
    FAIL() << "should have thrown";
  } catch (const util::CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("extra detail"), std::string::npos);
  }
}

// ---- crc32 -----------------------------------------------------------------

TEST(Crc32, KnownAnswer) {
  // The CRC-32/IEEE check value from the catalogue of CRC algorithms.
  EXPECT_EQ(util::crc32("123456789"), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(util::crc32(""), 0u); }

TEST(Crc32, IncrementalMatchesOneShot) {
  util::Crc32 crc;
  crc.update("123", 3);
  crc.update("456789", 6);
  EXPECT_EQ(crc.value(), util::crc32("123456789"));
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::string a(64, 'q');
  std::string b = a;
  b[17] = static_cast<char>(b[17] ^ 0x01);
  EXPECT_NE(util::crc32(a), util::crc32(b));
}

// ---- atomic file -----------------------------------------------------------

class AtomicFileTest : public ::testing::Test {
 protected:
  AtomicFileTest() : path_(unique_temp_path("atomic_test.txt")) {
    std::remove(path_.c_str());
  }
  ~AtomicFileTest() override { std::remove(path_.c_str()); }

  std::string slurp() const {
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  std::string path_;
};

TEST_F(AtomicFileTest, CommitPublishesContents) {
  util::AtomicFile file(path_);
  file.stream() << "hello " << 42 << '\n';
  file.commit();
  EXPECT_EQ(slurp(), "hello 42\n");
}

TEST_F(AtomicFileTest, UncommittedWriteLeavesNoFile) {
  {
    util::AtomicFile file(path_);
    file.stream() << "never published";
  }  // destroyed without commit: temp removed, target untouched
  EXPECT_FALSE(static_cast<bool>(std::ifstream(path_)));
}

TEST_F(AtomicFileTest, CommitReplacesExistingFile) {
  util::write_file_atomic(path_, "old contents");
  util::write_file_atomic(path_, "new contents");
  EXPECT_EQ(slurp(), "new contents");
}

TEST_F(AtomicFileTest, AbandonedWriteKeepsPreviousContents) {
  util::write_file_atomic(path_, "stable");
  {
    util::AtomicFile file(path_);
    file.stream() << "half-written replacement";
  }
  EXPECT_EQ(slurp(), "stable");
}

TEST_F(AtomicFileTest, DoubleCommitThrows) {
  util::AtomicFile file(path_);
  file.stream() << "x";
  file.commit();
  EXPECT_THROW(file.commit(), std::exception);
}

}  // namespace
