#include <gtest/gtest.h>

#include <climits>
#include <cstdlib>
#include <string>

#include "util/axis.hpp"
#include "util/stats_accum.hpp"
#include "util/table.hpp"

namespace repseq::util {
namespace {

TEST(Accumulator, EmptyIsZero) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.stddev(), 0.0);
}

TEST(Accumulator, BasicMoments) {
  Accumulator a;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(x);
  EXPECT_EQ(a.count(), 8u);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
  EXPECT_NEAR(a.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(a.sum(), 40.0);
}

TEST(Accumulator, MergeMatchesSequential) {
  Accumulator whole;
  Accumulator left;
  Accumulator right;
  for (int i = 0; i < 100; ++i) {
    const double x = i * 0.37 - 3.0;
    whole.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_NEAR(left.min(), whole.min(), 0.0);
  EXPECT_NEAR(left.max(), whole.max(), 0.0);
}

TEST(Accumulator, MergeWithEmpty) {
  Accumulator a;
  a.add(1.0);
  Accumulator empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(Axis, ParseLongTakesTheWholeValueInRange) {
  EXPECT_EQ(parse_long("0", 0), 0);
  EXPECT_EQ(parse_long("-3", -3), -3);
  EXPECT_EQ(parse_long("-3", -10), -3);
  EXPECT_EQ(parse_long(std::to_string(LONG_MAX), 0), LONG_MAX);
  for (const char* bad : {"", "4x", " 8", "+8", "1.5", "99999999999999999999"}) {
    EXPECT_EQ(parse_long(bad, 0), std::nullopt) << '\'' << bad << '\'';
  }
  EXPECT_EQ(parse_long("1", 2), std::nullopt);
  EXPECT_EQ(parse_long("9", 0, 8), std::nullopt);
}

TEST(Axis, ParseMaskOrsNamesInAnyOrder) {
  std::string bad;
  EXPECT_EQ(parse_mask("b", {"a", "b", "c"}, &bad), 0b010);
  EXPECT_EQ(parse_mask("c,a", {"a", "b", "c"}, &bad), 0b101);
  EXPECT_EQ(parse_mask("a,c", {"a", "b", "c"}, &bad), 0b101);
  EXPECT_EQ(parse_mask("all", {"a", "b", "c"}, &bad), 0b111);
}

TEST(Axis, ParseMaskReportsUnknownAndEmptyTokens) {
  std::string bad;
  EXPECT_EQ(parse_mask("a,bogus", {"a", "b"}, &bad), std::nullopt);
  EXPECT_EQ(bad, "bogus");
  EXPECT_EQ(parse_mask("a,", {"a", "b"}, &bad), std::nullopt);
  EXPECT_EQ(bad, "");
}

TEST(AxisDeathTest, EnvLongReadsTheAxisAndExitsTwoNamingTheRange) {
  ::unsetenv("REPSEQ_NODES");
  EXPECT_EQ(env_long("NODES", 32, 2), 32);
  ::setenv("REPSEQ_NODES", "8", /*overwrite=*/1);
  EXPECT_EQ(env_long("NODES", 32, 2), 8);
  ::setenv("REPSEQ_NODES", "+8", /*overwrite=*/1);
  EXPECT_EXIT((void)env_long("NODES", 32, 2), ::testing::ExitedWithCode(2),
              "unknown REPSEQ_NODES '.8' .accepted: an integer >= 2.");
  ::unsetenv("REPSEQ_NODES");
}

TEST(AxisDeathTest, UnknownVariableExitsTwo) {
  // A misspelt axis is seen by every read, not ignored.
  ::unsetenv("REPSEQ_NODES");
  ::setenv("REPSEQ_NODE", "8", /*overwrite=*/1);
  EXPECT_EXIT((void)env_long("NODES", 32, 2), ::testing::ExitedWithCode(2),
              "unknown variable 'REPSEQ_NODE' .accepted: .*REPSEQ_NODES");
  ::unsetenv("REPSEQ_NODE");
}

TEST(AxisDeathTest, ReaderOfAnUnlistedNameAborts) {
  EXPECT_DEATH((void)env_long("NODE", 32, 2), "unlisted REPSEQ_NODE");
}

TEST(Table, RendersAlignedCells) {
  Table t({"row", "paper", "measured"});
  t.add_row({"Total time (sec.)", "53.6", "48.1"});
  t.add_rule();
  t.add_row({"Speedup", "6.7", "7.0"});
  const std::string s = t.render();
  EXPECT_NE(s.find("Total time (sec.)"), std::string::npos);
  EXPECT_NE(s.find("| row"), std::string::npos);
  // Every data line has the same width.
  std::size_t width = s.find('\n');
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t next = s.find('\n', pos);
    if (next == std::string::npos) break;
    EXPECT_EQ(next - pos, width) << "ragged table line";
    pos = next + 1;
  }
}

TEST(TableFormat, FixedDigits) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_fixed(10.0, 1), "10.0");
}

TEST(TableFormat, ThousandsSeparators) {
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1000), "1,000");
  EXPECT_EQ(fmt_count(5006252), "5,006,252");
  EXPECT_EQ(fmt_count(100), "100");
  EXPECT_EQ(fmt_count(1234567890ULL), "1,234,567,890");
}

TEST(TableFormat, PercentChange) {
  EXPECT_EQ(fmt_pct_change(6.7, 10.1), "+51%");
  EXPECT_EQ(fmt_pct_change(0.0, 1.0), "n/a");
  EXPECT_EQ(fmt_pct_change(10.0, 5.0), "-50%");
}

}  // namespace
}  // namespace repseq::util
