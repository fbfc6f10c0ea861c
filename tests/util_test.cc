#include <gtest/gtest.h>

#include "util/hash.h"
#include "util/histogram.h"
#include "util/string_util.h"

namespace wsd {
namespace {

// ---------- string_util ----------

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitSkipEmptyDropsEmptyFields) {
  auto parts = SplitSkipEmpty(",a,,b,", ',');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  const std::string input = "x\ty\tz";
  EXPECT_EQ(Join(Split(input, '\t'), "\t"), input);
}

TEST(StringUtilTest, TrimRemovesAsciiWhitespace) {
  EXPECT_EQ(Trim("  hi \r\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t "), "");
  EXPECT_EQ(Trim("nope"), "nope");
}

TEST(StringUtilTest, CaseConversionIsAsciiOnly) {
  EXPECT_EQ(ToLower("AbC-9"), "abc-9");
  EXPECT_EQ(ToUpper("AbC-9"), "ABC-9");
  // Multi-byte UTF-8 passes through untouched.
  EXPECT_EQ(ToLower("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("http://x", "http://"));
  EXPECT_FALSE(StartsWith("ftp://x", "http://"));
  EXPECT_TRUE(EndsWith("a.html", ".html"));
  EXPECT_FALSE(EndsWith("html", "xhtml"));
}

TEST(StringUtilTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("ISBN", "isbn"));
  EXPECT_FALSE(EqualsIgnoreCase("isbn", "isb"));
}

TEST(StringUtilTest, ParseUint64Rejects) {
  EXPECT_FALSE(ParseUint64("").has_value());
  EXPECT_FALSE(ParseUint64("12a").has_value());
  EXPECT_FALSE(ParseUint64("-3").has_value());
  // Strictly 1*DIGIT: no sign, no whitespace anywhere. Callers that
  // treat the parsed value as a wire-protocol length (serve/http.cc)
  // rely on these rejections staying rejections.
  EXPECT_FALSE(ParseUint64("+1").has_value());
  EXPECT_FALSE(ParseUint64(" 1").has_value());
  EXPECT_FALSE(ParseUint64("1 ").has_value());
  EXPECT_FALSE(ParseUint64("1 2").has_value());
  EXPECT_FALSE(ParseUint64("1\t2").has_value());
  EXPECT_FALSE(ParseUint64("0x10").has_value());
  // Overflow: UINT64_MAX is 18446744073709551615.
  EXPECT_FALSE(ParseUint64("18446744073709551616").has_value());
  EXPECT_FALSE(ParseUint64("99999999999999999999999").has_value());
  EXPECT_EQ(ParseUint64("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(ParseUint64("0"), 0u);
}

TEST(StringUtilTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(*ParseDouble("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-1e3"), -1000.0);
  EXPECT_FALSE(ParseDouble("1.5x").has_value());
  EXPECT_FALSE(ParseDouble("").has_value());
}

TEST(StringUtilTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");  // non-overlapping
  EXPECT_EQ(ReplaceAll("x", "", "y"), "x");       // empty needle no-op
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

// ---------- hash ----------

TEST(HashTest, Fnv1aIsStable) {
  // Known FNV-1a 64 test vector.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
}

TEST(HashTest, MixAndCombineSpread) {
  EXPECT_NE(MixHash64(1), MixHash64(2));
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

// ---------- histogram ----------

TEST(RunningStatsTest, MeanVarianceMinMax) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.Add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 4.0);
  EXPECT_DOUBLE_EQ(stats.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.37 - 3;
    (i % 2 == 0 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
}

TEST(Log2HistogramTest, PaperBinning) {
  // "entities with 0 reviews form the first group, entities with 1-2
  // reviews form the second, and so on. Entities with 1023 or more
  // reviews form the final group."
  Log2Histogram h(10);
  EXPECT_EQ(h.BucketOf(0), 0);
  EXPECT_EQ(h.BucketOf(1), 1);
  EXPECT_EQ(h.BucketOf(2), 1);
  EXPECT_EQ(h.BucketOf(3), 2);
  EXPECT_EQ(h.BucketOf(6), 2);
  EXPECT_EQ(h.BucketOf(7), 3);
  EXPECT_EQ(h.BucketOf(1022), 9);
  EXPECT_EQ(h.BucketOf(1023), 10);
  EXPECT_EQ(h.BucketOf(1000000), 10);
  EXPECT_EQ(h.BucketLabel(0), "0");
  EXPECT_EQ(h.BucketLabel(1), "1-2");
  EXPECT_EQ(h.BucketLabel(10), "1023+");
}

TEST(Log2HistogramTest, RangesPartitionIntegers) {
  Log2Histogram h(10);
  uint64_t expected_lo = 0;
  for (int b = 0; b < h.num_buckets(); ++b) {
    auto [lo, hi] = h.BucketRange(b);
    EXPECT_EQ(lo, expected_lo) << "bucket " << b;
    if (b + 1 < h.num_buckets()) expected_lo = hi + 1;
  }
}

TEST(Log2HistogramTest, WeightsAccumulate) {
  Log2Histogram h(4);
  h.Add(1, 2.0);
  h.Add(2, 4.0);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_DOUBLE_EQ(h.bucket_weight(1), 6.0);
  EXPECT_DOUBLE_EQ(h.bucket_mean(1), 3.0);
  EXPECT_DOUBLE_EQ(h.bucket_mean(3), 0.0);
}

TEST(QuantileTest, InterpolatesOrderStatistics) {
  std::vector<double> v = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 2.5);
}

}  // namespace
}  // namespace wsd
