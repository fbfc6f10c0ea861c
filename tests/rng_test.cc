#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "util/histogram.h"
#include "util/zipf.h"

namespace wsd {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(5);
  for (uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.Uniform(bound), bound);
    }
  }
}

TEST(RngTest, UniformIsRoughlyUniform) {
  Rng rng(17);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.Uniform(kBuckets)];
  for (int b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], kDraws / kBuckets, 500) << "bucket " << b;
  }
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, BernoulliEdgeCasesAndRate) {
  Rng rng(13);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(RngTest, NormalMoments) {
  Rng rng(29);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.Normal(10.0, 3.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(31);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.Exponential(2.0));
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(RngTest, PoissonMeanSmallAndLarge) {
  Rng rng(37);
  RunningStats small, large;
  for (int i = 0; i < 100000; ++i) {
    small.Add(static_cast<double>(rng.Poisson(3.0)));
    large.Add(static_cast<double>(rng.Poisson(100.0)));
  }
  EXPECT_NEAR(small.mean(), 3.0, 0.05);
  EXPECT_NEAR(large.mean(), 100.0, 0.5);
  EXPECT_EQ(rng.Poisson(0.0), 0u);
}

TEST(RngTest, ParetoRespectsMinimum) {
  Rng rng(41);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.Pareto(2.0, 1.5), 2.0);
  }
}

TEST(RngTest, LogNormalMeanMatchesFormula) {
  Rng rng(43);
  const double mu = 1.0, sigma = 0.5;
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.LogNormal(mu, sigma));
  EXPECT_NEAR(stats.mean(), std::exp(mu + 0.5 * sigma * sigma), 0.03);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(7);
  Rng child = parent.Fork();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.Next() == child.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, ForkStreamIsPinned) {
  // Fork's two draws are sequenced, so the child stream is the same on
  // every toolchain. Recorded with GCC 12.2 on x86-64.
  Rng parent(7);
  Rng child = parent.Fork();
  EXPECT_EQ(child.Next(), 9259139733175507224ULL);
  EXPECT_EQ(parent.Next(), 15488392906492639638ULL);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(51);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  auto original = v;
  rng.Shuffle(v);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), original.begin()));
  EXPECT_NE(v, original);  // astronomically unlikely to be identity
}

TEST(SampleWithoutReplacementTest, DistinctAndInRange) {
  Rng rng(53);
  for (uint64_t n : {10ULL, 100ULL, 1000ULL}) {
    for (uint64_t k : std::vector<uint64_t>{0, 1, n / 2, n}) {
      auto sample = SampleWithoutReplacement(rng, n, k);
      EXPECT_EQ(sample.size(), k);
      std::set<uint64_t> unique(sample.begin(), sample.end());
      EXPECT_EQ(unique.size(), k);
      for (uint64_t v : sample) EXPECT_LT(v, n);
    }
  }
}

TEST(AliasTableTest, MatchesWeights) {
  Rng rng(61);
  AliasTable table({1.0, 3.0, 6.0});
  int counts[3] = {};
  constexpr int kDraws = 300000;
  for (int i = 0; i < kDraws; ++i) ++counts[table.Sample(rng)];
  EXPECT_NEAR(counts[0] / static_cast<double>(kDraws), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(kDraws), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(kDraws), 0.6, 0.01);
}

TEST(AliasTableTest, ZeroWeightNeverSampled) {
  Rng rng(67);
  AliasTable table({0.0, 1.0, 0.0, 2.0});
  for (int i = 0; i < 10000; ++i) {
    const size_t s = table.Sample(rng);
    EXPECT_TRUE(s == 1 || s == 3);
  }
}

// ---------- Zipf ----------

class ZipfExponentTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfExponentTest, MatchesAnalyticMass) {
  const double s = GetParam();
  const uint64_t n = 1000;
  ZipfSampler sampler(n, s);
  Rng rng(71);
  std::vector<uint64_t> counts(n, 0);
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) ++counts[sampler.Sample(rng)];
  const auto weights = ZipfWeights(n, s);
  // Check the head ranks' empirical mass against the analytic pmf.
  for (uint64_t r : {0ULL, 1ULL, 9ULL}) {
    const double empirical = counts[r] / static_cast<double>(kDraws);
    EXPECT_NEAR(empirical, weights[r], 0.01)
        << "rank " << r << " s=" << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfExponentTest,
                         ::testing::Values(0.0, 0.5, 0.8, 1.0, 1.2, 2.0));

TEST(ZipfTest, SamplesInRange) {
  ZipfSampler sampler(10, 1.1);
  Rng rng(73);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(sampler.Sample(rng), 10u);
}

TEST(ZipfTest, SingleElement) {
  ZipfSampler sampler(1, 1.5);
  Rng rng(79);
  EXPECT_EQ(sampler.Sample(rng), 0u);
}

TEST(ZipfTest, GeneralizedHarmonic) {
  EXPECT_NEAR(GeneralizedHarmonic(3, 1.0), 1.0 + 0.5 + 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(GeneralizedHarmonic(4, 0.0), 4.0, 1e-12);
}

TEST(ZipfTest, WeightsNormalized) {
  const auto w = ZipfWeights(100, 0.9);
  double total = 0;
  for (double x : w) total += x;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(w[0], w[50]);
}

class DegreeSamplerMeanTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(DegreeSamplerMeanTest, EmpiricalMeanNearTarget) {
  const auto [mean, alpha] = GetParam();
  DegreeSampler sampler(mean, alpha, 100000);
  Rng rng(83);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) {
    const uint64_t d = sampler.Sample(rng);
    EXPECT_GE(d, 1u);
    stats.Add(static_cast<double>(d));
  }
  // Discretization biases the mean slightly; 10% tolerance.
  EXPECT_NEAR(stats.mean(), mean, mean * 0.10);
}

INSTANTIATE_TEST_SUITE_P(
    MeansAndTails, DegreeSamplerMeanTest,
    ::testing::Values(std::make_tuple(8.0, 1.6), std::make_tuple(32.0, 1.6),
                      std::make_tuple(56.0, 2.0), std::make_tuple(13.0, 1.3),
                      std::make_tuple(251.0, 1.8)));

}  // namespace
}  // namespace wsd
