// Per-tier equivalence tests for the vectorized scan primitives: every
// dispatch tier must produce output bit-identical to the scalar
// reference (OpsForTier(kScalar)) for every primitive, including at
// block boundaries (the 32-byte AVX2 stride and the zero-padded tail).
// Also covers the tier-selection policy, the override/gauge plumbing,
// and the BitPlane helpers the kernels lean on.

#include "util/simd.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "util/cpu.h"
#include "util/metrics.h"

namespace wsd {
namespace simd {
namespace {

size_t PlaneWords(size_t n) { return (n + 63) / 64; }

// Runs one builder primitive at `tier` and at kScalar over `input` and
// expects identical words (including zeroed tail bits).
void ExpectBuilderMatch(Tier tier, const std::string& input,
                        void (*ScanOps::*builder)(const char*, size_t,
                                                  uint64_t*)) {
  const size_t words = PlaneWords(input.size());
  std::vector<uint64_t> got(words + 1, ~uint64_t{0});
  std::vector<uint64_t> want(words + 1, ~uint64_t{0});
  (OpsForTier(tier).*builder)(input.data(), input.size(), got.data());
  (OpsForTier(Tier::kScalar).*builder)(input.data(), input.size(),
                                       want.data());
  for (size_t w = 0; w < words; ++w) {
    ASSERT_EQ(got[w], want[w])
        << TierName(tier) << " word " << w << " n=" << input.size();
  }
}

void ExpectAllPrimitivesMatch(Tier tier, const std::string& input) {
  ExpectBuilderMatch(tier, input, &ScanOps::build_phone_candidates);
  ExpectBuilderMatch(tier, input, &ScanOps::build_isbn_candidates);
  ExpectBuilderMatch(tier, input, &ScanOps::build_word_chars);
}

class SimdTierTest : public ::testing::TestWithParam<Tier> {};

TEST_P(SimdTierTest, MatchesScalarOnCraftedInputs) {
  const Tier tier = GetParam();
  const std::vector<std::string> inputs = {
      "",
      "<",
      "&",
      "<a href=\"x\">hi &amp; bye</a>",
      "call (555) 123-4567 or +1 555 000 1111 now",
      "ISBN 978-0-306-40615-7 and 0-306-40615-2X",
      "don't stop-word the classifier's tokens",
      "<div class='q\"uo\"ted'>mixed \" and ' quotes</div>",
      std::string(63, '<'),
      std::string(64, '&'),
      std::string(65, '>'),
      std::string(127, '7'),
      std::string(128, 'x') + "<b>",
      std::string(255, ' ') + "&",
  };
  for (const std::string& input : inputs) {
    ExpectAllPrimitivesMatch(tier, input);
  }
  // Every length 0..130 exercises each vector width's tail handling.
  std::string ramp;
  for (size_t n = 0; n <= 130; ++n) {
    ExpectAllPrimitivesMatch(tier, ramp);
    ramp.push_back("<>&\"'ab1 -"[n % 10]);
  }
}

TEST_P(SimdTierTest, MatchesScalarOnSeededRandomInputs) {
  const Tier tier = GetParam();
  std::mt19937 rng(0x5eed);
  // HTML-ish alphabet, dense in structural bytes so plane words are
  // non-trivial; includes high bytes for the signed-compare edge.
  const std::string alphabet =
      "<<>>&&\"' abcdefghijklmnopqrstuvwxyzABCXZ0123456789()+-=/;#xX"
      "\t\n\x80\xc3\xa9\xff";
  for (int round = 0; round < 200; ++round) {
    std::uniform_int_distribution<size_t> len_dist(0, 600);
    std::uniform_int_distribution<size_t> chr_dist(0, alphabet.size() - 1);
    std::string input;
    const size_t len = len_dist(rng);
    input.reserve(len);
    for (size_t i = 0; i < len; ++i) input.push_back(alphabet[chr_dist(rng)]);
    ExpectAllPrimitivesMatch(tier, input);
  }
}

INSTANTIATE_TEST_SUITE_P(AvailableTiers, SimdTierTest,
                         ::testing::ValuesIn(AvailableTiers()),
                         [](const ::testing::TestParamInfo<Tier>& info) {
                           return std::string(TierName(info.param));
                         });

TEST(ChooseTierTest, PicksBestWhenUnforced) {
  EXPECT_EQ(ChooseTier(Tier::kAvx2, false), Tier::kAvx2);
  EXPECT_EQ(ChooseTier(Tier::kScalar, false), Tier::kScalar);
}

TEST(ChooseTierTest, ForceScalarWins) {
  EXPECT_EQ(ChooseTier(Tier::kAvx2, true), Tier::kScalar);
  EXPECT_EQ(ChooseTier(Tier::kScalar, true), Tier::kScalar);
}

TEST(ScopedTierOverrideTest, SwapsOpsAndGaugeThenRestores) {
  const Tier before = ActiveTier();
  auto& gauge = MetricsRegistry::Global().GetGauge("wsd.scan.simd_tier");
  {
    const ScopedTierOverride pinned(Tier::kScalar);
    EXPECT_EQ(ActiveTier(), Tier::kScalar);
    EXPECT_EQ(gauge.value(), 0.0);
    // Dispatch actually repoints: the active ops are the scalar table.
    EXPECT_EQ(&Ops(), &OpsForTier(Tier::kScalar));
  }
  EXPECT_EQ(ActiveTier(), before);
  EXPECT_EQ(gauge.value(), static_cast<double>(before));
  EXPECT_EQ(&Ops(), &OpsForTier(before));
}

// The gauge value is the enumerator, so pinning each runnable tier must
// publish the documented number (0 scalar, 3 avx2) — a deleted or
// reordered enumerator would renumber it.
TEST(ScopedTierOverrideTest, PinnedAvx2PublishesGaugeThree) {
  if (!CpuHasAvx2()) GTEST_SKIP() << "CPU lacks AVX2";
  auto& gauge = MetricsRegistry::Global().GetGauge("wsd.scan.simd_tier");
  const ScopedTierOverride pinned(Tier::kAvx2);
  EXPECT_EQ(ActiveTier(), Tier::kAvx2);
  EXPECT_EQ(gauge.value(), 3.0);
  EXPECT_EQ(&Ops(), &OpsForTier(Tier::kAvx2));
}

TEST(AvailableTiersTest, ScalarThenAvx2WhenSupported) {
  const std::vector<Tier> want =
      CpuHasAvx2() ? std::vector<Tier>{Tier::kScalar, Tier::kAvx2}
                   : std::vector<Tier>{Tier::kScalar};
  EXPECT_TRUE(AvailableTiers() == want)
      << "got " << AvailableTiers().size() << " tiers";
}

// '(' is a phone-candidate start wherever it appears, so a plane built
// over '(' marks in filler has exactly the marked bits set.
TEST(BitPlaneTest, NextSetNextClear) {
  std::string marked(150, 'a');
  marked[0] = '(';
  marked[63] = '(';
  marked[64] = '(';
  marked[149] = '(';
  BitPlane plane;
  BuildPhoneCandidates(marked, &plane);
  EXPECT_EQ(plane.NextSet(0), 0u);
  EXPECT_EQ(plane.NextSet(1), 63u);
  EXPECT_EQ(plane.NextSet(64), 64u);
  EXPECT_EQ(plane.NextSet(65), 149u);
  EXPECT_EQ(plane.NextSet(150), BitPlane::npos);
  EXPECT_EQ(plane.NextSet(100000), BitPlane::npos);
  EXPECT_EQ(plane.NextClear(0), 1u);
  EXPECT_EQ(plane.NextClear(63), 65u);
  EXPECT_EQ(plane.NextClear(149), 150u);
}

TEST(BitPlaneTest, ReusedPlaneShrinksWithoutStaleBits) {
  BitPlane plane;
  BuildPhoneCandidates(std::string(200, '('), &plane);
  // Rebuilding over a shorter input must leave no bits visible past the
  // new size, even though capacity is retained.
  BuildPhoneCandidates("abc(", &plane);
  EXPECT_EQ(plane.size(), 4u);
  EXPECT_EQ(plane.NextSet(0), 3u);
  EXPECT_EQ(plane.NextSet(4), BitPlane::npos);
}

}  // namespace
}  // namespace simd
}  // namespace wsd
