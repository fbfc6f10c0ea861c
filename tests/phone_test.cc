#include "entity/phone.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "extract/phone_extractor.h"
#include "util/rng.h"

namespace wsd {
namespace {

// Test-local collector over the streaming extractor (the library only
// exposes the sink-style entry point).
std::vector<PhoneMatch> ExtractPhones(std::string_view text) {
  std::vector<PhoneMatch> out;
  ExtractPhonesInto(text, [&](const PhoneMatch& m) { out.push_back(m); });
  return out;
}

TEST(PhoneTest, ValidatesNanpRules) {
  EXPECT_TRUE(IsValidNanp("4155550134"));
  EXPECT_FALSE(IsValidNanp("415555013"));     // too short
  EXPECT_FALSE(IsValidNanp("41555501345"));   // too long
  EXPECT_FALSE(IsValidNanp("115555-0134"));   // non-digit
  EXPECT_FALSE(IsValidNanp("1155550134"));    // area starts with 1
  EXPECT_FALSE(IsValidNanp("0155550134"));    // area starts with 0
  EXPECT_FALSE(IsValidNanp("9115550134"));    // area is N11
  EXPECT_FALSE(IsValidNanp("4151550134"));    // exchange starts with 1
  EXPECT_FALSE(IsValidNanp("4159110134"));    // exchange is N11
  EXPECT_TRUE(IsValidNanp("2012000000"));
}

TEST(PhoneTest, PartsAccessors) {
  Phone p("4155550134");
  EXPECT_EQ(p.area_code(), "415");
  EXPECT_EQ(p.exchange(), "555");
  EXPECT_EQ(p.line(), "0134");
}

TEST(PhoneTest, FormatVariants) {
  Phone p("4155550134");
  EXPECT_EQ(p.Format(PhoneFormat::kParenthesized), "(415) 555-0134");
  EXPECT_EQ(p.Format(PhoneFormat::kDashed), "415-555-0134");
  EXPECT_EQ(p.Format(PhoneFormat::kDotted), "415.555.0134");
  EXPECT_EQ(p.Format(PhoneFormat::kSpaced), "415 555 0134");
  EXPECT_EQ(p.Format(PhoneFormat::kPlusOne), "+1-415-555-0134");
  EXPECT_EQ(p.Format(PhoneFormat::kBare), "4155550134");
}

TEST(PhoneTest, FormatIntoAppendsToNonEmptyBuffer) {
  const Phone p("4155550134");
  std::string out = " &middot; Call ";
  for (int f = 0; f < static_cast<int>(PhoneFormat::kNumFormats); ++f) {
    const auto format = static_cast<PhoneFormat>(f);
    const std::string before = out;
    p.FormatInto(format, &out);
    EXPECT_EQ(out, before + p.Format(format));
  }
  EXPECT_EQ(out,
            " &middot; Call (415) 555-0134415-555-0134415.555.0134"
            "415 555 0134+1-415-555-01344155550134");
}

TEST(PhoneTest, FromIndexAlwaysValid) {
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const Phone p = PhoneFromIndex(rng.Uniform(NanpSpaceSize()));
    EXPECT_TRUE(IsValidNanp(p.digits())) << p.digits();
  }
}

TEST(PhoneTest, FromIndexIsInjectiveOnSample) {
  // Distinct indices must map to distinct numbers (the catalog relies on
  // this for identifier uniqueness).
  std::set<std::string> seen;
  Rng rng(11);
  std::set<uint64_t> indices;
  while (indices.size() < 5000) indices.insert(rng.Uniform(NanpSpaceSize()));
  for (uint64_t idx : indices) {
    EXPECT_TRUE(seen.insert(PhoneFromIndex(idx).digits()).second)
        << "collision at index " << idx;
  }
}

TEST(PhoneTest, FromIndexCoversBoundaries) {
  EXPECT_TRUE(IsValidNanp(PhoneFromIndex(0).digits()));
  EXPECT_TRUE(IsValidNanp(PhoneFromIndex(NanpSpaceSize() - 1).digits()));
}

TEST(PhoneTest, RandomPhoneIsValid) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(IsValidNanp(RandomPhone(rng).digits()));
  }
}

// Property: every display format round-trips through the extractor.
class PhoneFormatRoundTrip : public ::testing::TestWithParam<PhoneFormat> {};

TEST_P(PhoneFormatRoundTrip, ExtractorRecoversCanonicalDigits) {
  Rng rng(17);
  for (int i = 0; i < 300; ++i) {
    const Phone p = RandomPhone(rng);
    const std::string text = "Call us at " + p.Format(GetParam()) + " now";
    const auto matches = ExtractPhones(text);
    ASSERT_EQ(matches.size(), 1u)
        << "format " << static_cast<int>(GetParam()) << " text: " << text;
    EXPECT_EQ(matches[0].digits, p.digits());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, PhoneFormatRoundTrip,
    ::testing::Values(PhoneFormat::kParenthesized, PhoneFormat::kDashed,
                      PhoneFormat::kDotted, PhoneFormat::kSpaced,
                      PhoneFormat::kPlusOne, PhoneFormat::kBare));

// ---------- fuzzer-found edge cases (see fuzz/corpus/extractors) ----------

TEST(PhoneExtractorTest, CandidateAtExactBufferBoundaries) {
  // A match flush against the end of the buffer: the digit-boundary
  // check must not read one past the end.
  auto at_end = ExtractPhones("call 415-555-0134");
  ASSERT_EQ(at_end.size(), 1u);
  EXPECT_EQ(at_end[0].digits, "4155550134");

  // The buffer IS the candidate, bare and formatted.
  EXPECT_EQ(ExtractPhones("4155550134").size(), 1u);
  EXPECT_EQ(ExtractPhones("(415) 555-0134").size(), 1u);
  EXPECT_EQ(ExtractPhones("+1(415) 555-0134").size(), 1u);

  // Truncated candidates at EOF never match or crash.
  EXPECT_TRUE(ExtractPhones("415-555-013").empty());
  EXPECT_TRUE(ExtractPhones("415-555-").empty());
  EXPECT_TRUE(ExtractPhones("(415) 555").empty());
  EXPECT_TRUE(ExtractPhones("(415").empty());
  EXPECT_TRUE(ExtractPhones("+1").empty());
  EXPECT_TRUE(ExtractPhones("+").empty());
  EXPECT_TRUE(ExtractPhones("415555013").empty());
}

TEST(PhoneExtractorTest, DigitRunBoundariesRejectEmbeddedMatches) {
  // A 10-digit window inside a longer identifier is not a phone.
  EXPECT_TRUE(ExtractPhones("41555501349").empty());
  EXPECT_TRUE(ExtractPhones("94155550134").empty());
  // ...but punctuation re-establishes a boundary.
  EXPECT_EQ(ExtractPhones("id:4155550134.").size(), 1u);
}

TEST(PhoneExtractorTest, SinkDeliversDocumentOrderWithReusedMatch) {
  const std::string text(
      "a 415-555-0134 b (415) 555-0199 c +1 415 555 0101 d 4155550134");
  size_t count = 0;
  size_t last_offset = 0;
  ExtractPhonesInto(text, [&](const PhoneMatch& m) {
    // The match object is reused across invocations; document order means
    // strictly increasing offsets, and the digits are always canonical.
    if (count > 0) EXPECT_GT(m.offset, last_offset);
    last_offset = m.offset;
    EXPECT_TRUE(IsValidNanp(m.digits));
    ++count;
  });
  EXPECT_EQ(count, 4u);
}

}  // namespace
}  // namespace wsd
