#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string_view>

#include "corpus/web_cache.h"
#include "html/text_extract.h"
#include "text/naive_bayes.h"
#include "text/review_lm.h"
#include "text/tokenizer.h"

namespace wsd {
namespace text {
namespace {

TEST(TextTokenizerTest, LowercasesAndSplits) {
  auto tokens = Tokenize("Hello, World! It's GREAT.");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0], "hello");
  EXPECT_EQ(tokens[1], "world");
  EXPECT_EQ(tokens[2], "it's");
  EXPECT_EQ(tokens[3], "great");
}

TEST(TextTokenizerTest, DropsPureDigitRuns) {
  auto tokens = Tokenize("call 4155550134 or room 42b");
  // "4155550134" dropped; "42b" kept (contains a letter).
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0], "call");
  EXPECT_EQ(tokens[1], "or");
  EXPECT_EQ(tokens[2], "room");
  EXPECT_EQ(tokens[3], "42b");
}

TEST(TextTokenizerTest, StripsOuterApostrophes) {
  auto tokens = Tokenize("'quoted' dogs'");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], "quoted");
  EXPECT_EQ(tokens[1], "dogs");
}

TEST(TextTokenizerTest, StopwordRemoval) {
  EXPECT_TRUE(IsStopword("the"));
  EXPECT_TRUE(IsStopword("and"));
  EXPECT_FALSE(IsStopword("delicious"));
  auto tokens = TokenizeForClassification("The food was delicious");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], "food");
  EXPECT_EQ(tokens[1], "delicious");
}

// The stopword list IsStopword encodes as a switch, kept here as the
// reference it must agree with.
constexpr std::array<std::string_view, 36> kReferenceStopwords = {
    "the", "a",    "an",  "and", "or",   "of",  "to",   "in",  "on",
    "at",  "for",  "is",  "are", "was",  "were", "be",  "been", "it",
    "its", "this", "that", "with", "as",  "by",  "from", "but", "not",
    "we",  "i",    "you", "they", "he",  "she",  "my",  "our", "their"};

bool ReferenceIsStopword(std::string_view word) {
  return std::find(kReferenceStopwords.begin(), kReferenceStopwords.end(),
                   word) != kReferenceStopwords.end();
}

TEST(TextTokenizerTest, IsStopwordMatchesListOnEveryShortString) {
  // Every string of 1-5 characters over a-z and the apostrophe: the
  // classifier's whole token alphabet, 14,900,787 strings.
  constexpr std::string_view kAlphabet = "abcdefghijklmnopqrstuvwxyz'";
  uint64_t checked = 0, stopwords = 0, mismatches = 0;
  for (size_t len = 1; len <= 5; ++len) {
    std::vector<size_t> digit(len, 0);
    std::string word(len, kAlphabet[0]);
    bool done = false;
    while (!done) {
      const bool expected = ReferenceIsStopword(word);
      if (IsStopword(word) != expected && ++mismatches <= 10) {
        ADD_FAILURE() << "IsStopword disagrees on \"" << word << "\"";
      }
      stopwords += expected;
      ++checked;
      // Odometer step; done once the first position wraps.
      done = true;
      for (size_t k = len; k-- > 0;) {
        if (++digit[k] < kAlphabet.size()) {
          word[k] = kAlphabet[digit[k]];
          done = false;
          break;
        }
        digit[k] = 0;
        word[k] = kAlphabet[0];
      }
    }
  }
  EXPECT_EQ(checked, 14900787u);
  EXPECT_EQ(stopwords, kReferenceStopwords.size());
  EXPECT_EQ(mismatches, 0u);
}

TEST(TextTokenizerTest, IsStopwordMatchesListNearEveryStopword) {
  // Each stopword with one byte replaced by every other byte value,
  // upper-cased, extended by one byte and cut short by one.
  for (const std::string_view stop : kReferenceStopwords) {
    EXPECT_TRUE(IsStopword(stop)) << stop;
    std::string upper(stop);
    for (char& c : upper) c = static_cast<char>(c - 'a' + 'A');
    EXPECT_FALSE(IsStopword(upper)) << upper;
    for (size_t i = 0; i < stop.size(); ++i) {
      for (int b = 0; b < 256; ++b) {
        std::string word(stop);
        word[i] = static_cast<char>(b);
        EXPECT_EQ(IsStopword(word), ReferenceIsStopword(word))
            << stop << " byte " << i << " = " << b;
      }
    }
    for (int b = 0; b < 256; ++b) {
      const std::string longer = std::string(stop) + static_cast<char>(b);
      EXPECT_EQ(IsStopword(longer), ReferenceIsStopword(longer)) << longer;
    }
    const std::string_view shorter = stop.substr(0, stop.size() - 1);
    EXPECT_EQ(IsStopword(shorter), ReferenceIsStopword(shorter)) << stop;
  }
}

std::vector<std::string> InPlaceTokens(std::string text) {
  std::vector<std::string_view> views;
  TokenizeForClassificationInPlace(&text, &views);
  return std::vector<std::string>(views.begin(), views.end());
}

TEST(TextTokenizerTest, InPlaceMatchesReferenceOnReviewsWebPages) {
  SyntheticWeb::Config config;
  config.domain = Domain::kRestaurants;
  config.attr = Attribute::kReviews;
  config.num_entities = 300;
  config.seed = 5;
  SpreadParams params = DefaultSpreadParams(config.domain, config.attr);
  params.num_sites = 200;
  config.spread = params;
  auto web = SyntheticWeb::Create(config);
  ASSERT_TRUE(web.ok());
  uint64_t pages = 0, tokens = 0;
  for (SiteId s = 0; s < web->num_hosts(); ++s) {
    web->GeneratePages(s, [&](const Page& page, const PageTruth&) {
      // The scan tokenizes visible text; the raw HTML adds markup bytes.
      for (const std::string& text :
           {html::ExtractVisibleText(page.html), page.html}) {
        const std::vector<std::string> expected =
            TokenizeForClassification(text);
        ASSERT_EQ(InPlaceTokens(text), expected) << page.url;
        tokens += expected.size();
      }
      ++pages;
    });
  }
  EXPECT_GT(pages, 1000u);
  EXPECT_GT(tokens, 10 * pages);
}

TEST(TextTokenizerTest, InPlaceMatchesReferenceOnRandomBytes) {
  // Mostly word bytes and separators, with every byte value (>= 0x80
  // included) mixed in.
  constexpr std::string_view kCommon = "aZq'09 .,-'";
  Rng rng(2024);
  for (int iter = 0; iter < 20000; ++iter) {
    std::string text(rng.Uniform(48), '\0');
    for (char& c : text) {
      c = rng.Bernoulli(0.5) ? kCommon[rng.Index(kCommon.size())]
                             : static_cast<char>(rng.Uniform(256));
    }
    ASSERT_EQ(InPlaceTokens(text), TokenizeForClassification(text))
        << "iteration " << iter;
  }
}

TEST(NaiveBayesTest, RequiresBothClasses) {
  NaiveBayesClassifier model;
  model.Train({"good"}, true);
  EXPECT_FALSE(model.Finalize().ok());
}

TEST(NaiveBayesTest, LearnsSimpleSeparation) {
  NaiveBayesClassifier model;
  for (int i = 0; i < 20; ++i) {
    model.Train({"delicious", "food", "great", "service"}, true);
    model.Train({"hours", "directions", "parking", "map"}, false);
  }
  ASSERT_TRUE(model.Finalize().ok());
  EXPECT_TRUE(model.Predict({"delicious", "service"}));
  EXPECT_FALSE(model.Predict({"directions", "map"}));
  EXPECT_GT(model.PredictLogOdds({"delicious"}),
            model.PredictLogOdds({"parking"}));
}

TEST(NaiveBayesTest, UnknownTokensFallBackToPrior) {
  NaiveBayesClassifier model;
  // Equal token mass per class so the unknown-token likelihoods cancel
  // and only the 3:1 document prior decides.
  for (int i = 0; i < 30; ++i) model.Train({"a"}, true);
  for (int i = 0; i < 10; ++i) model.Train({"b", "c", "d"}, false);
  ASSERT_TRUE(model.Finalize().ok());
  EXPECT_TRUE(model.Predict({"zzz", "qqq"}));
}

TEST(ReviewLmTest, GeneratorsProduceNonEmptyDistinctStyles) {
  Rng rng(9);
  const std::string review = GenerateReviewText(rng, "Mario's Grill");
  const std::string boiler = GenerateBoilerplateText(rng, "Mario's Grill");
  EXPECT_FALSE(review.empty());
  EXPECT_FALSE(boiler.empty());
  EXPECT_NE(review, boiler);
}

TEST(ReviewLmTest, TrainedClassifierSeparatesHeldOutDocs) {
  auto model = TrainReviewClassifier(/*seed=*/11);
  ASSERT_TRUE(model.ok());
  // Held-out corpus from a different seed.
  Rng rng(999);
  int correct = 0, total = 0;
  for (const LabeledDoc& doc : MakeTrainingCorpus(rng, 200)) {
    const bool predicted =
        model->Predict(TokenizeForClassification(doc.content));
    correct += predicted == doc.is_review;
    ++total;
  }
  const double accuracy = static_cast<double>(correct) / total;
  EXPECT_GT(accuracy, 0.9) << "held-out accuracy " << accuracy;
}

TEST(ReviewLmTest, DeterministicInSeed) {
  Rng a(4), b(4);
  EXPECT_EQ(GenerateReviewText(a, "X"), GenerateReviewText(b, "X"));
}

}  // namespace
}  // namespace text
}  // namespace wsd
