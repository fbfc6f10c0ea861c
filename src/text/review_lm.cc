#include "text/review_lm.h"

#include <array>
#include <cstring>
#include <initializer_list>
#include <string_view>

#include "text/tokenizer.h"
#include "util/string_util.h"

namespace wsd {
namespace text {

namespace {

constexpr std::array<std::string_view, 12> kPositive = {
    "amazing", "fantastic", "delicious", "friendly", "cozy", "excellent",
    "wonderful", "delightful", "superb", "charming", "outstanding",
    "lovely"};

constexpr std::array<std::string_view, 10> kNegative = {
    "disappointing", "bland", "slow", "overpriced", "noisy",
    "mediocre",      "rude",  "stale", "cramped",   "forgettable"};

constexpr std::array<std::string_view, 10> kAspects = {
    "food",  "service", "ambiance", "staff",   "prices",
    "menu",  "portions", "decor",   "location", "selection"};

constexpr std::array<std::string_view, 8> kVisitWords = {
    "visited", "stopped by", "came here", "dined here",
    "tried",   "went back",  "dropped in", "ordered takeout"};

constexpr std::array<std::string_view, 6> kTimeWords = {
    "last week",   "yesterday",     "on a friday night",
    "for brunch",  "over the weekend", "on our anniversary"};

constexpr std::array<std::string_view, 8> kBoilerCategories = {
    "restaurants", "hotels",   "banks",   "schools",
    "auto repair", "shopping", "libraries", "home services"};

template <size_t N>
std::string_view Pick(Rng& rng, const std::array<std::string_view, N>& arr) {
  return arr[rng.Index(N)];
}

// Appends the concatenation of `parts` with one resize.
void AppendParts(std::string* out,
                 std::initializer_list<std::string_view> parts) {
  size_t size = 0;
  for (const std::string_view part : parts) size += part.size();
  const size_t at = out->size();
  out->resize(at + size);
  char* dst = out->data() + at;
  for (const std::string_view part : parts) {
    std::memcpy(dst, part.data(), part.size());
    dst += part.size();
  }
}

// Each sentence draws its words in separate statements, in the order the
// stream has always served them (a template's last slot first), so the
// text does not depend on how a compiler orders the evaluation of call
// arguments.
void AppendReviewSentence(Rng& rng, std::string_view subject,
                          std::string* out) {
  switch (rng.Uniform(6)) {
    case 0: {
      const std::string_view positive = Pick(rng, kPositive);
      const std::string_view aspect = Pick(rng, kAspects);
      const std::string_view when = Pick(rng, kTimeWords);
      const std::string_view visit = Pick(rng, kVisitWords);
      AppendParts(out, {"I ", visit, " ", when, " and the ", aspect,
                        " was absolutely ", positive, "."});
      return;
    }
    case 1: {
      const std::string_view negative = Pick(rng, kNegative);
      const std::string_view second_aspect = Pick(rng, kAspects);
      const std::string_view positive = Pick(rng, kPositive);
      const std::string_view aspect = Pick(rng, kAspects);
      AppendParts(out, {"The ", aspect, " at ", subject, " is ", positive,
                        " but the ", second_aspect, " felt ", negative, "."});
      return;
    }
    case 2: {
      const std::string_view aspect = Pick(rng, kAspects);
      const std::string_view positive = Pick(rng, kPositive);
      const uint64_t stars = 3 + rng.Uniform(3);
      out->append("Would definitely recommend this place, ");
      AppendZeroPadded(out, stars, 1);
      AppendParts(out, {" stars from me for the ", positive, " ", aspect,
                        "."});
      return;
    }
    case 3: {
      const std::string_view negative = Pick(rng, kNegative);
      const std::string_view aspect = Pick(rng, kAspects);
      AppendParts(out, {"Honestly the ", aspect, " was ", negative,
                        " and we waited far too long; probably not coming "
                        "back."});
      return;
    }
    case 4: {
      const std::string_view atmosphere = Pick(rng, kPositive);
      const std::string_view aspect = Pick(rng, kAspects);
      const std::string_view positive = Pick(rng, kPositive);
      AppendParts(out, {"My review: ", subject, " exceeded expectations, ",
                        positive, " ", aspect, " and a ", atmosphere,
                        " atmosphere."});
      return;
    }
    default: {
      const std::string_view server = Pick(rng, kPositive);
      const std::string_view positive = Pick(rng, kPositive);
      const std::string_view aspect = Pick(rng, kAspects);
      const std::string_view when = Pick(rng, kTimeWords);
      const std::string_view visit = Pick(rng, kVisitWords);
      AppendParts(out, {"We ", visit, " ", when, "; the ", aspect, " was ",
                        positive, " and our server was ", server, "."});
      return;
    }
  }
}

void AppendBoilerplateSentence(Rng& rng, std::string_view subject,
                               std::string* out) {
  switch (rng.Uniform(6)) {
    case 0:
      AppendParts(out, {"Find hours, directions and contact information "
                        "for ",
                        subject, "."});
      return;
    case 1: {
      const std::string_view category = Pick(rng, kBoilerCategories);
      AppendParts(out, {subject, " is listed under ", category,
                        " in our local business directory."});
      return;
    }
    case 2: {
      const uint64_t closes = 5 + rng.Uniform(5);
      const uint64_t opens = 7 + rng.Uniform(4);
      out->append("Open Monday through Saturday from ");
      AppendZeroPadded(out, opens, 1);
      out->append(" am to ");
      AppendZeroPadded(out, closes, 1);
      out->append(" pm; holiday hours may vary.");
      return;
    }
    case 3: {
      const std::string_view category = Pick(rng, kBoilerCategories);
      AppendParts(out, {"Browse nearby ", category,
                        ", get a map, or claim this listing to update "
                        "business details."});
      return;
    }
    case 4: {
      const std::string_view second = Pick(rng, kBoilerCategories);
      const std::string_view first = Pick(rng, kBoilerCategories);
      AppendParts(out, {"Categories: ", first, ", ", second,
                        ", and more local listings updated daily."});
      return;
    }
    default:
      AppendParts(out, {"Contact ", subject,
                        " for reservations, directions, parking "
                        "information and accessibility details."});
      return;
  }
}

}  // namespace

std::string GenerateReviewText(Rng& rng, const std::string& subject) {
  std::string out;
  GenerateReviewTextInto(rng, subject, &out);
  return out;
}

std::string GenerateBoilerplateText(Rng& rng, const std::string& subject) {
  std::string out;
  GenerateBoilerplateTextInto(rng, subject, &out);
  return out;
}

void GenerateReviewTextInto(Rng& rng, const std::string& subject,
                            std::string* out) {
  const uint64_t sentences = 1 + rng.Uniform(5);
  for (uint64_t i = 0; i < sentences; ++i) {
    if (i > 0) out->push_back(' ');
    AppendReviewSentence(rng, subject, out);
  }
}

void GenerateBoilerplateTextInto(Rng& rng, const std::string& subject,
                                 std::string* out) {
  const uint64_t sentences = 1 + rng.Uniform(4);
  for (uint64_t i = 0; i < sentences; ++i) {
    if (i > 0) out->push_back(' ');
    AppendBoilerplateSentence(rng, subject, out);
  }
}

std::vector<LabeledDoc> MakeTrainingCorpus(Rng& rng, size_t per_class) {
  std::vector<LabeledDoc> docs;
  docs.reserve(per_class * 2);
  for (size_t i = 0; i < per_class; ++i) {
    const std::string subject = "the " + std::string(kAspects[rng.Index(
                                             kAspects.size())]) + " place";
    docs.push_back({GenerateReviewText(rng, subject), true});
    docs.push_back({GenerateBoilerplateText(rng, subject), false});
  }
  return docs;
}

StatusOr<NaiveBayesClassifier> TrainReviewClassifier(uint64_t seed,
                                                     size_t per_class) {
  Rng rng(seed);
  NaiveBayesClassifier model;
  for (const LabeledDoc& doc : MakeTrainingCorpus(rng, per_class)) {
    model.Train(TokenizeForClassification(doc.content), doc.is_review);
  }
  WSD_RETURN_IF_ERROR(model.Finalize());
  return model;
}

}  // namespace text
}  // namespace wsd
