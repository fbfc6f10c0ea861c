#include "text/tokenizer.h"

#include <array>

#include "util/string_util.h"

namespace wsd {
namespace text {

namespace {

constexpr bool IsWordChar(char c) { return IsAlnum(c) || c == '\''; }

// Per byte: word character (letter, digit or apostrophe), letter, and the
// ASCII lower-case form. One lookup replaces three range tests per byte.
struct ByteClass {
  bool word = false;
  bool alpha = false;
  char lower = 0;
};

constexpr std::array<ByteClass, 256> MakeByteClasses() {
  std::array<ByteClass, 256> table{};
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    table[b] = {IsWordChar(c), IsAlpha(c), ToLowerChar(c)};
  }
  return table;
}

constexpr std::array<ByteClass, 256> kByteClasses = MakeByteClasses();

}  // namespace

std::vector<std::string> Tokenize(std::string_view text) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < text.size()) {
    if (!IsWordChar(text[i])) {
      ++i;
      continue;
    }
    const size_t start = i;
    bool has_alpha = false;
    while (i < text.size() && IsWordChar(text[i])) {
      if (IsAlpha(text[i])) has_alpha = true;
      ++i;
    }
    if (!has_alpha) continue;  // drop pure-digit runs
    std::string tok = ToLower(text.substr(start, i - start));
    // Strip leading/trailing apostrophes ('tis, dogs').
    size_t b = 0, e = tok.size();
    while (b < e && tok[b] == '\'') ++b;
    while (e > b && tok[e - 1] == '\'') --e;
    if (e > b) tokens.push_back(tok.substr(b, e - b));
  }
  return tokens;
}

// The 36 stopwords, dispatched on length and first letter: "a" "i"; "an"
// "as" "at" "be" "by" "he" "in" "is" "it" "my" "of" "on" "or" "to" "we";
// "and" "are" "but" "for" "its" "not" "our" "she" "the" "was" "you";
// "been" "from" "that" "they" "this" "were" "with"; "their".
bool IsStopword(std::string_view w) {
  switch (w.size()) {
    case 1:
      return w[0] == 'a' || w[0] == 'i';
    case 2:
      switch (w[0]) {
        case 'a':
          return w[1] == 'n' || w[1] == 's' || w[1] == 't';
        case 'b':
          return w[1] == 'e' || w[1] == 'y';
        case 'h':
        case 'w':
          return w[1] == 'e';
        case 'i':
          return w[1] == 'n' || w[1] == 's' || w[1] == 't';
        case 'm':
          return w[1] == 'y';
        case 'o':
          return w[1] == 'f' || w[1] == 'n' || w[1] == 'r';
        case 't':
          return w[1] == 'o';
        default:
          return false;
      }
    case 3:
      switch (w[0]) {
        case 'a':
          return w == "and" || w == "are";
        case 'b':
          return w == "but";
        case 'f':
          return w == "for";
        case 'i':
          return w == "its";
        case 'n':
          return w == "not";
        case 'o':
          return w == "our";
        case 's':
          return w == "she";
        case 't':
          return w == "the";
        case 'w':
          return w == "was";
        case 'y':
          return w == "you";
        default:
          return false;
      }
    case 4:
      switch (w[0]) {
        case 'b':
          return w == "been";
        case 'f':
          return w == "from";
        case 't':
          return w == "that" || w == "they" || w == "this";
        case 'w':
          return w == "were" || w == "with";
        default:
          return false;
      }
    case 5:
      return w == "their";
    default:
      return false;
  }
}

std::vector<std::string> TokenizeForClassification(std::string_view text) {
  std::vector<std::string> tokens = Tokenize(text);
  std::vector<std::string> out;
  out.reserve(tokens.size());
  for (auto& t : tokens) {
    if (!IsStopword(t)) out.push_back(std::move(t));
  }
  return out;
}

void TokenizeForClassificationInPlace(std::string* text,
                                      std::vector<std::string_view>* out) {
  char* s = text->data();
  const size_t n = text->size();
  size_t i = 0;
  while (i < n) {
    if (!kByteClasses[static_cast<unsigned char>(s[i])].word) {
      ++i;
      continue;
    }
    const size_t start = i;
    bool has_alpha = false;
    for (; i < n; ++i) {
      const ByteClass& c = kByteClasses[static_cast<unsigned char>(s[i])];
      if (!c.word) break;
      has_alpha |= c.alpha;
      s[i] = c.lower;
    }
    if (!has_alpha) continue;  // drop pure-digit runs
    // Strip leading/trailing apostrophes ('tis, dogs').
    size_t b = start, e = i;
    while (b < e && s[b] == '\'') ++b;
    while (e > b && s[e - 1] == '\'') --e;
    if (e == b) continue;
    const std::string_view tok(s + b, e - b);
    if (!IsStopword(tok)) out->push_back(tok);
  }
}

}  // namespace text
}  // namespace wsd
