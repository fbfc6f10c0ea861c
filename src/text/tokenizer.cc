#include "text/tokenizer.h"

#include <array>

#include "util/string_util.h"

namespace wsd {
namespace text {

namespace {

bool IsWordChar(char c) { return IsAlnum(c) || c == '\''; }

constexpr std::array<std::string_view, 36> kStopwords = {
    "the", "a",    "an",  "and", "or",   "of",  "to",   "in",  "on",
    "at",  "for",  "is",  "are", "was",  "were", "be",  "been", "it",
    "its", "this", "that", "with", "as",  "by",  "from", "but", "not",
    "we",  "i",    "you", "they", "he",  "she",  "my",  "our", "their"};

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

bool IsStopword(std::string_view word) {
  for (std::string_view s : kStopwords) {
    if (word == s) return true;
  }
  return false;
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
  std::string& s = *text;
  size_t i = 0;
  while (i < s.size()) {
    if (!IsWordChar(s[i])) {
      ++i;
      continue;
    }
    const size_t start = i;
    bool has_alpha = false;
    while (i < s.size() && IsWordChar(s[i])) {
      if (IsAlpha(s[i])) has_alpha = true;
      s[i] = ToLowerChar(s[i]);
      ++i;
    }
    if (!has_alpha) continue;  // drop pure-digit runs
    // Strip leading/trailing apostrophes ('tis, dogs').
    size_t b = start, e = i;
    while (b < e && s[b] == '\'') ++b;
    while (e > b && s[e - 1] == '\'') --e;
    if (e == b) continue;
    const std::string_view tok(s.data() + b, e - b);
    if (!IsStopword(tok)) out->push_back(tok);
  }
}

}  // namespace text
}  // namespace wsd
