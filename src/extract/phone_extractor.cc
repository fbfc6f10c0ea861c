#include "extract/phone_extractor.h"

#include <array>

#include "entity/phone.h"
#include "util/string_util.h"

namespace wsd {

namespace {

bool IsSep(char c) { return c == '-' || c == '.' || c == ' '; }

// Reads exactly `count` digits at text[j..]; appends them to out and
// advances j. Returns false without side effects on failure.
bool ReadDigits(std::string_view text, size_t& j, int count,
                std::string* out) {
  if (j + static_cast<size_t>(count) > text.size()) return false;
  for (int k = 0; k < count; ++k) {
    if (!IsDigit(text[j + static_cast<size_t>(k)])) return false;
  }
  out->append(text.substr(j, static_cast<size_t>(count)));
  j += static_cast<size_t>(count);
  return true;
}

bool DigitFollows(std::string_view text, size_t j) {
  return j < text.size() && IsDigit(text[j]);
}

// Attempts to parse one phone number starting at text[i]. On success
// fills `digits` (canonical 10) and `end` (one past the match).
bool ParsePhoneAt(std::string_view text, size_t i, std::string* digits,
                  size_t* end) {
  size_t j = i;
  digits->clear();

  // Optional country code: "+1" or bare "1", followed by a separator —
  // or, for "+1", directly by the open paren of an area code
  // ("+1(415) 555-0134").
  if (j < text.size() && text[j] == '+') {
    if (j + 1 >= text.size() || text[j + 1] != '1') return false;
    j += 2;
    if (j >= text.size()) return false;
    if (IsSep(text[j])) {
      ++j;
    } else if (text[j] != '(') {
      return false;
    }
  } else if (j < text.size() && text[j] == '1' && j + 1 < text.size() &&
             IsSep(text[j + 1]) && j + 2 < text.size() &&
             IsDigit(text[j + 2])) {
    j += 2;
  }

  if (j >= text.size()) return false;

  if (text[j] == '(') {
    // (415) 555-0134 style.
    ++j;
    if (!ReadDigits(text, j, 3, digits)) return false;
    if (j >= text.size() || text[j] != ')') return false;
    ++j;
    if (j < text.size() && text[j] == ' ') ++j;
    if (!ReadDigits(text, j, 3, digits)) return false;
    if (j >= text.size() || !IsSep(text[j])) return false;
    ++j;
    if (!ReadDigits(text, j, 4, digits)) return false;
  } else {
    if (!ReadDigits(text, j, 3, digits)) return false;
    if (j < text.size() && IsSep(text[j])) {
      // 415-555-0134 / 415.555.0134 / 415 555 0134.
      ++j;
      if (!ReadDigits(text, j, 3, digits)) return false;
      if (j >= text.size() || !IsSep(text[j])) return false;
      ++j;
      if (!ReadDigits(text, j, 4, digits)) return false;
    } else {
      // Bare 4155550134.
      if (!ReadDigits(text, j, 7, digits)) return false;
    }
  }

  if (DigitFollows(text, j)) return false;  // part of a longer run
  if (!IsValidNanp(*digits)) return false;
  *end = j;
  return true;
}

}  // namespace

// Chars that can start a phone candidate: digits, '(' and '+'. A table
// keeps the (hot) skip loop to one load and one branch per character.
constexpr std::array<bool, 256> kCandidateStart = [] {
  std::array<bool, 256> table{};
  for (char c = '0'; c <= '9'; ++c) table[static_cast<size_t>(c)] = true;
  table[static_cast<size_t>('(')] = true;
  table[static_cast<size_t>('+')] = true;
  return table;
}();

void ExtractPhonesInto(std::string_view text,
                       FunctionRef<void(const PhoneMatch&)> sink) {
  PhoneMatch m;  // reused; ParsePhoneAt clears digits each attempt
  size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (!kCandidateStart[static_cast<unsigned char>(c)] ||
        (IsDigit(c) && i != 0 && IsDigit(text[i - 1]))) {
      ++i;
      continue;
    }
    size_t end = 0;
    if (ParsePhoneAt(text, i, &m.digits, &end)) {
      m.offset = i;
      sink(m);
      i = end;
    } else {
      ++i;
    }
  }
}

}  // namespace wsd
