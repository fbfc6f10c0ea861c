#include "extract/isbn_extractor.h"

#include "entity/isbn.h"
#include "util/string_util.h"

namespace wsd {

namespace {

bool IsIsbnBodyChar(char c) {
  return IsDigit(c) || c == '-' || c == 'X' || c == 'x';
}

// Case-insensitive "isbn" within the `window` bytes preceding offset (and
// the 6 bytes following the end, to catch "0975229804 (ISBN)" forms).
bool HasIsbnContext(std::string_view text, size_t begin, size_t end) {
  const size_t lo = begin > kIsbnContextWindow ? begin - kIsbnContextWindow
                                               : 0;
  const size_t hi = std::min(text.size(), end + 6);
  for (size_t i = lo; i + 4 <= hi; ++i) {
    if ((text[i] == 'i' || text[i] == 'I') &&
        (text[i + 1] == 's' || text[i + 1] == 'S') &&
        (text[i + 2] == 'b' || text[i + 2] == 'B') &&
        (text[i + 3] == 'n' || text[i + 3] == 'N')) {
      return true;
    }
  }
  return false;
}

}  // namespace

void ExtractIsbnsInto(std::string_view text,
                      FunctionRef<void(const IsbnMatch&)> sink) {
  IsbnMatch m;       // reused across matches
  std::string bare;  // reused candidate buffer

  size_t i = 0;
  while (i < text.size()) {
    if (!IsDigit(text[i]) || (i > 0 && IsIsbnBodyChar(text[i - 1]))) {
      ++i;
      continue;
    }
    // Take the maximal run of digits/hyphens/X starting here.
    size_t j = i;
    while (j < text.size() && IsIsbnBodyChar(text[j])) ++j;
    // An 'X' is only valid as the final ISBN-10 character; trim trailing
    // hyphens left by ranges like "123-".
    std::string_view run = text.substr(i, j - i);
    while (!run.empty() && run.back() == '-') run.remove_suffix(1);

    bare.clear();
    StripIsbnSeparatorsInto(run, &bare);
    bool valid = false;
    if (bare.size() == 13 && IsValidIsbn13(bare)) {
      m.isbn13 = bare;
      valid = true;
    } else if (bare.size() == 10 && IsValidIsbn10(bare)) {
      // The 13-char conversion fits small-string capacity: no heap.
      m.isbn13 = *Isbn10To13(bare);
      valid = true;
    }
    if (valid && HasIsbnContext(text, i, i + run.size())) {
      m.offset = i;
      sink(m);
    }
    i = j;
  }
}

}  // namespace wsd
