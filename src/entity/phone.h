#ifndef WSD_ENTITY_PHONE_H_
#define WSD_ENTITY_PHONE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/rng.h"

namespace wsd {

/// How a phone number is rendered on a page. The synthetic corpus mixes
/// these so the extractor has to handle real-world variety (the paper used
/// "a standard regular expression based US phone number extractor").
enum class PhoneFormat : int {
  kParenthesized = 0,  // (415) 555-0134
  kDashed = 1,         // 415-555-0134
  kDotted = 2,         // 415.555.0134
  kSpaced = 3,         // 415 555 0134
  kPlusOne = 4,        // +1-415-555-0134
  kBare = 5,           // 4155550134
  kNumFormats = 6,
};

/// A NANP (North American Numbering Plan) phone number stored as its
/// canonical 10 digits, e.g. "4155550134".
class Phone {
 public:
  Phone() = default;
  /// `digits` must be a valid 10-digit NANP string (see IsValidNanp).
  explicit Phone(std::string digits) : digits_(std::move(digits)) {}

  const std::string& digits() const { return digits_; }
  bool empty() const { return digits_.empty(); }

  std::string_view area_code() const {
    return std::string_view(digits_).substr(0, 3);
  }
  std::string_view exchange() const {
    return std::string_view(digits_).substr(3, 3);
  }
  std::string_view line() const {
    return std::string_view(digits_).substr(6, 4);
  }

  /// Renders the number in the given display format.
  std::string Format(PhoneFormat format) const;

  /// Appending variant of Format, for render-into-buffer page generation:
  /// appends the same bytes to *out and allocates only if *out must grow.
  void FormatInto(PhoneFormat format, std::string* out) const;

  friend bool operator==(const Phone& a, const Phone& b) {
    return a.digits_ == b.digits_;
  }

 private:
  std::string digits_;
};

/// Validates the canonical 10-digit form: area code and exchange must start
/// with 2-9 and must not be N11 service codes (e.g. 411, 911).
bool IsValidNanp(std::string_view digits);

/// Draws a uniformly random valid NANP number.
Phone RandomPhone(Rng& rng);

/// Deterministically maps an index to a valid NANP number, collision-free
/// for index < NanpSpaceSize(). Used so entity catalogs are reproducible
/// and identifiers are unique without bookkeeping.
Phone PhoneFromIndex(uint64_t index);

/// Number of distinct values PhoneFromIndex can produce.
uint64_t NanpSpaceSize();

}  // namespace wsd

#endif  // WSD_ENTITY_PHONE_H_
