#include "entity/phone.h"

#include <cstring>
#include <iterator>

#include "util/logging.h"
#include "util/string_util.h"

namespace wsd {

namespace {

// Valid area codes / exchanges: [2-9] then two free digits, excluding the
// N11 codes. There are 8*10*10 - 8 = 792 valid NXX values.
constexpr uint64_t kNxxCount = 792;
constexpr uint64_t kLineCount = 10000;

// Maps a rank in [0, kNxxCount) to a valid NXX string.
void NxxFromRank(uint64_t rank, char* out) {
  // Walk the 800 candidates in order, skipping the 8 N11 codes. Because
  // N11 codes are those with last two digits "11", candidate c (0..799)
  // is skipped when c % 100 == 11. rank r maps to candidate
  // r + (number of skipped codes <= candidate). Solve directly: each
  // hundred-block contains 99 valid codes.
  const uint64_t block = rank / 99;       // first digit offset (0..7)
  uint64_t within = rank % 99;            // rank within the block
  if (within >= 11) ++within;             // skip the N11 slot
  out[0] = static_cast<char>('2' + block);
  out[1] = static_cast<char>('0' + within / 10);
  out[2] = static_cast<char>('0' + within % 10);
}

// The text before each digit group, per separated PhoneFormat (kBare and
// anything past it print the digits as stored).
struct PhoneLayout {
  std::string_view before_area, before_exchange, before_line;
};
constexpr PhoneLayout kLayouts[] = {
    {"(", ") ", "-"},   // kParenthesized
    {"", "-", "-"},     // kDashed
    {"", ".", "."},     // kDotted
    {"", " ", " "},     // kSpaced
    {"+1-", "-", "-"},  // kPlusOne
};
static_assert(std::size(kLayouts) == static_cast<size_t>(PhoneFormat::kBare));

}  // namespace

std::string Phone::Format(PhoneFormat format) const {
  std::string out;
  FormatInto(format, &out);
  return out;
}

void Phone::FormatInto(PhoneFormat format, std::string* out) const {
  WSD_DCHECK(digits_.size() == 10);
  const auto i = static_cast<size_t>(format);
  if (i >= std::size(kLayouts)) {
    out->append(digits_);
    return;
  }
  const PhoneLayout& layout = kLayouts[i];
  // Assemble on the stack and append once; the longest form,
  // "+1-415-555-0134", is 15 bytes.
  char buf[16];
  size_t n = 0;
  for (const std::string_view part :
       {layout.before_area, area_code(), layout.before_exchange, exchange(),
        layout.before_line, line()}) {
    std::memcpy(buf + n, part.data(), part.size());
    n += part.size();
  }
  out->append(buf, n);
}

bool IsValidNanp(std::string_view digits) {
  if (digits.size() != 10) return false;
  for (char c : digits) {
    if (!IsDigit(c)) return false;
  }
  // Area code: [2-9], not N11.
  if (digits[0] < '2') return false;
  if (digits[1] == '1' && digits[2] == '1') return false;
  // Exchange: [2-9], not N11.
  if (digits[3] < '2') return false;
  if (digits[4] == '1' && digits[5] == '1') return false;
  return true;
}

uint64_t NanpSpaceSize() { return kNxxCount * kNxxCount * kLineCount; }

Phone PhoneFromIndex(uint64_t index) {
  WSD_CHECK(index < NanpSpaceSize()) << "phone index out of range";
  const uint64_t line = index % kLineCount;
  index /= kLineCount;
  const uint64_t exchange_rank = index % kNxxCount;
  const uint64_t area_rank = index / kNxxCount;
  std::string digits(10, '0');
  NxxFromRank(area_rank, digits.data());
  NxxFromRank(exchange_rank, digits.data() + 3);
  digits[6] = static_cast<char>('0' + (line / 1000) % 10);
  digits[7] = static_cast<char>('0' + (line / 100) % 10);
  digits[8] = static_cast<char>('0' + (line / 10) % 10);
  digits[9] = static_cast<char>('0' + line % 10);
  return Phone(std::move(digits));
}

Phone RandomPhone(Rng& rng) {
  return PhoneFromIndex(rng.Uniform(NanpSpaceSize()));
}

}  // namespace wsd
