#include "entity/domains.h"

#include "util/logging.h"
#include "util/string_util.h"

namespace wsd {

namespace {

// Table 1 in enum order: the display name, the flag vocabulary and the
// style of the generated entity names.
struct DomainRow {
  std::string_view name;
  std::string_view flag;
  NameKind name_kind;
};

constexpr DomainRow kDomainRows[] = {
    {"Books", "books", NameKind::kBook},
    {"Restaurants", "restaurants", NameKind::kRestaurant},
    {"Automotive", "automotive", NameKind::kAutomotive},
    {"Banks", "banks", NameKind::kBank},
    {"Libraries", "libraries", NameKind::kLibrary},
    {"Schools", "schools", NameKind::kSchool},
    {"Hotels & Lodging", "hotels", NameKind::kHotel},
    {"Retail & Shopping", "retail", NameKind::kRetail},
    {"Home & Garden", "home", NameKind::kHomeGarden},
};
static_assert(std::size(kDomainRows) == kNumDomains);

const DomainRow* RowFor(Domain d) {
  const auto i = static_cast<size_t>(d);
  return i < std::size(kDomainRows) ? &kDomainRows[i] : nullptr;
}

}  // namespace

std::string_view DomainName(Domain d) {
  const DomainRow* row = RowFor(d);
  return row != nullptr ? row->name : "Unknown";
}

std::string_view DomainFlagName(Domain d) {
  const DomainRow* row = RowFor(d);
  return row != nullptr ? row->flag : "unknown";
}

std::optional<Domain> FindDomainByName(std::string_view name) {
  for (Domain d : AllDomains()) {
    if (EqualsIgnoreCase(DomainFlagName(d), name)) return d;
  }
  return std::nullopt;
}

std::string DomainVocabulary(char separator) {
  std::string out;
  for (const DomainRow& row : kDomainRows) {
    if (!out.empty()) out += separator;
    out += row.flag;
  }
  return out;
}

// AttributeName is defined in extract/attribute_registry.cc: all name<->id
// lookups route through the AttributeSpec table, never per-TU switches.

NameKind NameKindFor(Domain d) {
  const DomainRow* row = RowFor(d);
  WSD_CHECK(row != nullptr) << "invalid domain";
  return row->name_kind;
}

std::span<const Attribute> StudiedAttributes(Domain d) {
  static constexpr Attribute kBookAttrs[] = {Attribute::kIsbn};
  static constexpr Attribute kRestaurantAttrs[] = {
      Attribute::kPhone, Attribute::kHomepage, Attribute::kReviews};
  static constexpr Attribute kLocalAttrs[] = {Attribute::kPhone,
                                              Attribute::kHomepage};
  if (d == Domain::kBooks) return kBookAttrs;
  if (d == Domain::kRestaurants) return kRestaurantAttrs;
  return kLocalAttrs;
}

std::span<const Domain> AllDomains() {
  static constexpr Domain kAll[] = {
      Domain::kBooks,     Domain::kRestaurants, Domain::kAutomotive,
      Domain::kBanks,     Domain::kLibraries,   Domain::kSchools,
      Domain::kHotels,    Domain::kRetail,      Domain::kHomeGarden};
  static_assert(std::size(kAll) == kNumDomains);
  return kAll;
}

std::span<const Domain> LocalBusinessDomains() {
  static constexpr Domain kLocal[] = {
      Domain::kRestaurants, Domain::kAutomotive, Domain::kBanks,
      Domain::kLibraries,   Domain::kSchools,    Domain::kHotels,
      Domain::kRetail,      Domain::kHomeGarden};
  return kLocal;
}

}  // namespace wsd
