#include "entity/name_gen.h"

#include <array>
#include <string_view>

#include "util/string_util.h"

namespace wsd {

namespace {

constexpr std::array<std::string_view, 28> kAdjectives = {
    "Golden",  "Silver",   "Riverside", "Sunny",   "Old",      "Grand",
    "Royal",   "Blue",     "Green",     "Lakeside", "Hilltop",  "Corner",
    "Urban",   "Rustic",   "Modern",    "Cozy",    "Northern", "Southern",
    "Eastern", "Western",  "Happy",     "Lucky",   "Prime",    "Classic",
    "Velvet",  "Crimson",  "Amber",     "Maple"};

constexpr std::array<std::string_view, 24> kNouns = {
    "Harbor",  "Garden",  "Valley", "Summit",  "Meadow", "Canyon",
    "Bridge",  "Fountain", "Grove", "Orchard", "Prairie", "Lagoon",
    "Anchor",  "Lantern", "Compass", "Willow", "Cedar",  "Falcon",
    "Heron",   "Bison",   "Juniper", "Harvest", "Ember",  "Crescent"};

constexpr std::array<std::string_view, 10> kRestaurantSuffix = {
    "Bistro", "Grill",  "Kitchen", "Diner",    "Cafe",
    "Trattoria", "Cantina", "Eatery", "Steakhouse", "Noodle House"};

constexpr std::array<std::string_view, 8> kAutomotiveSuffix = {
    "Auto Repair", "Motors",     "Auto Body",  "Tire & Brake",
    "Car Care",    "Transmission", "Auto Parts", "Collision Center"};

constexpr std::array<std::string_view, 6> kBankSuffix = {
    "Savings Bank", "Credit Union",  "National Bank",
    "Trust",        "Community Bank", "Federal Bank"};

constexpr std::array<std::string_view, 4> kLibrarySuffix = {
    "Public Library", "Community Library", "Branch Library",
    "Memorial Library"};

constexpr std::array<std::string_view, 6> kSchoolSuffix = {
    "Elementary School", "Middle School", "High School",
    "Academy",           "Charter School", "Preparatory School"};

constexpr std::array<std::string_view, 6> kHotelSuffix = {
    "Hotel", "Inn", "Suites", "Lodge", "Resort", "Motel"};

constexpr std::array<std::string_view, 8> kRetailSuffix = {
    "Outfitters", "Emporium",  "Boutique", "Market",
    "Supply Co",  "Trading Co", "Shop",    "Depot"};

constexpr std::array<std::string_view, 8> kHomeGardenSuffix = {
    "Nursery",      "Garden Center", "Landscaping",  "Hardware",
    "Home Improvement", "Plumbing",  "Roofing",      "Interiors"};

constexpr std::array<std::string_view, 18> kBookWords = {
    "Shadow",  "River",  "Secret", "Garden", "Winter", "Summer",
    "Letters", "Songs",  "History", "Art",   "Silence", "Journey",
    "Empire",  "Memory", "Stars",  "Storm",  "Atlas",   "Chronicle"};

constexpr std::array<std::string_view, 20> kCityStems = {
    "Cedar",  "Maple",  "Oak",    "Pine",   "Elm",     "Birch",
    "Spring", "Fair",   "Lake",   "River",  "Stone",   "Clear",
    "Mill",   "Bridge", "George", "Madison", "Franklin", "Clay",
    "Wood",   "Ash"};

constexpr std::array<std::string_view, 8> kCitySuffixes = {
    "ville", "ton", "field", "burg", " City", " Falls", " Springs", "port"};

constexpr std::array<std::string_view, 20> kFirstNames = {
    "Laura", "James",  "Maria",  "David",  "Susan",  "Robert",
    "Linda", "Michael", "Karen", "Thomas", "Nancy",  "Daniel",
    "Emily", "Mark",   "Anna",   "Paul",   "Julia",  "Peter",
    "Grace", "Henry"};

constexpr std::array<std::string_view, 20> kLastNames = {
    "Bennett",  "Carter",  "Diaz",    "Evans",   "Foster", "Garcia",
    "Hughes",   "Ingram",  "Jensen",  "Keller",  "Lawson", "Mercer",
    "Nolan",    "Osborne", "Porter",  "Quinn",   "Reyes",  "Sutton",
    "Thornton", "Vaughn"};

template <size_t N>
std::string_view Pick(Rng& rng, const std::array<std::string_view, N>& arr) {
  return arr[rng.Index(N)];
}

}  // namespace

// Every draw below sits in its own statement, in the order the stream has
// always served them (right operand first): C++ leaves the order of two
// draws in one expression to the compiler.
std::string GenerateName(Rng& rng, NameKind kind) {
  const std::string_view noun = Pick(rng, kNouns);
  const std::string_view adjective = Pick(rng, kAdjectives);
  const std::string stem = std::string(adjective) + " " + std::string(noun);
  switch (kind) {
    case NameKind::kRestaurant:
      return stem + " " + std::string(Pick(rng, kRestaurantSuffix));
    case NameKind::kAutomotive:
      return stem + " " + std::string(Pick(rng, kAutomotiveSuffix));
    case NameKind::kBank:
      return stem + " " + std::string(Pick(rng, kBankSuffix));
    case NameKind::kLibrary:
      return stem + " " + std::string(Pick(rng, kLibrarySuffix));
    case NameKind::kSchool:
      return stem + " " + std::string(Pick(rng, kSchoolSuffix));
    case NameKind::kHotel:
      return stem + " " + std::string(Pick(rng, kHotelSuffix));
    case NameKind::kRetail:
      return stem + " " + std::string(Pick(rng, kRetailSuffix));
    case NameKind::kHomeGarden:
      return stem + " " + std::string(Pick(rng, kHomeGardenSuffix));
    case NameKind::kBook: {
      // "The <Word> of <Word>" style titles.
      const std::string_view object = Pick(rng, kBookWords);
      const std::string_view subject = Pick(rng, kBookWords);
      return "The " + std::string(subject) + " of " + std::string(object);
    }
  }
  return stem;
}

std::string GenerateCity(Rng& rng) {
  const std::string_view suffix = Pick(rng, kCitySuffixes);
  const std::string_view stem = Pick(rng, kCityStems);
  return std::string(stem) + std::string(suffix);
}

std::string HostFromName(const std::string& name, const std::string& city) {
  std::string host;
  host.reserve(name.size() + city.size() + 5);
  for (char c : name) {
    if (IsAlnum(c)) host.push_back(ToLowerChar(c));
  }
  host.push_back('-');
  for (char c : city) {
    if (IsAlnum(c)) host.push_back(ToLowerChar(c));
  }
  host += ".com";
  return host;
}

std::string GeneratePersonName(Rng& rng) {
  const std::string_view last = Pick(rng, kLastNames);
  const std::string_view first = Pick(rng, kFirstNames);
  return std::string(first) + " " + std::string(last);
}

}  // namespace wsd
