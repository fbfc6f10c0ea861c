#ifndef WSD_TRAFFIC_URL_PATTERNS_H_
#define WSD_TRAFFIC_URL_PATTERNS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace wsd {

/// The three high-traffic, review-rich sites of the §4 case study.
enum class TrafficSite : int {
  kAmazon = 0,  // amazon.com/gp/product/[ID] and amazon.com/*/dp/[ID]
  kYelp = 1,    // yelp.com/biz/[ID]
  kImdb = 2,    // imdb.com/title/tt[ID]
  kNumSites = 3,
};

/// Display name for `site` ("Amazon", "Yelp", "IMDb").
std::string_view TrafficSiteName(TrafficSite site);

/// The site whose TrafficSiteName equals `name`, ignoring case; nullopt
/// when none does.
std::optional<TrafficSite> FindTrafficSiteByName(std::string_view name);

/// Every site name, lowercased and joined by `separator`, for help and
/// error text.
std::string TrafficSiteVocabulary(char separator);

/// A URL resolved to the structured entity it denotes.
struct EntityUrlKey {
  TrafficSite site = TrafficSite::kAmazon;
  uint32_t entity_index = 0;
};

/// Builds a visitable URL for the entity. Amazon entities alternate
/// between the /gp/product/ and /*/dp/ forms (both occur in real logs and
/// both must parse; `variant` selects the form). The entity key mirrors
/// each site's real scheme: Amazon a 10-character ASIN-like id
/// ("B%09u"), Yelp a business slug ("biz-%06u"), IMDb a 7-digit title
/// number ("tt%07u").
std::string EntityUrl(TrafficSite site, uint32_t entity_index,
                      uint32_t variant = 0);

/// Zero-allocation variant of EntityUrl: writes the same bytes into *out
/// (replacing its contents, reusing capacity). The log generator keeps
/// one reused buffer per variant and renders into it this way once per
/// entity, on the entity's first click of that variant.
void EntityUrlInto(TrafficSite site, uint32_t entity_index, uint32_t variant,
                   std::string* out);

/// Recognizes the three URL patterns and extracts the entity index
/// ("we extracted user clicks on URLs that correspond to a unique
/// structured entity", §4.1). Returns nullopt for anything else. Parses
/// on views (ParseUrlView) and allocates nothing.
std::optional<EntityUrlKey> ParseEntityUrl(std::string_view url);

}  // namespace wsd

#endif  // WSD_TRAFFIC_URL_PATTERNS_H_
