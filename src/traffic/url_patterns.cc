#include "traffic/url_patterns.h"

#include "entity/url.h"
#include "util/string_util.h"

namespace wsd {

namespace {

// The entity index after `tag` in `key`: decimal digits (leading zeros
// allowed) worth at most UINT32_MAX. The scan stops at the first digit
// past that bound, so it never overflows and needs no division.
std::optional<uint32_t> ParseIndexAfter(std::string_view key,
                                        std::string_view tag) {
  if (!StartsWith(key, tag) || key.size() == tag.size()) return std::nullopt;
  uint64_t index = 0;
  for (char c : key.substr(tag.size())) {
    if (!IsDigit(c)) return std::nullopt;
    index = index * 10 + static_cast<uint64_t>(c - '0');
    if (index > UINT32_MAX) return std::nullopt;
  }
  return static_cast<uint32_t>(index);
}

// Parses "B%09u"-style ASINs we generate. Real ASINs are opaque; only our
// synthetic ids round-trip, which is all the study needs.
std::optional<uint32_t> ParseAsin(std::string_view key) {
  if (key.size() != 10) return std::nullopt;
  return ParseIndexAfter(key, "B");
}

// First path segment after `prefix` in `path`, stopping at '/'.
std::string_view SegmentAfter(std::string_view path, std::string_view prefix) {
  const size_t pos = path.find(prefix);
  if (pos == std::string_view::npos) return {};
  std::string_view rest = path.substr(pos + prefix.size());
  const size_t slash = rest.find('/');
  return slash == std::string_view::npos ? rest : rest.substr(0, slash);
}

}  // namespace

std::string_view TrafficSiteName(TrafficSite site) {
  switch (site) {
    case TrafficSite::kAmazon:
      return "Amazon";
    case TrafficSite::kYelp:
      return "Yelp";
    case TrafficSite::kImdb:
      return "IMDb";
    case TrafficSite::kNumSites:
      break;
  }
  return "Unknown";
}

std::optional<TrafficSite> FindTrafficSiteByName(std::string_view name) {
  for (int i = 0; i < static_cast<int>(TrafficSite::kNumSites); ++i) {
    const auto site = static_cast<TrafficSite>(i);
    if (EqualsIgnoreCase(TrafficSiteName(site), name)) return site;
  }
  return std::nullopt;
}

std::string TrafficSiteVocabulary(char separator) {
  std::string out;
  for (int i = 0; i < static_cast<int>(TrafficSite::kNumSites); ++i) {
    if (!out.empty()) out += separator;
    out += ToLower(TrafficSiteName(static_cast<TrafficSite>(i)));
  }
  return out;
}

std::string EntityUrl(TrafficSite site, uint32_t entity_index,
                      uint32_t variant) {
  std::string url;
  EntityUrlInto(site, entity_index, variant, &url);
  return url;
}

void EntityUrlInto(TrafficSite site, uint32_t entity_index, uint32_t variant,
                   std::string* out) {
  out->clear();
  switch (site) {
    case TrafficSite::kAmazon:
      out->append(variant % 2 == 0
                      ? "http://www.amazon.com/gp/product/B"
                      : "http://www.amazon.com/some-product-title/dp/B");
      AppendZeroPadded(out, entity_index, 9);
      return;
    case TrafficSite::kYelp:
      out->append("http://www.yelp.com/biz/biz-");
      AppendZeroPadded(out, entity_index, 6);
      return;
    case TrafficSite::kImdb:
      out->append("http://www.imdb.com/title/tt");
      AppendZeroPadded(out, entity_index, 7);
      out->push_back('/');
      return;
    case TrafficSite::kNumSites:
      break;
  }
}

std::optional<EntityUrlKey> ParseEntityUrl(std::string_view url) {
  UrlView parsed;
  if (!ParseUrlView(url, &parsed)) return std::nullopt;
  const std::string_view host = NormalizeHostView(parsed.host);
  const std::string_view path = parsed.path;

  if (EqualsIgnoreCase(host, "amazon.com")) {
    // amazon.com/gp/product/[ID] or amazon.com/*/dp/[ID].
    std::string_view key = SegmentAfter(path, "/gp/product/");
    if (key.empty()) key = SegmentAfter(path, "/dp/");
    if (key.empty()) return std::nullopt;
    auto idx = ParseAsin(key);
    if (!idx) return std::nullopt;
    return EntityUrlKey{TrafficSite::kAmazon, *idx};
  }
  if (EqualsIgnoreCase(host, "yelp.com")) {
    const std::string_view key = SegmentAfter(path, "/biz/");
    if (key.empty()) return std::nullopt;
    auto idx = ParseIndexAfter(key, "biz-");
    if (!idx) return std::nullopt;
    return EntityUrlKey{TrafficSite::kYelp, *idx};
  }
  if (EqualsIgnoreCase(host, "imdb.com")) {
    const std::string_view key = SegmentAfter(path, "/title/");
    if (key.empty()) return std::nullopt;
    auto idx = ParseIndexAfter(key, "tt");
    if (!idx) return std::nullopt;
    return EntityUrlKey{TrafficSite::kImdb, *idx};
  }
  return std::nullopt;
}

}  // namespace wsd
