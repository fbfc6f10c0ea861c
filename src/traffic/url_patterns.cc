#include "traffic/url_patterns.h"

#include <algorithm>
#include <cstring>

#include "entity/url.h"
#include "util/string_util.h"

namespace wsd {

namespace {

// The helpers below take their literal as an array, so each call site
// compares against a compile-time length and inlines the comparison.

// True when `s`, lower-cased, is `lower`.
template <size_t N>
bool EqualsLowered(std::string_view s, const char (&lower)[N]) {
  if (s.size() != N - 1) return false;
  for (size_t i = 0; i + 1 < N; ++i) {
    if (ToLowerChar(s[i]) != lower[i]) return false;
  }
  return true;
}

// True when `s` starts with `prefix`.
template <size_t N>
bool HasPrefix(std::string_view s, const char (&prefix)[N]) {
  return s.size() >= N - 1 && std::memcmp(s.data(), prefix, N - 1) == 0;
}

// The entity index after `tag` in `key`: decimal digits (leading zeros
// allowed) worth at most UINT32_MAX. The scan stops at the first digit
// past that bound, so it never overflows and needs no division.
template <size_t N>
std::optional<uint32_t> ParseIndexAfter(std::string_view key,
                                        const char (&tag)[N]) {
  if (key.size() < N || !HasPrefix(key, tag)) return std::nullopt;
  uint64_t index = 0;
  for (char c : key.substr(N - 1)) {
    if (!IsDigit(c)) return std::nullopt;
    index = index * 10 + static_cast<uint64_t>(c - '0');
    if (index > UINT32_MAX) return std::nullopt;
  }
  return static_cast<uint32_t>(index);
}

// The bytes of `path` from `offset` up to the next '/'.
std::string_view SegmentFrom(std::string_view path, size_t offset) {
  const char* const first = path.data() + offset;
  const char* const last = path.data() + path.size();
  return std::string_view(
      first, static_cast<size_t>(std::find(first, last, '/') - first));
}

// First path segment after the first `prefix` in `path`, stopping at '/'.
// Entity URLs carry the prefix at offset 0, so that is tried before the
// search.
template <size_t N>
std::string_view SegmentAfter(std::string_view path,
                              const char (&prefix)[N]) {
  size_t pos = 0;
  if (!HasPrefix(path, prefix)) {
    pos = path.find(prefix, 0, N - 1);
    if (pos == std::string_view::npos) return {};
  }
  return SegmentFrom(path, pos + (N - 1));
}

constexpr char kGpProduct[] = "/gp/product/";
constexpr char kDp[] = "/dp/";

// Amazon's key: the segment after the first "/gp/product/" when it is
// non-empty, otherwise the segment after the first "/dp/". Both prefixes
// open with '/', so the walk over the path's '/' bytes stops at the first
// that opens either, and the search for the other resumes from there
// instead of starting over.
std::string_view AmazonKey(std::string_view path) {
  for (size_t i = 0; i < path.size(); i = path.find('/', i + 1)) {
    const std::string_view rest = path.substr(i);
    if (HasPrefix(rest, kGpProduct)) {
      const std::string_view key = SegmentFrom(rest, sizeof(kGpProduct) - 1);
      // An empty key means rest[12] is '/' or the end, so no "/dp/" opens
      // inside the prefix.
      return key.empty()
                 ? SegmentAfter(rest.substr(sizeof(kGpProduct) - 1), kDp)
                 : key;
    }
    if (HasPrefix(rest, kDp)) {
      // "/gp/product/" may open at the prefix's closing '/'.
      const std::string_view key =
          SegmentAfter(rest.substr(sizeof(kDp) - 2), kGpProduct);
      return key.empty() ? SegmentFrom(rest, sizeof(kDp) - 1) : key;
    }
  }
  return {};
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

  // The three hosts differ in length, or at length 8 in their first
  // byte, so a click is compared against one host at most.
  std::optional<uint32_t> index;
  TrafficSite site = TrafficSite::kAmazon;
  if (host.size() == 10) {
    if (!EqualsLowered(host, "amazon.com")) return std::nullopt;
    // amazon.com/gp/product/[ID] or amazon.com/*/dp/[ID]. The ids are our
    // "B%09u" ASINs: real ones are opaque, and only synthetic ids need to
    // round-trip.
    const std::string_view key = AmazonKey(path);
    if (key.size() == 10) index = ParseIndexAfter(key, "B");
  } else if (host.size() == 8 && ToLowerChar(host[0]) == 'y') {
    if (!EqualsLowered(host, "yelp.com")) return std::nullopt;
    site = TrafficSite::kYelp;
    index = ParseIndexAfter(SegmentAfter(path, "/biz/"), "biz-");
  } else if (host.size() == 8) {
    if (!EqualsLowered(host, "imdb.com")) return std::nullopt;
    site = TrafficSite::kImdb;
    index = ParseIndexAfter(SegmentAfter(path, "/title/"), "tt");
  }
  if (!index.has_value()) return std::nullopt;
  return EntityUrlKey{site, *index};
}

}  // namespace wsd
