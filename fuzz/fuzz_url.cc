// Differential fuzzing of the URL parser. The reference below is the
// multi-scan ParseUrlView (Trim, find("://"), find('#'),
// find_first_of("/?"), two rfinds) and the allocating ParseEntityUrl that
// the one-pass, allocation-free versions in entity/url.cc and
// traffic/url_patterns.cc replaced, kept verbatim. For every input the
// library must make the same accept/reject decision and return the very
// same views (same bytes of the input), and ParseUrl, NormalizeHost,
// CanonicalizeHomepageInto, ParseHostInto and ParseEntityUrl must agree
// with the reference built on the old parser.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "entity/url.h"
#include "traffic/url_patterns.h"
#include "util/string_util.h"

#include "fuzz_driver.h"

namespace reference {

using wsd::EntityUrlKey;
using wsd::EqualsIgnoreCase;
using wsd::ParseUint64;
using wsd::StartsWith;
using wsd::ToLower;
using wsd::ToLowerChar;
using wsd::TrafficSite;
using wsd::Trim;
using wsd::Url;

// All parts of a parsed URL as views into the (trimmed) input: the
// single allocation-free parser behind ParseUrl, CanonicalizeHomepageInto
// and ParseHostInto. `scheme` and `host` are raw (not lower-cased);
// `path` and `query` may be empty (ParseUrl defaults path to "/").
struct UrlView {
  std::string_view scheme;
  std::string_view host;
  std::string_view path;
  std::string_view query;
  int port = -1;
};

bool ParseUrlView(std::string_view raw, UrlView* out) {
  raw = Trim(raw);
  const size_t scheme_end = raw.find("://");
  if (scheme_end == std::string_view::npos || scheme_end == 0) return false;
  out->scheme = raw.substr(0, scheme_end);
  if (!EqualsIgnoreCase(out->scheme, "http") &&
      !EqualsIgnoreCase(out->scheme, "https")) {
    return false;
  }

  std::string_view rest = raw.substr(scheme_end + 3);
  // Drop the fragment first: it may contain '/' or '?'.
  const size_t frag = rest.find('#');
  if (frag != std::string_view::npos) rest = rest.substr(0, frag);

  const size_t path_start = rest.find_first_of("/?");
  std::string_view authority =
      path_start == std::string_view::npos ? rest : rest.substr(0, path_start);
  if (authority.empty()) return false;

  // Strip userinfo if present (rare; synthetic corpus never emits it).
  const size_t at = authority.rfind('@');
  if (at != std::string_view::npos) authority = authority.substr(at + 1);

  out->port = -1;
  const size_t colon = authority.rfind(':');
  if (colon != std::string_view::npos) {
    auto port = ParseUint64(authority.substr(colon + 1));
    if (!port.has_value() || *port > 65535) return false;
    out->port = static_cast<int>(*port);
    authority = authority.substr(0, colon);
  }
  if (authority.empty()) return false;
  out->host = authority;

  out->path = std::string_view();
  out->query = std::string_view();
  if (path_start != std::string_view::npos) {
    std::string_view tail = rest.substr(path_start);
    const size_t q = tail.find('?');
    if (q == std::string_view::npos) {
      out->path = tail;
    } else {
      out->path = tail.substr(0, q);
      out->query = tail.substr(q + 1);
    }
  }
  return true;
}

std::string_view NormalizeHostView(std::string_view host) {
  std::string_view h = Trim(host);
  if (h.size() > 4 && EqualsIgnoreCase(h.substr(0, 4), "www.")) {
    h = h.substr(4);
  }
  if (!h.empty() && h.back() == '.') h.remove_suffix(1);
  return h;
}

void AppendLower(std::string_view s, std::string* out) {
  for (char c : s) out->push_back(ToLowerChar(c));
}

std::optional<Url> ParseUrl(std::string_view raw) {
  UrlView view;
  if (!ParseUrlView(raw, &view)) return std::nullopt;
  Url url;
  url.scheme = ToLower(view.scheme);
  url.host = ToLower(view.host);
  url.port = view.port;
  url.path = view.path.empty() ? "/" : std::string(view.path);
  url.query = std::string(view.query);
  return url;
}

std::string NormalizeHost(std::string_view host) {
  std::string out;
  AppendLower(NormalizeHostView(host), &out);
  return out;
}

bool CanonicalizeHomepageInto(std::string_view raw_url, std::string* out) {
  out->clear();
  UrlView view;
  if (!ParseUrlView(raw_url, &view)) return false;
  std::string_view path = view.path.empty() ? "/" : view.path;
  while (path.size() > 1 && path.back() == '/') path.remove_suffix(1);
  if (path == "/") path = std::string_view();
  AppendLower(NormalizeHostView(view.host), out);
  out->append(path);
  return true;
}

bool ParseHostInto(std::string_view raw_url, std::string* out) {
  out->clear();
  UrlView view;
  if (!ParseUrlView(raw_url, &view)) return false;
  AppendLower(NormalizeHostView(view.host), out);
  return true;
}

std::optional<uint32_t> ParseAsin(std::string_view key) {
  if (key.size() != 10 || key[0] != 'B') return std::nullopt;
  auto idx = ParseUint64(key.substr(1));
  if (!idx || *idx > UINT32_MAX) return std::nullopt;
  return static_cast<uint32_t>(*idx);
}

std::optional<uint32_t> ParseYelpSlug(std::string_view key) {
  if (!StartsWith(key, "biz-")) return std::nullopt;
  auto idx = ParseUint64(key.substr(4));
  if (!idx || *idx > UINT32_MAX) return std::nullopt;
  return static_cast<uint32_t>(*idx);
}

std::optional<uint32_t> ParseImdbTitle(std::string_view key) {
  if (!StartsWith(key, "tt")) return std::nullopt;
  auto idx = ParseUint64(key.substr(2));
  if (!idx || *idx > UINT32_MAX) return std::nullopt;
  return static_cast<uint32_t>(*idx);
}

std::string_view SegmentAfter(std::string_view path, std::string_view prefix) {
  const size_t pos = path.find(prefix);
  if (pos == std::string_view::npos) return {};
  std::string_view rest = path.substr(pos + prefix.size());
  const size_t slash = rest.find('/');
  return slash == std::string_view::npos ? rest : rest.substr(0, slash);
}

std::optional<EntityUrlKey> ParseEntityUrl(std::string_view url) {
  auto parsed = ParseUrl(url);
  if (!parsed.has_value()) return std::nullopt;
  const std::string host = NormalizeHost(parsed->host);
  const std::string& path = parsed->path;

  if (host == "amazon.com") {
    // amazon.com/gp/product/[ID] or amazon.com/*/dp/[ID].
    std::string_view key = SegmentAfter(path, "/gp/product/");
    if (key.empty()) key = SegmentAfter(path, "/dp/");
    if (key.empty()) return std::nullopt;
    auto idx = ParseAsin(key);
    if (!idx) return std::nullopt;
    return EntityUrlKey{TrafficSite::kAmazon, *idx};
  }
  if (host == "yelp.com") {
    const std::string_view key = SegmentAfter(path, "/biz/");
    if (key.empty()) return std::nullopt;
    auto idx = ParseYelpSlug(key);
    if (!idx) return std::nullopt;
    return EntityUrlKey{TrafficSite::kYelp, *idx};
  }
  if (host == "imdb.com") {
    const std::string_view key = SegmentAfter(path, "/title/");
    if (key.empty()) return std::nullopt;
    auto idx = ParseImdbTitle(key);
    if (!idx) return std::nullopt;
    return EntityUrlKey{TrafficSite::kImdb, *idx};
  }
  return std::nullopt;
}

}  // namespace reference

namespace {

// The same view: the same bytes of the input, not just equal contents.
bool SameView(std::string_view a, std::string_view b) {
  return a.data() == b.data() && a.size() == b.size();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view raw(reinterpret_cast<const char*>(data), size);

  wsd::UrlView got;
  reference::UrlView want;
  const bool ok = wsd::ParseUrlView(raw, &got);
  WSD_FUZZ_ASSERT(ok == reference::ParseUrlView(raw, &want));
  if (ok) {
    WSD_FUZZ_ASSERT(SameView(got.scheme, want.scheme));
    WSD_FUZZ_ASSERT(SameView(got.host, want.host));
    WSD_FUZZ_ASSERT(got.port == want.port);
    WSD_FUZZ_ASSERT(SameView(got.path, want.path));
    WSD_FUZZ_ASSERT(SameView(got.query, want.query));
    WSD_FUZZ_ASSERT(
        SameView(wsd::NormalizeHostView(got.host),
                 reference::NormalizeHostView(want.host)));
  }

  const auto url = wsd::ParseUrl(raw);
  const auto ref_url = reference::ParseUrl(raw);
  WSD_FUZZ_ASSERT(url.has_value() == ref_url.has_value());
  if (url.has_value()) {
    WSD_FUZZ_ASSERT(url->scheme == ref_url->scheme);
    WSD_FUZZ_ASSERT(url->host == ref_url->host);
    WSD_FUZZ_ASSERT(url->port == ref_url->port);
    WSD_FUZZ_ASSERT(url->path == ref_url->path);
    WSD_FUZZ_ASSERT(url->query == ref_url->query);
  }
  WSD_FUZZ_ASSERT(wsd::NormalizeHost(raw) == reference::NormalizeHost(raw));

  const auto key = wsd::ParseEntityUrl(raw);
  const auto ref_key = reference::ParseEntityUrl(raw);
  WSD_FUZZ_ASSERT(key.has_value() == ref_key.has_value());
  if (key.has_value()) {
    WSD_FUZZ_ASSERT(key->site == ref_key->site);
    WSD_FUZZ_ASSERT(key->entity_index == ref_key->entity_index);
  }

  // Warm buffers with stale contents: the Into forms must replace them.
  std::string out = "stale";
  std::string ref_out;
  WSD_FUZZ_ASSERT(wsd::CanonicalizeHomepageInto(raw, &out) ==
                  reference::CanonicalizeHomepageInto(raw, &ref_out));
  WSD_FUZZ_ASSERT(out == ref_out);
  out = "stale";
  WSD_FUZZ_ASSERT(wsd::ParseHostInto(raw, &out) ==
                  reference::ParseHostInto(raw, &ref_out));
  WSD_FUZZ_ASSERT(out == ref_out);
  return 0;
}
