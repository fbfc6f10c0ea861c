#include "entity/url.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "util/string_util.h"

namespace wsd {

namespace {

// What a byte means inside the authority.
enum AuthorityByte : uint8_t { kPlain, kAuthorityEnd, kAt, kColon };

constexpr std::array<AuthorityByte, 256> MakeAuthorityBytes() {
  std::array<AuthorityByte, 256> bytes{};
  bytes['/'] = bytes['?'] = bytes['#'] = kAuthorityEnd;
  bytes['@'] = kAt;
  bytes[':'] = kColon;
  return bytes;
}

constexpr std::array<AuthorityByte, 256> kAuthorityBytes =
    MakeAuthorityBytes();

// The first `ch` in [first, last), or `last` when there is none.
const char* Find(const char* first, const char* last, char ch) {
  const void* hit = std::memchr(first, ch, static_cast<size_t>(last - first));
  return hit == nullptr ? last : static_cast<const char*>(hit);
}

// Replaces *out with the lower-cased `host` followed by `path`, sizing it
// once.
void AssignLowerHostAndPath(std::string_view host, std::string_view path,
                            std::string* out) {
  out->resize(host.size() + path.size());
  char* o = std::transform(host.begin(), host.end(), out->data(), ToLowerChar);
  std::copy(path.begin(), path.end(), o);
}

}  // namespace

std::string Url::ToString() const {
  std::string out = scheme + "://" + host;
  if (port >= 0) {
    out += ':';
    out += std::to_string(port);
  }
  out += path.empty() ? "/" : path;
  if (!query.empty()) {
    out += '?';
    out += query;
  }
  return out;
}

bool ParseUrlView(std::string_view raw, UrlView* out) {
  const char* p = raw.data();
  const char* end = p + raw.size();
  while (p < end && IsSpace(*p)) ++p;
  while (end > p && IsSpace(end[-1])) --end;

  // Scheme: "http://" or "https://", any case.
  if (end - p < 7 || ToLowerChar(p[0]) != 'h' || ToLowerChar(p[1]) != 't' ||
      ToLowerChar(p[2]) != 't' || ToLowerChar(p[3]) != 'p') {
    return false;
  }
  const size_t scheme_len = ToLowerChar(p[4]) == 's' ? 5 : 4;
  if (end - p < static_cast<ptrdiff_t>(scheme_len + 3) ||
      p[scheme_len] != ':' || p[scheme_len + 1] != '/' ||
      p[scheme_len + 2] != '/') {
    return false;
  }
  out->scheme = std::string_view(p, scheme_len);

  // Authority: up to the first '/', '?' or '#', noting the last '@'
  // (userinfo ends there) and the last ':' (a port may follow it). One
  // table lookup per byte; most bytes are kPlain.
  const char* authority = p + scheme_len + 3;
  const char* at = nullptr;
  const char* colon = nullptr;
  const char* c = authority;
  for (; c < end; ++c) {
    const AuthorityByte kind = kAuthorityBytes[static_cast<unsigned char>(*c)];
    if (kind == kPlain) continue;
    if (kind == kAuthorityEnd) break;
    if (kind == kAt) {
      at = c;
    } else {
      colon = c;
    }
  }
  const char* host = at == nullptr ? authority : at + 1;
  const char* host_end = c;
  out->port = -1;
  if (colon != nullptr && colon >= host) {
    const auto port = ParseUint64(
        std::string_view(colon + 1, static_cast<size_t>(c - colon - 1)));
    if (!port.has_value() || *port > 65535) return false;
    out->port = static_cast<int>(*port);
    host_end = colon;
  }
  if (host == host_end) return false;
  out->host = std::string_view(host, static_cast<size_t>(host_end - host));

  // Path up to '?' or '#', then the query up to '#': memchr finds the
  // fragment, then the '?' before it.
  out->path = std::string_view();
  out->query = std::string_view();
  if (c < end && *c != '#') {
    const char* fragment = Find(c, end, '#');
    const char* question = Find(c, fragment, '?');
    out->path = std::string_view(c, static_cast<size_t>(question - c));
    if (question < fragment) {
      out->query = std::string_view(
          question + 1, static_cast<size_t>(fragment - question - 1));
    }
  }
  return true;
}

std::string_view NormalizeHostView(std::string_view host) {
  const char* b = host.data();
  const char* e = b + host.size();
  while (b < e && IsSpace(*b)) ++b;
  while (e > b && IsSpace(e[-1])) --e;
  if (e - b > 4 && ToLowerChar(b[0]) == 'w' && ToLowerChar(b[1]) == 'w' &&
      ToLowerChar(b[2]) == 'w' && b[3] == '.') {
    b += 4;
  }
  if (e > b && e[-1] == '.') --e;
  return std::string_view(b, static_cast<size_t>(e - b));
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
  AssignLowerHostAndPath(NormalizeHostView(host), {}, &out);
  return out;
}

std::string CanonicalizeHomepage(std::string_view raw_url) {
  std::string out;
  CanonicalizeHomepageInto(raw_url, &out);
  return out;
}

bool CanonicalizeHomepageInto(std::string_view raw_url, std::string* out) {
  UrlView view;
  if (!ParseUrlView(raw_url, &view)) {
    out->clear();
    return false;
  }
  // A non-empty path starts with '/', so dropping every trailing slash
  // leaves a path that is empty exactly when it was only slashes.
  std::string_view path = view.path;
  while (!path.empty() && path.back() == '/') path.remove_suffix(1);
  AssignLowerHostAndPath(NormalizeHostView(view.host), path, out);
  return true;
}

bool ParseHostInto(std::string_view raw_url, std::string* out) {
  UrlView view;
  if (!ParseUrlView(raw_url, &view)) {
    out->clear();
    return false;
  }
  AssignLowerHostAndPath(NormalizeHostView(view.host), {}, out);
  return true;
}

}  // namespace wsd
