#include "entity/url.h"

#include <array>
#include <cstddef>

#include "util/string_util.h"

namespace wsd {

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
  // (userinfo ends there) and the last ':' (a port may follow it).
  const char* authority = p + scheme_len + 3;
  const char* at = nullptr;
  const char* colon = nullptr;
  const char* c = authority;
  for (; c < end; ++c) {
    const char ch = *c;
    if (ch == '/' || ch == '?' || ch == '#') break;
    if (ch == '@') {
      at = c;
    } else if (ch == ':') {
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

  // Path up to '?' or '#', then the query up to '#'.
  out->path = std::string_view();
  out->query = std::string_view();
  if (c < end && *c != '#') {
    const char* path = c;
    while (c < end && *c != '?' && *c != '#') ++c;
    out->path = std::string_view(path, static_cast<size_t>(c - path));
    if (c < end && *c == '?') {
      const char* query = ++c;
      while (c < end && *c != '#') ++c;
      out->query = std::string_view(query, static_cast<size_t>(c - query));
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

namespace {

void AppendLower(std::string_view s, std::string* out) {
  for (char c : s) out->push_back(ToLowerChar(c));
}

}  // namespace

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

std::string CanonicalizeHomepage(std::string_view raw_url) {
  std::string out;
  CanonicalizeHomepageInto(raw_url, &out);
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

std::string RegistrableDomain(std::string_view host) {
  const std::string h = NormalizeHost(host);
  static constexpr std::array<std::string_view, 6> kTwoLevelSuffixes = {
      "co.uk", "org.uk", "com.au", "co.jp", "com.br", "co.in"};
  const auto labels = Split(h, '.');
  if (labels.size() <= 2) return h;
  const std::string last_two =
      std::string(labels[labels.size() - 2]) + "." +
      std::string(labels[labels.size() - 1]);
  for (std::string_view suffix : kTwoLevelSuffixes) {
    if (last_two == suffix) {
      return std::string(labels[labels.size() - 3]) + "." + last_two;
    }
  }
  return last_two;
}

}  // namespace wsd
