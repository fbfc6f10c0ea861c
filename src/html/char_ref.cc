#include "html/char_ref.h"

#include <array>
#include <cstdint>
#include <cstring>

#include "util/string_util.h"

namespace wsd {
namespace html {

namespace {

struct NamedRef {
  std::string_view name;  // without & and ;
  std::string_view utf8;
};

constexpr std::array<NamedRef, 13> kNamedRefs = {{
    {"amp", "&"},
    {"lt", "<"},
    {"gt", ">"},
    {"quot", "\""},
    {"apos", "'"},
    {"nbsp", "\xc2\xa0"},
    {"copy", "\xc2\xa9"},
    {"reg", "\xc2\xae"},
    {"mdash", "\xe2\x80\x94"},
    {"ndash", "\xe2\x80\x93"},
    {"hellip", "\xe2\x80\xa6"},
    {"middot", "\xc2\xb7"},
    {"bull", "\xe2\x80\xa2"},
}};

// The character references EscapeHtml writes, and per byte the index of
// its reference (0, the empty one, for bytes written as is).
constexpr std::string_view kEscapeRefs[] = {"",     "&amp;",  "&lt;",
                                            "&gt;", "&quot;", "&#39;"};
constexpr std::array<uint8_t, 256> kEscapeIndex = [] {
  std::array<uint8_t, 256> index{};
  index['&'] = 1;
  index['<'] = 2;
  index['>'] = 3;
  index['"'] = 4;
  index['\''] = 5;
  return index;
}();

std::string_view EscapeFor(char c) {
  return kEscapeRefs[kEscapeIndex[static_cast<unsigned char>(c)]];
}

// Appends the UTF-8 encoding of `cp` to `out`. Invalid code points are
// replaced with U+FFFD.
void AppendUtf8(uint32_t cp, std::string& out) {
  if (cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF)) cp = 0xFFFD;
  if (cp < 0x80) {
    out.push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

// Decodes one reference body (the text between '&' and ';'). On success
// appends the decoded text to `out` and returns true; on failure appends
// nothing.
bool DecodeRefBody(std::string_view body, std::string& out) {
  if (body.empty()) return false;

  if (body[0] == '#') {
    uint32_t cp = 0;
    bool ok = false;
    if (body.size() >= 2 && (body[1] == 'x' || body[1] == 'X')) {
      for (size_t j = 2; j < body.size(); ++j) {
        const char c = body[j];
        uint32_t d;
        if (IsDigit(c)) {
          d = static_cast<uint32_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
          d = static_cast<uint32_t>(c - 'a' + 10);
        } else if (c >= 'A' && c <= 'F') {
          d = static_cast<uint32_t>(c - 'A' + 10);
        } else {
          return false;
        }
        cp = cp * 16 + d;
        ok = true;
      }
    } else {
      for (size_t j = 1; j < body.size(); ++j) {
        if (!IsDigit(body[j])) return false;
        cp = cp * 10 + static_cast<uint32_t>(body[j] - '0');
        ok = true;
      }
    }
    if (!ok) return false;
    AppendUtf8(cp, out);
    return true;
  }

  for (const NamedRef& ref : kNamedRefs) {
    if (body == ref.name) {
      out.append(ref.utf8);
      return true;
    }
  }
  return false;
}

// Tries to decode one reference starting at s[i] (which is '&'). On
// success appends the decoded text and returns the index one past the
// reference; on failure returns i (caller copies the '&').
size_t TryDecodeRef(std::string_view s, size_t i, std::string& out) {
  const size_t semi = s.find(';', i + 1);
  // References in the wild are short; cap the search so a lone '&' in a
  // long text run costs O(1).
  if (semi == std::string_view::npos || semi - i > 10) return i;
  std::string_view body = s.substr(i + 1, semi - i - 1);
  if (!DecodeRefBody(body, out)) return i;
  return semi + 1;
}

}  // namespace

std::string DecodeCharRefs(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  DecodeCharRefsInto(s, &out);
  return out;
}

void DecodeCharRefsInto(std::string_view s, std::string* out) {
  // Hot path of visible-text extraction: jump between '&'s and append
  // the (usually ref-free) runs in bulk instead of per character.
  size_t i = 0;
  while (i < s.size()) {
    const size_t amp = s.find('&', i);
    if (amp == std::string_view::npos) {
      out->append(s.substr(i));
      return;
    }
    out->append(s.substr(i, amp - i));
    const size_t next = TryDecodeRef(s, amp, *out);
    if (next != amp) {
      i = next;
    } else {
      out->push_back('&');
      i = amp + 1;
    }
  }
}

// WSD_FROZEN_BEGIN(char_ref_legacy)
std::string DecodeCharRefsLegacy(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  size_t i = 0;
  while (i < s.size()) {
    if (s[i] == '&') {
      const size_t next = TryDecodeRef(s, i, out);
      if (next != i) {
        i = next;
        continue;
      }
    }
    out.push_back(s[i]);
    ++i;
  }
  return out;
}
// WSD_FROZEN_END(char_ref_legacy)

std::string EscapeHtml(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  EscapeHtmlInto(s, &out);
  return out;
}

void EscapeHtmlInto(std::string_view s, std::string* out) {
  // Append the runs between special bytes in bulk.
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const std::string_view ref = EscapeFor(s[i]);
    if (ref.empty()) continue;
    out->append(s.data() + run, i - run);
    out->append(ref);
    run = i + 1;
  }
  out->append(s.data() + run, s.size() - run);
}

void EscapeHtmlInPlace(std::string* s, size_t pos) {
  size_t grow = 0;
  for (size_t i = pos; i < s->size(); ++i) {
    const std::string_view ref = EscapeFor((*s)[i]);
    if (!ref.empty()) grow += ref.size() - 1;
  }
  if (grow == 0) return;
  // Expand back to front, so every byte is read before it is overwritten.
  size_t r = s->size();
  size_t w = r + grow;
  s->resize(w);
  char* d = s->data();
  while (r > pos) {
    const char c = d[--r];
    const std::string_view ref = EscapeFor(c);
    if (ref.empty()) {
      d[--w] = c;
    } else {
      w -= ref.size();
      std::memcpy(d + w, ref.data(), ref.size());
    }
  }
}

}  // namespace html
}  // namespace wsd
