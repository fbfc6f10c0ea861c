/// \file http.h
/// A minimal, self-contained HTTP/1.1 message layer for the analysis
/// server (`wsdd`): a fail-closed request parser with hard size limits,
/// and a response serializer. No sockets here — the parser consumes a
/// byte buffer and reports whether it holds a complete request, needs
/// more data, or is malformed, so the same code is unit-testable and
/// fuzzable (fuzz/fuzz_http_request.cc) without any I/O.
///
/// Scope (deliberately small, matching what wsdd serves):
///   - request line + headers + optional Content-Length body
///   - percent-decoded paths and query parameters
///   - HTTP/1.0 and HTTP/1.1 keep-alive semantics
/// Out of scope (rejected fail-closed, never buffered unbounded):
/// chunked transfer encoding, header obs-folds, and anything over the
/// configured size limits.

#ifndef WSD_SERVE_HTTP_H_
#define WSD_SERVE_HTTP_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wsd {

/// Hard request limits. Anything beyond them is answered 413 and the
/// connection closed — the parser never buffers unbounded input.
struct HttpLimits {
  /// Request line + header block, including the blank-line terminator.
  size_t max_header_bytes = 16 * 1024;
  /// Declared (Content-Length) body size.
  size_t max_body_bytes = 64 * 1024;
  /// Number of header fields.
  size_t max_headers = 64;
};

/// One parsed request. Header names are lowercased at parse time; the
/// path and query parameters are percent-decoded ('+' in a query value
/// decodes to space, as browsers send it).
struct HttpRequest {
  std::string method;        // e.g. "GET" (verbatim case)
  std::string target;        // raw request target, undecoded
  std::string path;          // decoded path, query stripped
  std::vector<std::pair<std::string, std::string>> query;
  int version_major = 1;
  int version_minor = 1;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  /// Connection semantics after this request: HTTP/1.1 defaults to
  /// keep-alive unless "Connection: close"; HTTP/1.0 defaults to close
  /// unless "Connection: keep-alive".
  bool keep_alive = true;

  /// First header named `name` (case-insensitive), or nullopt.
  std::optional<std::string_view> Header(std::string_view name) const;
  /// First query parameter named `name` (case-sensitive), or nullopt.
  std::optional<std::string_view> QueryParam(std::string_view name) const;
};

/// Outcome of one parse attempt over a receive buffer.
enum class HttpParseState {
  kOk,        // `request` is complete; `consumed` bytes were used
  kNeedMore,  // buffer holds a valid prefix; read more and retry
  kError,     // malformed or over limits; answer `error_code` and close
};

struct HttpParseResult {
  HttpParseState state = HttpParseState::kNeedMore;
  HttpRequest request;   // valid only when state == kOk
  size_t consumed = 0;   // valid only when state == kOk
  int error_code = 0;    // 400 or 413 when state == kError
  std::string error;     // human-readable detail for logs
};

/// Parses one request from the front of `buffer`. Stateless and
/// restartable: callers append received bytes and retry on kNeedMore.
/// Pipelined requests are supported — on kOk only `consumed` bytes are
/// used and the caller skips them before the next parse. Fail-closed:
/// a header block that exceeds limits reports 413 even before the
/// terminator arrives, so a hostile peer cannot grow the buffer
/// unboundedly.
HttpParseResult ParseHttpRequest(std::string_view buffer,
                                 const HttpLimits& limits);

/// One response. `Serialize` renders the status line, standard headers
/// (Content-Type, Content-Length, Connection) and the body.
struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  bool close = false;  // emit "Connection: close"
  /// Extra headers appended verbatim (e.g. {"Allow", "GET"}).
  std::vector<std::pair<std::string, std::string>> extra_headers;
};

/// Canonical reason phrase for the status codes wsdd emits; "Unknown"
/// for anything else.
std::string_view HttpStatusReason(int code);

/// Renders `resp` as wire bytes (headers + CRLF + body).
std::string SerializeHttpResponse(const HttpResponse& resp);

/// Percent-decodes `s` ('%XX' to the byte; '+' to space when
/// `plus_as_space`). Invalid escapes are passed through verbatim rather
/// than rejected — query parsing should not 400 a request over a stray
/// '%'.
std::string PercentDecode(std::string_view s, bool plus_as_space);

}  // namespace wsd

#endif  // WSD_SERVE_HTTP_H_
