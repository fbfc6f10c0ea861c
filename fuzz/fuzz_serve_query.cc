// Fuzzes wsdd's query surface: the request target chooses the analysis,
// so every target must be answered with a status from the documented set
// (200, 400, 404, 405, 503) and never abort the process. Each input is a
// request target; any lines after the first are request headers (an
// Accept header selects the TSV rendering). The input is parsed as a GET
// request and routed through HandleRequest on one small ServeContext kept
// across inputs, like a running server.
//
// The work per input is bounded by the context (50 entities at scale
// 0.05) and by skipping any input whose scale is valid and above 0.05:
// scale multiplies the web, and at 50 entities libraries/homepage at
// scale 64 builds a web of 1,280,001 hosts.

#include <cstdint>
#include <string>
#include <string_view>

#include "serve/endpoints.h"
#include "serve/http.h"
#include "serve/scan_cache.h"
#include "util/string_util.h"

#include "fuzz_driver.h"

namespace {

wsd::ServeContext& Context() {
  static wsd::ServeContext* ctx = [] {
    wsd::StudyOptions base;
    base.num_entities = 50;
    base.scale = 0.05;
    base.threads = 1;
    base.seed = 7;
    auto* context = new wsd::ServeContext;
    context->base = base;
    context->cache = new wsd::ScanHandleCache(base, 8u * 1024 * 1024);
    context->responses.set_max_bytes(1u * 1024 * 1024);
    return context;
  }();
  return *ctx;
}

bool ValidStatus(int status) {
  return status == 200 || status == 400 || status == 404 || status == 405 ||
         status == 503;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view input(reinterpret_cast<const char*>(data), size);
  const size_t line_end = input.find('\n');
  std::string bytes = "GET ";
  bytes += input.substr(0, line_end);
  bytes += " HTTP/1.1\r\n";
  if (line_end != std::string_view::npos) {
    bytes += input.substr(line_end + 1);
    bytes += "\r\n";
  }
  bytes += "\r\n";
  const wsd::HttpParseResult parsed =
      wsd::ParseHttpRequest(bytes, wsd::HttpLimits{});
  // A target the parser refuses is fuzz_http_request's concern.
  if (parsed.state != wsd::HttpParseState::kOk) return 0;
  const wsd::HttpRequest& req = parsed.request;
  if (const auto scale = req.QueryParam("scale")) {
    const auto value = wsd::ParseDouble(*scale);
    if (value.has_value() && *value > 0.05 && *value <= 64) return 0;
  }

  wsd::ServeContext& ctx = Context();
  wsd::HttpResponse first;
  wsd::HandleRequest(ctx, req, &first);
  WSD_FUZZ_ASSERT(ValidStatus(first.status));
  WSD_FUZZ_ASSERT(!first.body.empty());
  // Every answer is deterministic in the request, so asking again (now a
  // response-cache hit for a 200) gives the same status and bytes.
  wsd::HttpResponse again;
  wsd::HandleRequest(ctx, req, &again);
  WSD_FUZZ_ASSERT(again.status == first.status);
  if (req.path != "/metrics") WSD_FUZZ_ASSERT(again.body == first.body);
  return 0;
}
