// Tests for the serve layer: the fail-closed HTTP parser, routing and
// content negotiation, the ScanHandle cache, and a loopback integration
// test proving served responses are byte-identical to direct Study
// calls.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/connectivity.h"
#include "core/coverage.h"
#include "core/set_cover.h"
#include "core/study.h"
#include "extract/attribute_registry.h"
#include "serve/endpoints.h"
#include "serve/http.h"
#include "serve/http_client.h"
#include "serve/scan_cache.h"
#include "serve/server.h"
#include "util/metrics.h"

namespace wsd {
namespace {

HttpLimits TestLimits() {
  HttpLimits limits;
  limits.max_header_bytes = 512;
  limits.max_body_bytes = 128;
  limits.max_headers = 8;
  return limits;
}

// ---------------------------------------------------------------------
// Request parsing.

TEST(HttpParse, SimpleGet) {
  const auto r = ParseHttpRequest(
      "GET /spread?domain=books&attr=isbn&format=tsv HTTP/1.1\r\n"
      "Host: localhost\r\nAccept: application/json\r\n\r\n",
      TestLimits());
  ASSERT_EQ(r.state, HttpParseState::kOk);
  EXPECT_EQ(r.request.method, "GET");
  EXPECT_EQ(r.request.path, "/spread");
  EXPECT_EQ(r.request.QueryParam("domain").value_or(""), "books");
  EXPECT_EQ(r.request.QueryParam("attr").value_or(""), "isbn");
  EXPECT_EQ(r.request.QueryParam("format").value_or(""), "tsv");
  EXPECT_EQ(r.request.Header("host").value_or(""), "localhost");
  EXPECT_EQ(r.request.Header("ACCEPT").value_or(""), "application/json");
  EXPECT_TRUE(r.request.keep_alive);
  EXPECT_EQ(r.consumed,
            std::string("GET /spread?domain=books&attr=isbn&format=tsv "
                        "HTTP/1.1\r\nHost: localhost\r\nAccept: "
                        "application/json\r\n\r\n")
                .size());
}

TEST(HttpParse, BareLfLineEndingsAccepted) {
  const auto r =
      ParseHttpRequest("GET /healthz HTTP/1.1\nHost: x\n\n", TestLimits());
  ASSERT_EQ(r.state, HttpParseState::kOk);
  EXPECT_EQ(r.request.path, "/healthz");
}

TEST(HttpParse, MalformedRequestLine) {
  for (const char* raw :
       {"GET /healthz\r\n\r\n",             // missing version
        "GET  /healthz HTTP/1.1\r\n\r\n",   // empty target token
        "GET /healthz HTTP/2.0\r\n\r\n",    // unsupported version
        "\r\nGET / HTTP/1.1\r\n\r\n",       // empty request line
        "GE\x01T / HTTP/1.1\r\n\r\n"}) {    // control byte
    const auto r = ParseHttpRequest(raw, TestLimits());
    EXPECT_EQ(r.state, HttpParseState::kError) << raw;
    EXPECT_EQ(r.error_code, 400) << raw;
  }
}

TEST(HttpParse, MalformedHeaders) {
  for (const char* raw :
       {"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
        "GET / HTTP/1.1\r\nX: a\r\n folded\r\n\r\n",
        "GET / HTTP/1.1\r\nBad Name: x\r\n\r\n",
        "GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        "GET / HTTP/1.1\r\nContent-Length: nan\r\n\r\n",
        "GET / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n"}) {
    const auto r = ParseHttpRequest(raw, TestLimits());
    EXPECT_EQ(r.state, HttpParseState::kError) << raw;
    EXPECT_EQ(r.error_code, 400) << raw;
  }
}

TEST(HttpParse, ContentLengthMustBePlainDigits) {
  // RFC 9110 §8.6: Content-Length is 1*DIGIT. A sign, internal
  // whitespace, or an out-of-range value are all malformed (400) rather
  // than an honest oversized declaration (413) — and UINT64_MAX itself
  // is rejected so a parsed length can never alias an overflow sentinel.
  for (const char* raw :
       {"GET / HTTP/1.1\r\nContent-Length: +5\r\n\r\n",
        "GET / HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        "GET / HTTP/1.1\r\nContent-Length: 5 5\r\n\r\n",
        "GET / HTTP/1.1\r\nContent-Length: 1\t2\r\n\r\n",
        "GET / HTTP/1.1\r\nContent-Length: 18446744073709551615\r\n\r\n",
        "GET / HTTP/1.1\r\nContent-Length: 18446744073709551616\r\n\r\n",
        "GET / HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n",
        "GET / HTTP/1.1\r\nContent-Length: 0x10\r\n\r\n",
        "GET / HTTP/1.1\r\nContent-Length:\r\n\r\n"}) {
    const auto r = ParseHttpRequest(raw, TestLimits());
    EXPECT_EQ(r.state, HttpParseState::kError) << raw;
    EXPECT_EQ(r.error_code, 400) << raw;
  }
  // Plain digits still parse (surrounding optional whitespace is header
  // value trimming, not part of the number).
  const auto ok = ParseHttpRequest(
      "GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello", TestLimits());
  ASSERT_EQ(ok.state, HttpParseState::kOk);
  EXPECT_EQ(ok.request.body, "hello");
  const auto zero = ParseHttpRequest(
      "GET / HTTP/1.1\r\nContent-Length: 0\r\n\r\n", TestLimits());
  ASSERT_EQ(zero.state, HttpParseState::kOk);
  EXPECT_TRUE(zero.request.body.empty());
}

TEST(HttpParse, OversizedHeaderBlockFailsClosedEarly) {
  // No terminator yet, but already past the limit: must 413 now rather
  // than buffer forever.
  std::string raw = "GET / HTTP/1.1\r\nX-Big: ";
  raw.append(TestLimits().max_header_bytes, 'a');
  const auto r = ParseHttpRequest(raw, TestLimits());
  ASSERT_EQ(r.state, HttpParseState::kError);
  EXPECT_EQ(r.error_code, 413);
}

TEST(HttpParse, TooManyHeaders) {
  std::string raw = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 9; ++i) raw += "X-H: v\r\n";
  raw += "\r\n";
  const auto r = ParseHttpRequest(raw, TestLimits());
  ASSERT_EQ(r.state, HttpParseState::kError);
  EXPECT_EQ(r.error_code, 413);
}

TEST(HttpParse, TruncatedRequestsNeedMore) {
  // Truncated header block.
  EXPECT_EQ(ParseHttpRequest("GET / HTTP/1.1\r\nHost: x\r\n", TestLimits())
                .state,
            HttpParseState::kNeedMore);
  // Complete headers, truncated body.
  EXPECT_EQ(ParseHttpRequest(
                "GET / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
                TestLimits())
                .state,
            HttpParseState::kNeedMore);
  EXPECT_EQ(ParseHttpRequest("", TestLimits()).state,
            HttpParseState::kNeedMore);
}

TEST(HttpParse, BodyWithinAndOverBudget) {
  const auto ok = ParseHttpRequest(
      "GET / HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcEXTRA", TestLimits());
  ASSERT_EQ(ok.state, HttpParseState::kOk);
  EXPECT_EQ(ok.request.body, "abc");
  EXPECT_EQ(ok.consumed,
            std::string("GET / HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc")
                .size());

  const auto big = ParseHttpRequest(
      "GET / HTTP/1.1\r\nContent-Length: 129\r\n\r\n", TestLimits());
  ASSERT_EQ(big.state, HttpParseState::kError);
  EXPECT_EQ(big.error_code, 413);
}

TEST(HttpParse, PipelinedRequestsConsumeExactly) {
  const std::string first = "GET /a HTTP/1.1\r\n\r\n";
  const std::string second = "GET /b HTTP/1.1\r\n\r\n";
  std::string buf = first + second;
  const auto r1 = ParseHttpRequest(buf, TestLimits());
  ASSERT_EQ(r1.state, HttpParseState::kOk);
  EXPECT_EQ(r1.request.path, "/a");
  ASSERT_EQ(r1.consumed, first.size());
  buf.erase(0, r1.consumed);
  const auto r2 = ParseHttpRequest(buf, TestLimits());
  ASSERT_EQ(r2.state, HttpParseState::kOk);
  EXPECT_EQ(r2.request.path, "/b");
  EXPECT_EQ(r2.consumed, second.size());
}

TEST(HttpParse, KeepAliveSemantics) {
  EXPECT_TRUE(ParseHttpRequest("GET / HTTP/1.1\r\n\r\n", TestLimits())
                  .request.keep_alive);
  EXPECT_FALSE(
      ParseHttpRequest("GET / HTTP/1.1\r\nConnection: close\r\n\r\n",
                       TestLimits())
          .request.keep_alive);
  EXPECT_FALSE(ParseHttpRequest("GET / HTTP/1.0\r\n\r\n", TestLimits())
                   .request.keep_alive);
  EXPECT_TRUE(
      ParseHttpRequest("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
                       TestLimits())
          .request.keep_alive);
}

TEST(HttpParse, PercentAndPlusDecoding) {
  const auto r = ParseHttpRequest(
      "GET /p%20ath?q=a+b%2Fc&stray=100%&empty HTTP/1.1\r\n\r\n",
      TestLimits());
  ASSERT_EQ(r.state, HttpParseState::kOk);
  EXPECT_EQ(r.request.path, "/p ath");  // %20 decoded; '+' untouched in paths
  EXPECT_EQ(PercentDecode("a+b%2Fc", /*plus_as_space=*/false), "a+b/c");
  EXPECT_EQ(r.request.QueryParam("q").value_or(""), "a b/c");
  EXPECT_EQ(r.request.QueryParam("stray").value_or(""), "100%");
  EXPECT_TRUE(r.request.QueryParam("empty").has_value());
  EXPECT_EQ(r.request.QueryParam("empty").value_or("x"), "");
}

TEST(HttpResponseSerialize, RoundTrips) {
  HttpResponse resp;
  resp.status = 405;
  resp.content_type = "application/json";
  resp.body = "{}\n";
  resp.close = true;
  resp.extra_headers.emplace_back("Allow", "GET");
  const std::string wire = SerializeHttpResponse(resp);
  EXPECT_NE(wire.find("HTTP/1.1 405 Method Not Allowed\r\n"),
            std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 3\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Allow: GET\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_TRUE(wire.size() >= 3 && wire.substr(wire.size() - 3) == "{}\n");
}

// ---------------------------------------------------------------------
// Routing and negotiation (HandleRequest, no sockets).

StudyOptions SmallOptions() {
  StudyOptions options;
  options.num_entities = 300;
  options.threads = 1;
  options.seed = 7;
  return options;
}

HttpRequest Req(const std::string& line_and_headers) {
  const auto parsed =
      ParseHttpRequest(line_and_headers + "\r\n\r\n", HttpLimits());
  EXPECT_EQ(parsed.state, HttpParseState::kOk) << line_and_headers;
  return parsed.request;
}

class RoutingTest : public ::testing::Test {
 protected:
  RoutingTest() : cache_(SmallOptions(), 64 * 1024 * 1024) {
    ctx_.base = SmallOptions();
    ctx_.cache = &cache_;
  }

  HttpResponse Handle(const std::string& line) {
    HttpResponse resp;
    HandleRequest(ctx_, Req(line), &resp);
    return resp;
  }

  ScanHandleCache cache_;
  ServeContext ctx_;
};

TEST_F(RoutingTest, HealthzAndUnknownAndMethod) {
  EXPECT_EQ(Handle("GET /healthz HTTP/1.1").status, 200);
  EXPECT_EQ(Handle("GET /nope HTTP/1.1").status, 404);
  const HttpResponse post = Handle("POST /spread HTTP/1.1");
  EXPECT_EQ(post.status, 405);
  ASSERT_EQ(post.extra_headers.size(), 1u);
  EXPECT_EQ(post.extra_headers[0].first, "Allow");
  EXPECT_EQ(post.extra_headers[0].second, "GET");
}

TEST_F(RoutingTest, BadParametersAre400) {
  EXPECT_EQ(Handle("GET /spread HTTP/1.1").status, 400);
  EXPECT_EQ(Handle("GET /spread?domain=mars&attr=phone HTTP/1.1").status,
            400);
  EXPECT_EQ(
      Handle("GET /spread?domain=books&attr=isbn&k=0 HTTP/1.1").status, 400);
  EXPECT_EQ(
      Handle("GET /spread?domain=books&attr=isbn&scale=-1 HTTP/1.1").status,
      400);
  // NaN compares false with both bounds; it is not a scale in (0, 64].
  EXPECT_EQ(
      Handle("GET /spread?domain=books&attr=isbn&scale=nan HTTP/1.1").status,
      400);
  EXPECT_EQ(Handle("GET /demand?site=msn HTTP/1.1").status, 400);
}

// Every (domain, attr) pair of the registry answers 200 or refuses with
// 400 on each scan endpoint; none may abort the server. Tiny scale keeps
// the 45 pairs' scans fast.
TEST_F(RoutingTest, EveryDomainAttrPairAnswersOrRefuses) {
  for (const AttributeSpec& spec : AllAttributeSpecs()) {
    for (Domain domain : AllDomains()) {
      for (const char* endpoint : {"/spread", "/setcover", "/graph"}) {
        const std::string target =
            std::string(endpoint) + "?domain=" +
            std::string(DomainFlagName(domain)) + "&attr=" +
            std::string(spec.name) + "&scale=0.05";
        const int status = Handle("GET " + target + " HTTP/1.1").status;
        EXPECT_EQ(status, AttributeApplicableTo(spec, domain) ? 200 : 400)
            << target;
      }
    }
  }
}

TEST_F(RoutingTest, ContentNegotiation) {
  const HttpResponse json =
      Handle("GET /spread?domain=books&attr=isbn HTTP/1.1");
  ASSERT_EQ(json.status, 200);
  EXPECT_EQ(json.content_type, "application/json");
  EXPECT_EQ(json.body.front(), '{');

  const HttpResponse tsv =
      Handle("GET /spread?domain=books&attr=isbn&format=tsv HTTP/1.1");
  ASSERT_EQ(tsv.status, 200);
  EXPECT_EQ(tsv.content_type, "text/tab-separated-values");
  EXPECT_EQ(tsv.body.substr(0, 2), "t\t");

  const HttpResponse accept = Handle(
      "GET /spread?domain=books&attr=isbn HTTP/1.1\r\n"
      "Accept: text/tab-separated-values");
  ASSERT_EQ(accept.status, 200);
  EXPECT_EQ(accept.content_type, "text/tab-separated-values");

  // The query parameter wins over Accept.
  const HttpResponse both = Handle(
      "GET /spread?domain=books&attr=isbn&format=json HTTP/1.1\r\n"
      "Accept: text/tab-separated-values");
  ASSERT_EQ(both.status, 200);
  EXPECT_EQ(both.content_type, "application/json");

  // Every k renders the first k rows of the memoized curve, which must
  // be the bytes of a direct ComputeKCoverage at that k, in both formats.
  Study study(SmallOptions());
  auto scan = study.Scan(Domain::kBooks, Attribute::kIsbn);
  ASSERT_TRUE(scan.ok());
  for (uint32_t k = 1; k <= ScanHandleCache::kMaxK; ++k) {
    auto curve = ComputeKCoverage(
        scan->table(), SmallOptions().ScaledEntities(), k,
        DefaultCoverageTValues(
            static_cast<uint32_t>(scan->table().num_hosts())));
    ASSERT_TRUE(curve.ok());
    for (WireFormat format : {WireFormat::kJson, WireFormat::kTsv}) {
      const std::string target =
          "/spread?domain=books&attr=isbn&k=" + std::to_string(k) +
          (format == WireFormat::kTsv ? "&format=tsv" : "&format=json");
      const HttpResponse served = Handle("GET " + target + " HTTP/1.1");
      ASSERT_EQ(served.status, 200) << target;
      EXPECT_EQ(served.body,
                SpreadBody(Domain::kBooks, Attribute::kIsbn, *curve, format))
          << target;
    }
  }
}

TEST_F(RoutingTest, MetricsPassthrough) {
  const HttpResponse prom = Handle("GET /metrics HTTP/1.1");
  ASSERT_EQ(prom.status, 200);
  EXPECT_NE(prom.body.find("wsd_serve_requests"), std::string::npos);
  // Every memo layer reports its size, the unbounded demand memo too.
  for (const char* name :
       {"wsd_serve_scan_cache_bytes", "wsd_serve_response_cache_entries",
        "wsd_serve_demand_memo_bytes", "wsd_serve_demand_memo_entries"}) {
    EXPECT_NE(prom.body.find(name), std::string::npos) << name;
  }
  const HttpResponse json = Handle("GET /metrics?format=json HTTP/1.1");
  ASSERT_EQ(json.status, 200);
  EXPECT_EQ(json.content_type, "application/json");
  EXPECT_EQ(json.body.front(), '{');
}

TEST_F(RoutingTest, ResponseMemoServesIdenticalBytes) {
  const ResponseCache::Stats before = ctx_.responses.GetStats();
  const HttpResponse miss =
      Handle("GET /graph?domain=books&attr=isbn HTTP/1.1");
  ASSERT_EQ(miss.status, 200);
  const HttpResponse hit =
      Handle("GET /graph?domain=books&attr=isbn HTTP/1.1");
  ASSERT_EQ(hit.status, 200);
  EXPECT_EQ(hit.body, miss.body);
  EXPECT_EQ(hit.content_type, miss.content_type);

  ResponseCache::Stats stats = ctx_.responses.GetStats();
  EXPECT_EQ(stats.hits, before.hits + 1);
  EXPECT_EQ(stats.misses, before.misses + 1);
  EXPECT_GT(stats.bytes, before.bytes);

  // The negotiated format is part of the memo key: an Accept header
  // asking for TSV must not be served the memoized JSON body.
  const HttpResponse tsv = Handle(
      "GET /graph?domain=books&attr=isbn HTTP/1.1\r\n"
      "Accept: text/tab-separated-values");
  ASSERT_EQ(tsv.status, 200);
  EXPECT_EQ(tsv.content_type, "text/tab-separated-values");
  EXPECT_NE(tsv.body, miss.body);
  stats = ctx_.responses.GetStats();
  EXPECT_EQ(stats.misses, before.misses + 2);

  // Errors are never memoized.
  const ResponseCache::Stats pre_error = ctx_.responses.GetStats();
  EXPECT_EQ(Handle("GET /graph?domain=mars&attr=isbn HTTP/1.1").status, 400);
  EXPECT_EQ(ctx_.responses.GetStats().entries, pre_error.entries);
}

// The scan-analysis memo's lookups (wsd.serve.analysis_memo.*): one per
// response-cache miss on /spread, /setcover or /graph.
struct MemoCounts {
  uint64_t hits = 0;
  uint64_t misses = 0;
};

MemoCounts ReadMemoCounts() {
  auto& reg = MetricsRegistry::Global();
  return {reg.GetCounter("wsd.serve.analysis_memo.hits").value(),
          reg.GetCounter("wsd.serve.analysis_memo.misses").value()};
}

TEST(ResponseCacheTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  ServeContext ctx;
  ResponseCache& cache = ctx.responses;
  // An entry costs its key, body and content type: 2 + 4 + 10 = 16 bytes,
  // so two fit.
  cache.set_max_bytes(32);
  int renders = 0;
  auto render = [&renders](const std::string& body) {
    return [&renders, body]() -> StatusOr<RenderedBody> {
      ++renders;
      return RenderedBody{body, "text/plain"};
    };
  };
  ASSERT_TRUE(cache.Get("ka", render("aaaa")).ok());
  ASSERT_TRUE(cache.Get("kb", render("bbbb")).ok());
  ASSERT_TRUE(cache.Get("ka", render("xxxx")).ok());  // ka becomes MRU
  ASSERT_TRUE(cache.Get("kc", render("cccc")).ok());  // evicts kb, not ka
  ResponseCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 32u);

  const auto hit = cache.Get("ka", render("xxxx"));
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ((*hit)->body, "aaaa");
  EXPECT_EQ((*hit)->content_type, "text/plain");
  EXPECT_EQ(renders, 3);
  const auto evicted = cache.Get("kb", render("bbbb"));  // evicts kc
  ASSERT_TRUE(evicted.ok());
  EXPECT_EQ(renders, 4);

  // A smaller budget evicts down to the most recently used entry.
  cache.set_max_bytes(1);
  stats = cache.GetStats();
  EXPECT_EQ(stats.evictions, 3u);
  EXPECT_EQ(stats.entries, 1u);
  ASSERT_TRUE(cache.Get("kb", render("xxxx")).ok());
  EXPECT_EQ(renders, 4);
  stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 4u);
}

// Charge adds bytes only while the key's entry still holds the value it
// was computed for. Under a zero budget "a" is evicted and admitted
// again, so a late charge for the first value must not land on the
// second.
TEST(ResponseCacheTest, ChargeSkipsEntryReadmittedSinceCompute) {
  ServeContext ctx;
  ResponseCache& cache = ctx.responses;
  cache.set_max_bytes(0);
  auto render = [](const std::string& body) {
    return [body]() -> StatusOr<RenderedBody> {
      return RenderedBody{body, "text/plain"};
    };
  };
  const auto v1 = cache.Get("a", render("first"));
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(cache.Get("b", render("bbbbb")).ok());  // evicts "a"
  const auto v2 = cache.Get("a", render("again"));
  ASSERT_TRUE(v2.ok());
  ASSERT_NE(v1->get(), v2->get());
  EXPECT_EQ((*v2)->body, "again");
  ResponseCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 2u);
  const size_t bytes = stats.bytes;

  cache.Charge("a", v1->get(), 100);
  EXPECT_EQ(cache.GetStats().bytes, bytes) << "v1 was evicted";
  cache.Charge("a", v2->get(), 100);
  stats = cache.GetStats();
  EXPECT_EQ(stats.bytes, bytes + 100);
  EXPECT_EQ(stats.entries, 1u);
}

// Concurrent requests for one cold target render it once: the first
// computes, the rest wait for it and count as hits.
TEST(ResponseCacheTest, ConcurrentColdTargetRendersOnce) {
  const StudyOptions options = SmallOptions();
  ScanHandleCache cache(options, 64 * 1024 * 1024);
  ServeContext ctx;
  ctx.base = options;
  ctx.cache = &cache;
  const MemoCounts before = ReadMemoCounts();
  constexpr int kThreads = 8;
  std::vector<HttpResponse> responses(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      HandleRequest(ctx, Req("GET /setcover?domain=banks&attr=phone HTTP/1.1"),
                    &responses[i]);
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_EQ(responses[i].status, 200) << "thread " << i;
    EXPECT_EQ(responses[i].body, responses[0].body) << "thread " << i;
    EXPECT_EQ(responses[i].content_type, responses[0].content_type);
  }
  const ResponseCache::Stats stats = ctx.responses.GetStats();
  EXPECT_EQ(stats.misses, 1u) << "one render";
  EXPECT_EQ(stats.hits, kThreads - 1u);
  EXPECT_EQ(stats.entries, 1u);
  // The one render asked the analysis memo once.
  const MemoCounts after = ReadMemoCounts();
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits - before.hits, 0u);
}

// A refused request computes nothing worth keeping: no entry and no
// bytes remain, however many distinct targets are refused.
TEST(ResponseCacheTest, RefusedTargetsLeaveNoEntry) {
  const StudyOptions options = SmallOptions();
  ScanHandleCache cache(options, 64 * 1024 * 1024);
  ServeContext ctx;
  ctx.base = options;
  ctx.cache = &cache;
  for (int k = 33; k <= 82; ++k) {
    HttpResponse resp;
    HandleRequest(ctx,
                  Req("GET /spread?domain=banks&attr=phone&k=" +
                      std::to_string(k) + " HTTP/1.1"),
                  &resp);
    ASSERT_EQ(resp.status, 400) << "k=" << k;
  }
  const ResponseCache::Stats stats = ctx.responses.GetStats();
  EXPECT_EQ(stats.misses, 50u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

// ---------------------------------------------------------------------
// Analysis memo: each scan-cache entry computes its k-coverage curve, set
// cover and Table 2 row once; a response-cache miss then only renders.

TEST_F(RoutingTest, AnalysisMemoComputesEachResultOnce) {
  const MemoCounts before = ReadMemoCounts();
  const ResponseCache::Stats responses_before = ctx_.responses.GetStats();
  ASSERT_EQ(Handle("GET /spread?domain=banks&attr=phone&k=3 HTTP/1.1").status,
            200);
  const size_t bytes_with_curve = cache_.GetStats().bytes;
  ASSERT_EQ(Handle("GET /spread?domain=banks&attr=phone&k=7 HTTP/1.1").status,
            200);
  EXPECT_EQ(cache_.GetStats().bytes, bytes_with_curve)
      << "a memo hit computes nothing new";
  ASSERT_EQ(Handle("GET /setcover?domain=banks&attr=phone HTTP/1.1").status,
            200);
  EXPECT_GT(cache_.GetStats().bytes, bytes_with_curve)
      << "a computed result counts toward the scan budget";
  ASSERT_EQ(
      Handle("GET /setcover?domain=banks&attr=phone&format=tsv HTTP/1.1")
          .status,
      200);

  // Four distinct targets miss the response cache; the memo computes the
  // curve and the cover once each and answers the other two.
  const MemoCounts after = ReadMemoCounts();
  EXPECT_EQ(after.misses - before.misses, 2u);
  EXPECT_EQ(after.hits - before.hits, 2u);
  EXPECT_EQ(ctx_.responses.GetStats().misses - responses_before.misses, 4u);
  EXPECT_EQ(cache_.GetStats().misses, 1u);
}

TEST(AnalysisMemo, ConcurrentColdRequestsComputeOnce) {
  const StudyOptions options = SmallOptions();
  ScanHandleCache cache(options, 64 * 1024 * 1024);
  ServeContext ctx;
  ctx.base = options;
  ctx.cache = &cache;
  const MemoCounts before = ReadMemoCounts();
  constexpr int kThreads = 8;
  std::vector<HttpResponse> responses(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      HandleRequest(ctx,
                    Req("GET /spread?domain=banks&attr=phone&k=" +
                        std::to_string(i + 1) + " HTTP/1.1"),
                    &responses[i]);
    });
  }
  for (auto& t : threads) t.join();

  Study study(options);
  auto scan = study.Scan(Domain::kBanks, Attribute::kPhone);
  ASSERT_TRUE(scan.ok());
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_EQ(responses[i].status, 200) << "k=" << i + 1;
    auto curve = ComputeKCoverage(
        scan->table(), options.ScaledEntities(), static_cast<uint32_t>(i + 1),
        DefaultCoverageTValues(
            static_cast<uint32_t>(scan->table().num_hosts())));
    ASSERT_TRUE(curve.ok());
    EXPECT_EQ(responses[i].body, SpreadBody(Domain::kBanks, Attribute::kPhone,
                                            *curve, WireFormat::kJson))
        << "k=" << i + 1;
  }
  const MemoCounts after = ReadMemoCounts();
  EXPECT_EQ(after.misses - before.misses, 1u) << "one k-coverage computation";
  EXPECT_EQ(after.hits - before.hits, kThreads - 1u);
  EXPECT_EQ(cache.GetStats().misses, 1u);
}

TEST(AnalysisMemo, EvictedEntryComputesAgain) {
  const StudyOptions options = SmallOptions();
  // One byte of budget: only the most recently used scan stays, and its
  // memo goes with it.
  ScanHandleCache cache(options, 1);
  ServeContext ctx;
  ctx.base = options;
  ctx.cache = &cache;
  auto handle = [&](const std::string& target) {
    HttpResponse resp;
    HandleRequest(ctx, Req("GET " + target + " HTTP/1.1"), &resp);
    return resp;
  };
  const MemoCounts before = ReadMemoCounts();
  const HttpResponse first = handle("/spread?domain=books&attr=isbn&k=3");
  ASSERT_EQ(first.status, 200);
  ASSERT_EQ(handle("/spread?domain=books&attr=isbn&k=4").status, 200);
  MemoCounts now = ReadMemoCounts();
  EXPECT_EQ(now.misses - before.misses, 1u);
  EXPECT_EQ(now.hits - before.hits, 1u) << "the resident entry's memo answers";

  ASSERT_EQ(handle("/spread?domain=restaurants&attr=phone").status, 200);
  EXPECT_EQ(cache.GetStats().evictions, 1u);
  // books/isbn was evicted with its memo: a new target scans and computes
  // again, and renders the same rows as before.
  const HttpResponse again =
      handle("/spread?domain=books&attr=isbn&k=3&seed=7");
  ASSERT_EQ(again.status, 200);
  EXPECT_EQ(again.body, first.body);
  now = ReadMemoCounts();
  EXPECT_EQ(now.misses - before.misses, 3u);
  EXPECT_EQ(now.hits - before.hits, 1u);
  EXPECT_EQ(cache.GetStats().misses, 3u);
}

TEST(AnalysisMemo, ConcurrentColdDemandRunsOneValueStudy) {
  StudyOptions options = SmallOptions();
  options.scale = 0.5;
  ScanHandleCache cache(options, 64 * 1024 * 1024);
  ServeContext ctx;
  ctx.base = options;
  ctx.cache = &cache;
  const MemoCounts before = ReadMemoCounts();
  constexpr int kThreads = 8;
  std::vector<HttpResponse> responses(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      HandleRequest(ctx, Req("GET /demand?site=yelp&format=tsv HTTP/1.1"),
                    &responses[i]);
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_EQ(responses[i].status, 200);
    EXPECT_EQ(responses[i].body, responses[0].body);
  }
  // Threads that found the rendered body never reached the memo; every
  // other one shares the single value study. Value studies are not scan
  // analyses: the analysis memo counts none of them.
  const MemoCacheStats demand = ctx.demand_memo.GetStats();
  EXPECT_EQ(demand.misses, 1u) << "one value study";
  EXPECT_EQ(demand.hits, ctx.responses.GetStats().misses - 1u);
  EXPECT_EQ(demand.entries, 1u);
  EXPECT_GT(demand.bytes, 0u);
  const MemoCounts after = ReadMemoCounts();
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.hits, before.hits);

  Study study(options);
  auto direct = study.RunValueStudy(TrafficSite::kYelp);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(responses[0].body, DemandBody(*direct, WireFormat::kTsv));
}

// A client walking seeds on /demand is held to the demand memo's byte
// budget: the least recently used value studies are evicted, and an
// evicted target answers the same body again.
TEST(DemandMemo, SeedWalkEvictsWithinByteBudget) {
  const StudyOptions options = SmallOptions();
  ScanHandleCache cache(options, 64 * 1024 * 1024);
  ServeContext ctx;
  ctx.base = options;
  ctx.cache = &cache;
  EXPECT_EQ(ctx.demand_memo.max_bytes(), ServeContext::kDemandMemoBytes);
  ctx.responses.set_max_bytes(0);  // every request reaches the memo
  Counter& evictions =
      MetricsRegistry::Global().GetCounter("wsd.serve.demand_memo.evictions");
  const uint64_t evictions_before = evictions.value();
  auto demand = [&](uint64_t seed) {
    HttpResponse resp;
    HandleRequest(ctx,
                  Req("GET /demand?site=yelp&scale=0.05&format=tsv&seed=" +
                      std::to_string(seed) + " HTTP/1.1"),
                  &resp);
    return resp;
  };

  const HttpResponse first = demand(1);
  ASSERT_EQ(first.status, 200);
  const size_t one_study = ctx.demand_memo.GetStats().bytes;
  ASSERT_GT(one_study, 0u);
  const size_t budget = 2 * one_study + one_study / 2;
  ctx.demand_memo.set_max_bytes(budget);
  for (uint64_t seed = 2; seed <= 6; ++seed) {
    ASSERT_EQ(demand(seed).status, 200) << "seed " << seed;
    const MemoCacheStats stats = ctx.demand_memo.GetStats();
    EXPECT_TRUE(stats.bytes <= budget || stats.entries == 1)
        << "seed " << seed << ": " << stats.bytes << " bytes in "
        << stats.entries << " entries";
  }
  MemoCacheStats stats = ctx.demand_memo.GetStats();
  EXPECT_EQ(stats.misses, 6u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 4u);
  EXPECT_EQ(evictions.value() - evictions_before, 4u);

  // Seed 1 was evicted: it runs again and renders the same bytes.
  const HttpResponse again = demand(1);
  ASSERT_EQ(again.status, 200);
  EXPECT_EQ(again.body, first.body);
  stats = ctx.demand_memo.GetStats();
  EXPECT_EQ(stats.misses, 7u);
  EXPECT_EQ(stats.hits, 0u);
}

// ---------------------------------------------------------------------
// ScanHandle cache.

TEST(ScanCache, HitMissEvictionCounters) {
  StudyOptions options = SmallOptions();
  // A budget of one byte: the most recent entry is always retained, any
  // older one evicted.
  ScanHandleCache cache(options, 1);
  const ScanHandleCache::Key books{Domain::kBooks, Attribute::kIsbn,
                                   options.seed, options.scale};
  const ScanHandleCache::Key rest{Domain::kRestaurants, Attribute::kPhone,
                                  options.seed, options.scale};

  auto first = cache.Get(books);
  ASSERT_TRUE(first.ok());
  auto again = cache.Get(books);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(first->get(), again->get());  // same shared result

  ScanHandleCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);

  auto other = cache.Get(rest);
  ASSERT_TRUE(other.ok());
  stats = cache.GetStats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 1u);  // books evicted by the byte budget
  EXPECT_EQ(stats.entries, 1u);

  // Books is gone: fetching it again is a miss (and evicts restaurants).
  ASSERT_TRUE(cache.Get(books).ok());
  stats = cache.GetStats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 2u);
}

TEST(ScanCache, OversizedEntryIsAdmittedAndFlagged) {
  StudyOptions options = SmallOptions();
  // Every real entry dwarfs a one-byte budget: admission must still
  // succeed (the server already holds the result to answer), be counted
  // as oversized, and ride the MRU-never-evicted rule — exactly one
  // entry resident at a time.
  ScanHandleCache cache(options, 1);
  const ScanHandleCache::Key books{Domain::kBooks, Attribute::kIsbn,
                                   options.seed, options.scale};
  const ScanHandleCache::Key rest{Domain::kRestaurants, Attribute::kPhone,
                                  options.seed, options.scale};

  const uint64_t counter0 = MetricsRegistry::Global()
                                .GetCounter("wsd.serve.scan_cache.oversized_admits")
                                .value();
  auto first = cache.Get(books);
  ASSERT_TRUE(first.ok());
  ScanHandleCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.oversized_admits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, cache.max_bytes());
  EXPECT_EQ(MetricsRegistry::Global()
                .GetCounter("wsd.serve.scan_cache.oversized_admits")
                .value(),
            counter0 + 1);

  // The oversized entry still serves hits while it is MRU...
  ASSERT_TRUE(cache.Get(books).ok());
  EXPECT_EQ(cache.GetStats().hits, 1u);

  // ...and is evicted the moment another key takes MRU.
  ASSERT_TRUE(cache.Get(rest).ok());
  stats = cache.GetStats();
  EXPECT_EQ(stats.oversized_admits, 2u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(ScanCache, ConcurrentMissesDeduplicate) {
  StudyOptions options = SmallOptions();
  ScanHandleCache cache(options, 64 * 1024 * 1024);
  const ScanHandleCache::Key key{Domain::kBooks, Attribute::kIsbn,
                                 options.seed, options.scale};
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      auto result = cache.Get(key);
      if (!result.ok() || *result == nullptr) failures.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const ScanHandleCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits + stats.misses, 8u);
  EXPECT_EQ(stats.misses, 1u) << "concurrent misses must deduplicate";
}

TEST(ScanCache, ConcurrentMissesShareOversizedResultUnderOneByteBudget) {
  StudyOptions options = SmallOptions();
  // One byte of budget: every admission is oversized and only the MRU
  // entry survives. Deduplicated waiters must still share the single
  // oversized result instead of each rescanning after a wake.
  ScanHandleCache cache(options, 1);
  const ScanHandleCache::Key key{Domain::kBooks, Attribute::kIsbn,
                                 options.seed, options.scale};
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const ScanResult>> results(kThreads);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      auto result = cache.Get(key);
      if (!result.ok() || *result == nullptr) {
        failures.fetch_add(1);
        return;
      }
      results[i] = *result;
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(results[i].get(), results[0].get()) << "thread " << i;
  }
  const ScanHandleCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.misses, 1u) << "one scan, shared by every waiter";
  EXPECT_EQ(stats.hits, kThreads - 1u);
  EXPECT_EQ(stats.oversized_admits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

// ---------------------------------------------------------------------
// Loopback integration: ephemeral port, concurrent clients, responses
// byte-identical to direct Study calls.

TEST(ServerLoopback, ConcurrentRequestsMatchDirectStudyByteForByte) {
  StudyOptions options = SmallOptions();
  ScanHandleCache cache(options, 256 * 1024 * 1024);
  ServeContext ctx;
  ctx.base = options;
  ctx.cache = &cache;
  ServerOptions server_options;
  server_options.port = 0;  // ephemeral
  server_options.connection_threads = 8;
  HttpServer server(&ctx, server_options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  // Expected bodies straight from the Study, rendered through the same
  // serializers the server uses.
  Study study(options);
  auto scan = study.Scan(Domain::kBooks, Attribute::kIsbn);
  ASSERT_TRUE(scan.ok());
  auto curve = ComputeKCoverage(
      scan->table(), options.ScaledEntities(), 10,
      DefaultCoverageTValues(
          static_cast<uint32_t>(scan->table().num_hosts())));
  ASSERT_TRUE(curve.ok());
  const std::string want_spread_json =
      SpreadBody(Domain::kBooks, Attribute::kIsbn, *curve, WireFormat::kJson);
  const std::string want_spread_tsv =
      SpreadBody(Domain::kBooks, Attribute::kIsbn, *curve, WireFormat::kTsv);
  auto cover = GreedySetCover(
      scan->table(), options.ScaledEntities(),
      DefaultCoverageTValues(
          static_cast<uint32_t>(scan->table().num_hosts())));
  ASSERT_TRUE(cover.ok());
  const std::string want_setcover_json = SetCoverBody(
      Domain::kBooks, Attribute::kIsbn, *cover, WireFormat::kJson);
  auto row = ComputeGraphMetrics(Domain::kBooks, Attribute::kIsbn,
                                 scan->table(), options.ScaledEntities(),
                                 nullptr);
  ASSERT_TRUE(row.ok());
  const std::string want_graph_json = GraphBody(*row, WireFormat::kJson);

  struct Probe {
    std::string target;
    std::vector<std::string> headers;
    const std::string* want;
  };
  const std::vector<Probe> probes = {
      {"/spread?domain=books&attr=isbn", {}, &want_spread_json},
      {"/spread?domain=books&attr=isbn&format=tsv", {}, &want_spread_tsv},
      {"/spread?domain=books&attr=isbn",
       {"Accept: text/tab-separated-values"},
       &want_spread_tsv},
      {"/setcover?domain=books&attr=isbn", {}, &want_setcover_json},
      {"/graph?domain=books&attr=isbn", {}, &want_graph_json},
  };

  std::atomic<int> mismatches{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&, c] {
      HttpClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        errors.fetch_add(1);
        return;
      }
      for (int round = 0; round < 3; ++round) {
        const Probe& probe = probes[(c + round) % probes.size()];
        auto response = client.Get(probe.target, probe.headers);
        if (!response.ok() || response->status != 200) {
          errors.fetch_add(1);
          continue;
        }
        if (response->body != *probe.want) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0)
      << "served responses must be byte-identical to direct Study calls";

  // Error paths over the wire.
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  auto missing = client.Get("/spread");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 400);
  auto not_found = client.Get("/nope");
  ASSERT_TRUE(not_found.ok());
  EXPECT_EQ(not_found->status, 404);
  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 200);
  EXPECT_EQ(health->body, "ok\n");

  server.Shutdown();
  // After shutdown the listener is gone: new connections are refused.
  HttpClient late;
  EXPECT_FALSE(late.Connect("127.0.0.1", server.port()).ok());
}

TEST(ServerLoopback, GracefulShutdownIsIdempotent) {
  StudyOptions options = SmallOptions();
  ScanHandleCache cache(options, 1 << 20);
  ServeContext ctx;
  ctx.base = options;
  ctx.cache = &cache;
  ServerOptions server_options;
  server_options.port = 0;
  HttpServer server(&ctx, server_options);
  ASSERT_TRUE(server.Start().ok());
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 200);
  server.Shutdown();
  server.Shutdown();  // second call is a no-op (destructor calls it too)
}

// A client that pipelines requests and never reads fills its receive
// window, so the worker's send() blocks. The send timeout must free the
// worker and drop the connection, and drain must then not wait on it.
TEST(ServerLoopback, NonReadingClientIsDisconnected) {
  StudyOptions options = SmallOptions();
  ScanHandleCache cache(options, 1 << 20);
  ServeContext ctx;
  ctx.base = options;
  ctx.cache = &cache;
  ServerOptions server_options;
  server_options.port = 0;
  server_options.read_timeout_ms = 200;
  // So high that the keep-alive cap cannot be what frees the worker.
  server_options.max_keepalive_requests = 1u << 30;
  HttpServer server(&ctx, server_options);
  ASSERT_TRUE(server.Start().ok());

  MetricsRegistry& registry = MetricsRegistry::Global();
  const Counter& send_timeouts =
      registry.GetCounter("wsd.serve.send_timeouts");
  const Gauge& active = registry.GetGauge("wsd.serve.active_connections");
  const uint64_t timeouts_before = send_timeouts.value();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  // Small buffers, set before connect so the window stays small.
  const int buffer_bytes = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buffer_bytes, sizeof(int));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buffer_bytes, sizeof(int));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  // Pipeline without ever reading. Partial sends resume mid-request so
  // the stream stays well-formed. A full send buffer (EAGAIN) means the
  // server stopped reading; an error means it closed the connection.
  const std::string request = "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n";
  size_t offset = 0;
  bool server_closed = false;
  bool disconnected = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (send_timeouts.value() > timeouts_before && active.value() == 0) {
      disconnected = true;
      break;
    }
    if (!server_closed) {
      const ssize_t n =
          ::send(fd, request.data() + offset, request.size() - offset,
                 MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n >= 0) {
        offset = (offset + static_cast<size_t>(n)) % request.size();
        continue;
      }
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        server_closed = true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const uint64_t timed_out = send_timeouts.value() - timeouts_before;
  const double still_active = active.value();
  // Closing the client is what frees a worker stuck in send() when the
  // server sets no send timeout, so a failure here cannot hang drain.
  ::close(fd);
  EXPECT_TRUE(disconnected) << "send_timeouts +" << timed_out
                            << ", active_connections " << still_active;

  const auto drain_start = std::chrono::steady_clock::now();
  server.Shutdown();
  EXPECT_LT(std::chrono::steady_clock::now() - drain_start,
            std::chrono::seconds(1));
}

// Reads one Content-Length response from `fd`, buffering any bytes past
// it in *pending. False on EOF, error or the socket's receive timeout.
bool ReadResponse(int fd, std::string* pending, int* status,
                  std::string* body) {
  char chunk[4096];
  size_t header_end;
  while ((header_end = pending->find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    pending->append(chunk, static_cast<size_t>(n));
  }
  const std::string head = pending->substr(0, header_end + 2);
  if (head.compare(0, 9, "HTTP/1.1 ") != 0) return false;
  *status = std::atoi(head.c_str() + 9);
  const std::string kLength = "\r\nContent-Length: ";
  const size_t at = head.find(kLength);
  if (at == std::string::npos) return false;
  const size_t length =
      std::strtoull(head.c_str() + at + kLength.size(), nullptr, 10);
  const size_t total = header_end + 4 + length;
  while (pending->size() < total) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    pending->append(chunk, static_cast<size_t>(n));
  }
  *body = pending->substr(header_end + 4, length);
  pending->erase(0, total);
  return true;
}

// One send() carries 300 pipelined requests. Every response must come
// back, in request order, with the body a direct render gives, and the
// connection must still serve a request after the burst.
TEST(ServerLoopback, PipelinedBurstAnsweredInOrder) {
  StudyOptions options = SmallOptions();
  ScanHandleCache cache(options, 64 * 1024 * 1024);
  ServeContext ctx;
  ctx.base = options;
  ctx.cache = &cache;
  ServerOptions server_options;
  server_options.port = 0;
  server_options.max_keepalive_requests = 1000;  // above the 301 sent here
  HttpServer server(&ctx, server_options);
  ASSERT_TRUE(server.Start().ok());

  Study study(options);
  auto scan = study.Scan(Domain::kBooks, Attribute::kIsbn);
  ASSERT_TRUE(scan.ok());
  auto curve = ComputeKCoverage(
      scan->table(), options.ScaledEntities(), 10,
      DefaultCoverageTValues(
          static_cast<uint32_t>(scan->table().num_hosts())));
  ASSERT_TRUE(curve.ok());
  const std::string want_spread =
      SpreadBody(Domain::kBooks, Attribute::kIsbn, *curve, WireFormat::kJson);
  const std::string spread_target = "/spread?domain=books&attr=isbn";

  // Warm the response cache, so the burst is served from memory.
  {
    HttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    auto warm = client.Get(spread_target);
    ASSERT_TRUE(warm.ok());
    ASSERT_EQ(warm->status, 200);
    ASSERT_EQ(warm->body, want_spread);
  }

  constexpr int kRequests = 300;
  std::string burst;
  std::vector<const std::string*> want;
  const std::string want_health = "ok\n";
  for (int i = 0; i < kRequests; ++i) {
    const bool health = i % 3 == 0;
    burst += "GET ";
    burst += health ? "/healthz" : spread_target;
    burst += " HTTP/1.1\r\nHost: t\r\n\r\n";
    want.push_back(health ? &want_health : &want_spread);
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  timeval tv{};
  tv.tv_sec = 10;  // a lost response fails the test instead of hanging it
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ASSERT_EQ(::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));

  std::string pending;
  int status = 0;
  std::string body;
  int answered = 0;
  int mismatches = 0;
  for (; answered < kRequests; ++answered) {
    if (!ReadResponse(fd, &pending, &status, &body)) break;
    if (status != 200 || body != *want[answered]) ++mismatches;
  }
  EXPECT_EQ(answered, kRequests);
  EXPECT_EQ(mismatches, 0);
  EXPECT_TRUE(pending.empty()) << "bytes past the last response";

  // The connection survives the burst.
  const std::string after = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
  ASSERT_EQ(::send(fd, after.data(), after.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(after.size()));
  ASSERT_TRUE(ReadResponse(fd, &pending, &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, want_health);
  ::close(fd);
  server.Shutdown();
}

}  // namespace
}  // namespace wsd
