#include "serve/endpoints.h"

#include <tuple>
#include <utility>

#include "extract/attribute_registry.h"
#include "traffic/demand.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace wsd {

namespace {

// ---------------------------------------------------------------------
// Instrumentation. One counter + latency histogram per endpoint, hoisted
// into statics so the registry lock is not taken per request.

struct EndpointMetrics {
  Counter& requests;
  LatencyHistogram& latency;
};

EndpointMetrics MakeEndpointMetrics(const char* endpoint) {
  auto& reg = MetricsRegistry::Global();
  return EndpointMetrics{
      reg.GetCounter(StrFormat("wsd.serve.%s.requests", endpoint)),
      reg.GetHistogram(StrFormat("wsd.serve.%s.latency_seconds", endpoint)),
  };
}

EndpointMetrics& MetricsFor(std::string_view path) {
  static EndpointMetrics spread = MakeEndpointMetrics("spread");
  static EndpointMetrics setcover = MakeEndpointMetrics("setcover");
  static EndpointMetrics demand = MakeEndpointMetrics("demand");
  static EndpointMetrics graph = MakeEndpointMetrics("graph");
  static EndpointMetrics metrics = MakeEndpointMetrics("metrics");
  static EndpointMetrics healthz = MakeEndpointMetrics("healthz");
  static EndpointMetrics other = MakeEndpointMetrics("other");
  if (path == "/spread") return spread;
  if (path == "/setcover") return setcover;
  if (path == "/demand") return demand;
  if (path == "/graph") return graph;
  if (path == "/metrics") return metrics;
  if (path == "/healthz") return healthz;
  return other;
}

// ---------------------------------------------------------------------
// Parameter parsing (the wsdctl flag vocabulary: entity/domains.h,
// extract/attribute_registry.h, traffic/url_patterns.h).

void Fail(HttpResponse* resp, int status, std::string_view message) {
  resp->status = status;
  resp->content_type = "application/json";
  resp->body = StrFormat("{\"error\":\"%.*s\"}\n",
                         static_cast<int>(message.size()), message.data());
}

// Pulls the shared (seed, scale) overrides out of the query; a malformed
// value is a 400, not a silent default.
bool ParseSeedScale(const HttpRequest& req, const StudyOptions& base,
                    uint64_t* seed, double* scale, HttpResponse* resp) {
  *seed = base.seed;
  *scale = base.scale;
  if (auto v = req.QueryParam("seed")) {
    const auto parsed = ParseUint64(*v);
    if (!parsed.has_value()) {
      Fail(resp, 400, "invalid seed parameter");
      return false;
    }
    *seed = *parsed;
  }
  if (auto v = req.QueryParam("scale")) {
    const auto parsed = ParseDouble(*v);
    // Written so that NaN, which fails every comparison, is refused too.
    if (!parsed.has_value() || !(*parsed > 0 && *parsed <= 64)) {
      Fail(resp, 400, "invalid scale parameter (want 0 < scale <= 64)");
      return false;
    }
    *scale = *parsed;
  }
  return true;
}

bool ParseDomainAttr(const HttpRequest& req, Domain* domain, Attribute* attr,
                     HttpResponse* resp) {
  const auto d = FindDomainByName(req.QueryParam("domain").value_or(""));
  const AttributeSpec* spec =
      FindAttributeByName(req.QueryParam("attr").value_or(""));
  if (!d.has_value()) {
    Fail(resp, 400,
         "missing or unknown domain parameter (" + DomainVocabulary('|') +
             ")");
    return false;
  }
  if (spec == nullptr) {
    Fail(resp, 400,
         "missing or unknown attr parameter (" + AttributeVocabulary('|') +
             ")");
    return false;
  }
  if (const Status applies = CheckAttributeApplies(spec->attr, *d);
      !applies.ok()) {
    Fail(resp, 400, applies.message());
    return false;
  }
  *domain = *d;
  *attr = spec->attr;
  return true;
}

// ---------------------------------------------------------------------
// Endpoint handlers.

// Renders a memoized analysis as a 200 in the negotiated format, or its
// failure as a 503.
template <typename T, typename Render>
void ServeAnalysis(const StatusOr<std::shared_ptr<const T>>& result,
                   WireFormat format, const Render& render,
                   HttpResponse* resp) {
  if (!result.ok()) {
    Fail(resp, 503, result.status().message());
    return;
  }
  resp->content_type = format == WireFormat::kTsv ? "text/tab-separated-values"
                                                  : "application/json";
  resp->body = render(**result, format);
}

// The rows k = 1..max_k of a memoized k-coverage curve, which are the rows
// ComputeKCoverage returns at max_k.
CoverageCurve FirstRows(const CoverageCurve& curve, uint32_t max_k) {
  CoverageCurve rows;
  rows.t_values = curve.t_values;
  rows.k_coverage.assign(curve.k_coverage.begin(),
                         curve.k_coverage.begin() + max_k);
  rows.num_entities = curve.num_entities;
  rows.num_sites = curve.num_sites;
  return rows;
}

// /spread, /setcover and /graph: one lookup path. The query names a scan;
// the scan cache's memo for it holds the analysis, computed on its first
// request, so only the body is rendered here.
void HandleScanAnalysis(ServeContext& ctx, const HttpRequest& req,
                        WireFormat format, HttpResponse* resp) {
  Domain domain;
  Attribute attr;
  uint64_t seed = 0;
  double scale = 1.0;
  if (!ParseDomainAttr(req, &domain, &attr, resp)) return;
  if (!ParseSeedScale(req, ctx.base, &seed, &scale, resp)) return;
  const ScanHandleCache::Key key{domain, attr, seed, scale};
  if (req.path == "/spread") {
    uint32_t max_k = 10;
    if (auto v = req.QueryParam("k")) {
      const auto parsed = ParseUint64(*v);
      if (!parsed.has_value() || *parsed < 1 ||
          *parsed > ScanHandleCache::kMaxK) {
        Fail(resp, 400, "invalid k parameter (want 1..32)");
        return;
      }
      max_k = static_cast<uint32_t>(*parsed);
    }
    ServeAnalysis(
        ctx.cache->KCoverage(key), format,
        [&](const CoverageCurve& curve, WireFormat f) {
          return SpreadBody(domain, attr, FirstRows(curve, max_k), f);
        },
        resp);
  } else if (req.path == "/setcover") {
    ServeAnalysis(
        ctx.cache->SetCover(key), format,
        [&](const SetCoverCurve& curve, WireFormat f) {
          return SetCoverBody(domain, attr, curve, f);
        },
        resp);
  } else {
    ServeAnalysis(ctx.cache->GraphMetrics(key), format, GraphBody, resp);
  }
}

void HandleDemand(ServeContext& ctx, const HttpRequest& req,
                  WireFormat format, HttpResponse* resp) {
  const auto site =
      FindTrafficSiteByName(req.QueryParam("site").value_or("yelp"));
  if (!site.has_value()) {
    Fail(resp, 400,
         "unknown site parameter (" + TrafficSiteVocabulary('|') + ")");
    return;
  }
  uint64_t seed = 0;
  double scale = 1.0;
  if (!ParseSeedScale(req, ctx.base, &seed, &scale, resp)) return;

  const auto result = ctx.demand_memo.Get({*site, seed, scale}, [&] {
    StudyOptions options = ctx.base;
    options.seed = seed;
    options.scale = scale;
    options.threads = 1;  // value studies are single-threaded anyway
    return Study(options).RunValueStudy(*site);
  });
  ServeAnalysis(result, format, DemandBody, resp);
}

void HandleMetrics(const HttpRequest& req, HttpResponse* resp) {
  if (req.QueryParam("format").value_or("prom") == "json") {
    resp->content_type = "application/json";
    resp->body = MetricsRegistry::Global().ToJson();
    resp->body += "\n";
  } else {
    resp->content_type = "text/plain; version=0.0.4";
    resp->body = MetricsRegistry::Global().ToPrometheus();
  }
}

bool CacheableEndpoint(std::string_view path) {
  return path == "/spread" || path == "/setcover" || path == "/graph" ||
         path == "/demand";
}

// The negotiated format is part of the cache identity: two requests with
// the same target but different Accept headers render differently.
std::string ResponseCacheKey(const HttpRequest& req, WireFormat format) {
  std::string key = req.target;
  key.push_back('\x01');
  key += format == WireFormat::kTsv ? "tsv" : "json";
  return key;
}

// Approximate resident bytes of each memo entry, on the same terms as
// ApproxScanResultBytes.
size_t RenderedBytes(const std::string& key, const RenderedBody& rendered) {
  return key.size() + rendered.body.size() + rendered.content_type.size();
}

size_t ValueStudyBytes(const DemandKey& /*key*/,
                       const Study::ValueStudyResult& study) {
  return sizeof(study) +
         (study.demand.search_demand.capacity() +
          study.demand.browse_demand.capacity()) *
             sizeof(double) +
         study.reviews.capacity() * sizeof(uint32_t) +
         study.bins.capacity() * sizeof(ReviewBinStat) +
         (study.search_curve.capacity() + study.browse_curve.capacity()) *
             sizeof(DemandCurvePoint);
}

}  // namespace

ServeContext::ServeContext()
    : responses("wsd.serve.response_cache", 64u * 1024 * 1024,
                &RenderedBytes),
      demand_memo("wsd.serve.demand_memo", kDemandMemoBytes,
                  &ValueStudyBytes) {}

WireFormat NegotiateFormat(const HttpRequest& req) {
  if (auto v = req.QueryParam("format")) {
    if (EqualsIgnoreCase(*v, "tsv")) return WireFormat::kTsv;
    return WireFormat::kJson;
  }
  if (auto accept = req.Header("accept")) {
    if (accept->find("text/tab-separated-values") != std::string_view::npos ||
        accept->find("text/tsv") != std::string_view::npos) {
      return WireFormat::kTsv;
    }
  }
  return WireFormat::kJson;
}

void HandleRequest(ServeContext& ctx, const HttpRequest& req,
                   HttpResponse* resp) {
  static Counter& total_requests =
      MetricsRegistry::Global().GetCounter("wsd.serve.requests");
  static Counter& total_errors =
      MetricsRegistry::Global().GetCounter("wsd.serve.errors");
  total_requests.Increment();
  EndpointMetrics& endpoint = MetricsFor(req.path);
  endpoint.requests.Increment();
  const Timer timer;

  *resp = HttpResponse{};
  if (req.method != "GET") {
    resp->status = 405;
    resp->extra_headers.emplace_back("Allow", "GET");
    resp->content_type = "application/json";
    resp->body = "{\"error\":\"method not allowed\"}\n";
  } else if (req.path == "/healthz") {
    resp->content_type = "text/plain";
    resp->body = "ok\n";
  } else if (req.path == "/metrics") {
    HandleMetrics(req, resp);
  } else if (CacheableEndpoint(req.path)) {
    // Analysis responses are deterministic in (target, format, base
    // options), so a rendered body never goes stale and the memo needs
    // no invalidation.
    const WireFormat format = NegotiateFormat(req);
    const auto rendered = ctx.responses.Get(
        ResponseCacheKey(req, format), [&]() -> StatusOr<RenderedBody> {
          if (req.path == "/demand") {
            HandleDemand(ctx, req, format, resp);
          } else {
            HandleScanAnalysis(ctx, req, format, resp);
          }
          // An error is answered from `resp` and never kept.
          if (resp->status != 200) {
            return Status::FailedPrecondition("not a 200");
          }
          return RenderedBody{std::move(resp->body), resp->content_type};
        });
    if (rendered.ok()) {
      resp->body = (*rendered)->body;
      resp->content_type = (*rendered)->content_type;
    }
  } else {
    Fail(resp, 404, "no such endpoint");
  }
  if (resp->status >= 400) total_errors.Increment();
  endpoint.latency.Record(timer.ElapsedSeconds());
}

}  // namespace wsd
