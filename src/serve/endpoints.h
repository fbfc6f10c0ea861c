/// \file endpoints.h
/// Request routing and response rendering for `wsdd`. Pure logic over
/// parsed HttpRequests — no sockets — so the whole analysis surface is
/// unit-testable without a running server.
///
/// Endpoints (GET only; anything else is 405 with an Allow header):
///   /healthz   liveness probe, text/plain "ok"
///   /metrics   MetricsRegistry passthrough (Prometheus text; ?format=json)
///   /spread    k-coverage curves       ?domain=&attr=[&k=][&seed=][&scale=]
///   /setcover  greedy vs size ordering ?domain=&attr=[&seed=][&scale=]
///   /graph     Table 2 metrics row     ?domain=&attr=[&seed=][&scale=]
///   /demand    §4 value study          ?site=[&seed=][&scale=]
/// Analysis endpoints return JSON by default; `?format=tsv` or an
/// `Accept: text/tab-separated-values` header selects the TSV rendering.
/// Both come from the core/report.h renderers that `wsdctl --out` writes
/// with, so a TSV body is byte-identical to the wsdctl file.

#ifndef WSD_SERVE_ENDPOINTS_H_
#define WSD_SERVE_ENDPOINTS_H_

#include <cstdint>
#include <string>
#include <tuple>

#include "core/report.h"
#include "core/study.h"
#include "serve/http.h"
#include "serve/memo_cache.h"
#include "serve/scan_cache.h"

namespace wsd {

/// A rendered 200 response, as the response cache keeps it.
struct RenderedBody {
  std::string body;
  std::string content_type;
};

/// LRU memo of fully rendered analysis responses, keyed by (request
/// target, negotiated format). Safe with no invalidation: every analysis
/// is deterministic in its parameters and the server's base options, so
/// a rendered body can never go stale. This is what lets a warm wsdd
/// serve repeated queries at socket speed instead of rendering them
/// again; a miss renders from the analysis the scan cache memoizes with
/// the scan, and concurrent misses of one target render it once.
using ResponseCache = MemoCache<std::string, RenderedBody>;

/// The /demand memo's key: (site, seed, scale).
using DemandKey = std::tuple<TrafficSite, uint64_t, double>;

/// Shared state behind every request: the base StudyOptions (entities,
/// threads, artifact_dir), the scan cache and the memos. One ServeContext
/// per server; HandleRequest is safe to call from many threads.
struct ServeContext {
  ServeContext();

  // base and cache are configured once before the server starts and
  // never mutated afterwards; the caches lock internally.
  StudyOptions base;
  ScanHandleCache* cache = nullptr;  // not owned; required

  /// Rendered-response memo for the analysis endpoints (/spread,
  /// /setcover, /graph, /demand), 64 MiB by default; only a 200 is kept.
  /// /metrics and /healthz are never cached.
  ResponseCache responses;

  /// Memo for /demand: value studies do not flow through the scan cache
  /// (they read traffic logs, not host tables), so each (site, seed,
  /// scale) runs one value study, shared by concurrent and later queries.
  MemoCache<DemandKey, Study::ValueStudyResult> demand_memo;

  /// The demand memo's byte budget, the response cache's default: a
  /// client walking seeds evicts the least recently used value studies.
  static constexpr size_t kDemandMemoBytes = 64u * 1024 * 1024;
};

/// Routes one request and fills `resp`. Never throws; every failure maps
/// to 400/404/405 with a JSON error body. Also bumps the
/// `wsd.serve.*` request counters and latency histograms.
void HandleRequest(ServeContext& ctx, const HttpRequest& req,
                   HttpResponse* resp);

/// Negotiated format for `req`: the `format` query parameter (json|tsv)
/// wins; otherwise an Accept header naming a TSV media type selects TSV;
/// default JSON.
WireFormat NegotiateFormat(const HttpRequest& req);

}  // namespace wsd

#endif  // WSD_SERVE_ENDPOINTS_H_
