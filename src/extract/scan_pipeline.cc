#include "extract/scan_pipeline.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <unordered_map>

#include "entity/url.h"
#include "extract/attribute_registry.h"
#include "html/text_extract.h"
#include "text/tokenizer.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace wsd {

namespace {

// Merges one completed scan into the global registry. Called once per
// scan (never per page), so the inner extraction loop carries zero
// instrumentation; ScanStats is the registry's per-run delta.
void MirrorScanStats(const ScanStats& stats) {
  auto& reg = MetricsRegistry::Global();
  static Counter& hosts = reg.GetCounter("wsd.scan.hosts");
  static Counter& pages = reg.GetCounter("wsd.scan.pages");
  static Counter& bytes = reg.GetCounter("wsd.scan.bytes");
  static Counter& mentions = reg.GetCounter("wsd.scan.mentions");
  static Counter& review_pages = reg.GetCounter("wsd.scan.review_pages");
  static Counter& skipped_urls = reg.GetCounter("wsd.scan.skipped_urls");
  static Counter& runs = reg.GetCounter("wsd.scan.runs");
  static LatencyHistogram& run_seconds =
      reg.GetHistogram("wsd.scan.run_seconds");
  runs.Increment();
  hosts.Increment(stats.hosts_scanned);
  pages.Increment(stats.pages_scanned);
  bytes.Increment(stats.bytes_scanned);
  mentions.Increment(stats.entity_mentions);
  review_pages.Increment(stats.review_pages);
  skipped_urls.Increment(stats.skipped_urls);
  run_seconds.Record(stats.wall_seconds);
}

// Per-page kernel: extracts and matches one page entirely through the
// scratch buffers and returns its deduplicated entity ids (living in
// scratch->match.ids until the next page). Sets *is_review exactly when
// the page counts as a review page (kReviews scans only).
const std::vector<EntityId>& ScanPage(const EntityMatcher& matcher,
                                      const ReviewDetector* detector,
                                      Attribute attr, const Page& page,
                                      ScanScratch* scratch,
                                      bool* is_review) {
  *is_review = false;
  const AttributeSpec& spec = GetAttributeSpec(attr);
  if (spec.scan_raw_html) {
    // Anchor hrefs and schema.org markup live in the tags themselves,
    // which visible-text extraction strips.
    return matcher.MatchPageInto(page.html, &scratch->match);
  }
  scratch->visible_text.clear();
  html::ExtractVisibleTextInto(page.html, &scratch->visible_text);
  const std::vector<EntityId>& ids =
      matcher.MatchPageInto(scratch->visible_text, &scratch->match);
  if (spec.review_channel && !ids.empty()) {
    // Two-step methodology: phone match first, then the Naive Bayes
    // review decision over the page text. The text is tokenized exactly
    // once (in place, mutating visible_text — safe because matching is
    // already done) and scored from the token views.
    scratch->class_tokens.clear();
    text::TokenizeForClassificationInPlace(&scratch->visible_text,
                                           &scratch->class_tokens);
    if (detector->IsReviewTokens(scratch->class_tokens)) {
      *is_review = true;
    } else {
      scratch->match.ids.clear();
    }
  }
  return ids;
}

// Sort-and-collapse: turns the host's page-deduped id stream into the
// sorted unique (entity, pages) rows the HostRecord contract requires —
// the flat-vector replacement for the legacy per-host std::map.
void CollapseHostIds(std::vector<EntityId>* host_ids,
                     std::vector<EntityPages>* entities) {
  std::sort(host_ids->begin(), host_ids->end());
  for (size_t i = 0; i < host_ids->size();) {
    size_t j = i + 1;
    while (j < host_ids->size() && (*host_ids)[j] == (*host_ids)[i]) ++j;
    entities->push_back(
        {(*host_ids)[i], static_cast<uint32_t>(j - i)});
    i = j;
  }
}

// Transparent hashing so the cache scan can probe the host index with a
// reused string_view key and only materialize strings for new hosts.
struct StringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

}  // namespace

size_t ScanScratch::MemoryFootprint() const {
  return page.url.capacity() + page.html.capacity() +
         visible_text.capacity() +
         class_tokens.capacity() * sizeof(std::string_view) +
         match.ids.capacity() * sizeof(EntityId) +
         match.href.decoded.capacity() +
         match.href.match.canonical.capacity() +
         match.micro.value.capacity() + match.micro.decoded.capacity() +
         host_ids.capacity() * sizeof(EntityId);
}

void ScanHostPages(const SyntheticWeb& web, SiteId s,
                   const EntityMatcher& matcher,
                   const ReviewDetector* detector, ScanScratch* scratch,
                   HostRecord* rec, uint64_t* mentions,
                   uint64_t* review_pages) {
  const Attribute attr = matcher.attribute();
  rec->host.assign(web.host(s));
  rec->entities.clear();
  rec->pages_scanned = 0;
  rec->bytes_scanned = 0;
  scratch->host_ids.clear();

  uint64_t local_mentions = 0;
  uint64_t local_reviews = 0;
  web.GeneratePages(
      s, &scratch->page, [&](const Page& page, const PageTruth&) {
        ++rec->pages_scanned;
        rec->bytes_scanned += page.html.size();
        bool is_review = false;
        const std::vector<EntityId>& ids =
            ScanPage(matcher, detector, attr, page, scratch, &is_review);
        local_mentions += ids.size();
        if (is_review) ++local_reviews;
        scratch->host_ids.insert(scratch->host_ids.end(), ids.begin(),
                                 ids.end());
      });
  CollapseHostIds(&scratch->host_ids, &rec->entities);
  *mentions += local_mentions;
  *review_pages += local_reviews;
}

StatusOr<ShardSpec> ShardSpec::Parse(std::string_view spec) {
  const auto err = [&spec]() {
    return Status::InvalidArgument(
        "malformed shard spec '" + std::string(spec) +
        "'; expected i/n with 1 <= i <= n (e.g. --shard 3/8)");
  };
  const size_t slash = spec.find('/');
  if (slash == std::string_view::npos) return err();
  const auto index = ParseUint64(spec.substr(0, slash));
  const auto count = ParseUint64(spec.substr(slash + 1));
  if (!index.has_value() || !count.has_value()) return err();
  if (*count == 0 || *index == 0 || *index > *count ||
      *count > UINT32_MAX) {
    return err();
  }
  ShardSpec shard;
  shard.index = static_cast<uint32_t>(*index - 1);
  shard.count = static_cast<uint32_t>(*count);
  return shard;
}

StatusOr<ScanResult> ScanPipeline::Run() const { return Run(ShardSpec{}); }

StatusOr<ScanResult> ScanPipeline::Run(const ShardSpec& shard) const {
  const Attribute attr = web_.config().attr;
  if (GetAttributeSpec(attr).review_channel && detector_ == nullptr) {
    return Status::InvalidArgument(
        "review scan requires a ReviewDetector");
  }
  if (shard.count == 0 || shard.index >= shard.count) {
    return Status::InvalidArgument("shard index out of range");
  }

  Timer timer;
  const uint32_t num_hosts = web_.num_hosts();
  std::vector<HostRecord> records(num_hosts);

  const EntityMatcher matcher(web_.catalog(), attr);
  const ReviewDetector* detector = detector_;
  const SyntheticWeb& web = web_;

  std::atomic<uint64_t> mentions{0};
  std::atomic<uint64_t> review_pages{0};
  std::atomic<uint64_t> owned_hosts{0};
  std::atomic<size_t> max_scratch_bytes{0};
  LatencyHistogram& shard_seconds =
      MetricsRegistry::Global().GetHistogram("wsd.scan.shard_seconds");

  // Hosts are disjoint, so each iteration owns records[s] exclusively.
  // Lock discipline (docs/STATIC_ANALYSIS.md#lock-discipline): this
  // region holds no mutex by design — there is nothing for GUARDED_BY
  // to protect. Cross-thread safety rests on disjoint indices, relaxed
  // atomics for the merged counters, and the happens-before edges of
  // ParallelForShards' submit/wait (whose queue is annotated).
  // One ScanScratch per pool shard; counters stay shard-local and merge
  // once per pool shard. Only the shard wall time is recorded into the
  // registry from inside the parallel region. Hosts outside the corpus
  // slice are skipped before any page is rendered; their default-empty
  // records are dropped by PruneEmptyHosts below.
  ParallelForShards(pool_, 0, num_hosts, [&](size_t /*shard*/, size_t lo,
                                             size_t hi) {
    const ScopedTimer shard_timer(shard_seconds);
    ScanScratch scratch;
    uint64_t local_mentions = 0;
    uint64_t local_reviews = 0;
    uint64_t local_owned = 0;
    for (size_t s = lo; s < hi; ++s) {
      if (!shard.Owns(web.host(static_cast<SiteId>(s)))) continue;
      ++local_owned;
      ScanHostPages(web, static_cast<SiteId>(s), matcher, detector,
                    &scratch, &records[s], &local_mentions,
                    &local_reviews);
    }
    mentions.fetch_add(local_mentions, std::memory_order_relaxed);
    review_pages.fetch_add(local_reviews, std::memory_order_relaxed);
    owned_hosts.fetch_add(local_owned, std::memory_order_relaxed);
    const size_t footprint = scratch.MemoryFootprint();
    size_t seen = max_scratch_bytes.load(std::memory_order_relaxed);
    while (seen < footprint &&
           !max_scratch_bytes.compare_exchange_weak(
               seen, footprint, std::memory_order_relaxed)) {
    }
  });

  ScanResult result;
  result.table = HostEntityTable(std::move(records));
  result.stats.hosts_scanned = owned_hosts.load();
  for (size_t i = 0; i < result.table.num_hosts(); ++i) {
    result.stats.pages_scanned += result.table.host(i).pages_scanned;
    result.stats.bytes_scanned += result.table.host(i).bytes_scanned;
  }
  result.stats.entity_mentions = mentions.load();
  result.stats.review_pages = review_pages.load();
  result.table.PruneEmptyHosts();
  result.stats.wall_seconds = timer.ElapsedSeconds();
  MetricsRegistry::Global()
      .GetGauge("wsd.scan.scratch_bytes")
      .Set(static_cast<double>(max_scratch_bytes.load()));
  MirrorScanStats(result.stats);
  return result;
}

// WSD_FROZEN_BEGIN(scan_run_legacy)
StatusOr<ScanResult> ScanPipeline::RunLegacy() const {
  const Attribute attr = web_.config().attr;
  if (attr == Attribute::kReviews && detector_ == nullptr) {
    return Status::InvalidArgument(
        "review scan requires a ReviewDetector");
  }

  Timer timer;
  const uint32_t num_hosts = web_.num_hosts();
  std::vector<HostRecord> records(num_hosts);

  const EntityMatcher matcher(web_.catalog(), attr);
  const ReviewDetector* detector = detector_;
  const SyntheticWeb& web = web_;

  std::atomic<uint64_t> mentions{0};
  std::atomic<uint64_t> review_pages{0};
  LatencyHistogram& shard_seconds =
      MetricsRegistry::Global().GetHistogram("wsd.scan.shard_seconds");

  ParallelForShards(pool_, 0, num_hosts, [&](size_t /*shard*/, size_t lo,
                                             size_t hi) {
    const ScopedTimer shard_timer(shard_seconds);
    uint64_t local_mentions = 0;
    uint64_t local_reviews = 0;
    for (size_t s = lo; s < hi; ++s) {
      HostRecord& rec = records[s];
      rec.host = web.host(static_cast<SiteId>(s));
      // entity -> pages mentioning it on this host.
      std::map<EntityId, uint32_t> counts;
      web.GeneratePages(
          static_cast<SiteId>(s),
          [&](const Page& page, const PageTruth& /*truth*/) {
            ++rec.pages_scanned;
            rec.bytes_scanned += page.html.size();
            std::vector<EntityId> ids;
            if (attr == Attribute::kHomepage) {
              // Pre-kernel anchor path: materialize every anchor (href
              // and link text) before matching.
              for (const html::AnchorLink& anchor :
                   html::ExtractAnchors(page.html)) {
                if (anchor.href.empty()) continue;
                const std::string canonical =
                    CanonicalizeHomepage(anchor.href);
                if (canonical.empty()) continue;
                const EntityId id =
                    web.catalog().FindByHomepage(canonical);
                if (id != kInvalidEntityId) ids.push_back(id);
              }
              std::sort(ids.begin(), ids.end());
              ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
            } else {
              const std::string text =
                  html::ExtractVisibleTextLegacy(page.html);
              if (attr == Attribute::kReviews) {
                ids = matcher.MatchPage(text);
                if (!ids.empty() && !detector->IsReview(text)) {
                  ids.clear();
                }
                if (!ids.empty()) ++local_reviews;
              } else {
                ids = matcher.MatchPage(text);
              }
            }
            local_mentions += ids.size();
            for (EntityId id : ids) ++counts[id];
          });
      rec.entities.reserve(counts.size());
      for (const auto& [id, pages] : counts) {
        rec.entities.push_back({id, pages});
      }
    }
    mentions.fetch_add(local_mentions, std::memory_order_relaxed);
    review_pages.fetch_add(local_reviews, std::memory_order_relaxed);
  });

  ScanResult result;
  result.table = HostEntityTable(std::move(records));
  result.stats.hosts_scanned = num_hosts;
  for (size_t i = 0; i < result.table.num_hosts(); ++i) {
    result.stats.pages_scanned += result.table.host(i).pages_scanned;
    result.stats.bytes_scanned += result.table.host(i).bytes_scanned;
  }
  result.stats.entity_mentions = mentions.load();
  result.stats.review_pages = review_pages.load();
  result.table.PruneEmptyHosts();
  result.stats.wall_seconds = timer.ElapsedSeconds();
  MirrorScanStats(result.stats);
  return result;
}
// WSD_FROZEN_END(scan_run_legacy)

StatusOr<ScanResult> ScanCacheFile(const std::string& path,
                                   const DomainCatalog& catalog,
                                   Attribute attr,
                                   const ReviewDetector* detector) {
  WSD_RETURN_IF_ERROR(CheckAttributeApplies(attr, catalog.domain()));
  if (GetAttributeSpec(attr).review_channel && detector == nullptr) {
    return Status::InvalidArgument(
        "review scan requires a ReviewDetector");
  }
  Timer timer;
  const EntityMatcher matcher(catalog, attr);

  // host name -> record index. Probed with a string_view of the reused
  // host buffer; a std::string key is only materialized for new hosts.
  std::unordered_map<std::string, size_t, StringHash, std::equal_to<>>
      host_index;
  std::vector<HostRecord> records;
  std::vector<std::vector<EntityId>> host_ids;  // per-host flat id stream
  ScanScratch scratch;
  std::string host;  // reused normalized-host buffer
  uint64_t mentions = 0, review_pages = 0, skipped_urls = 0;

  const Status read_status = ReadWebCache(path, [&](const Page& page) {
    if (!ParseHostInto(page.url, &host)) {
      ++skipped_urls;
      return;
    }
    size_t idx;
    const auto it = host_index.find(std::string_view(host));
    if (it == host_index.end()) {
      idx = records.size();
      host_index.emplace(host, idx);
      records.emplace_back();
      records.back().host = host;
      host_ids.emplace_back();
    } else {
      idx = it->second;
    }
    HostRecord& rec = records[idx];
    ++rec.pages_scanned;
    rec.bytes_scanned += page.html.size();

    bool is_review = false;
    const std::vector<EntityId>& ids =
        ScanPage(matcher, detector, attr, page, &scratch, &is_review);
    mentions += ids.size();
    if (is_review) ++review_pages;
    host_ids[idx].insert(host_ids[idx].end(), ids.begin(), ids.end());
  });
  WSD_RETURN_IF_ERROR(read_status);

  ScanResult result;
  for (size_t i = 0; i < records.size(); ++i) {
    CollapseHostIds(&host_ids[i], &records[i].entities);
  }
  result.table = HostEntityTable(std::move(records));
  result.stats.hosts_scanned = result.table.num_hosts();
  for (size_t i = 0; i < result.table.num_hosts(); ++i) {
    result.stats.pages_scanned += result.table.host(i).pages_scanned;
    result.stats.bytes_scanned += result.table.host(i).bytes_scanned;
  }
  result.stats.entity_mentions = mentions;
  result.stats.review_pages = review_pages;
  result.stats.skipped_urls = skipped_urls;
  result.table.PruneEmptyHosts();
  result.stats.wall_seconds = timer.ElapsedSeconds();
  MetricsRegistry::Global()
      .GetGauge("wsd.scan.scratch_bytes")
      .Set(static_cast<double>(scratch.MemoryFootprint()));
  MirrorScanStats(result.stats);
  return result;
}

}  // namespace wsd
