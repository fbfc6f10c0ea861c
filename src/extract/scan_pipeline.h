#ifndef WSD_EXTRACT_SCAN_PIPELINE_H_
#define WSD_EXTRACT_SCAN_PIPELINE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "corpus/web_cache.h"
#include "extract/host_table.h"
#include "extract/matcher.h"
#include "extract/review_detector.h"
#include "util/hash.h"
#include "util/statusor.h"
#include "util/thread_pool.h"

namespace wsd {

/// One slice of a hash-partitioned corpus: the hosts with
/// Fnv1a64(host) % count == index. Host names are the partition key
/// because they are stable across processes and machines (site ids are
/// an artifact of one web's construction order), so independent
/// `wsdctl scan --shard i/n` runs cover the corpus disjointly and
/// exhaustively, and `wsdctl merge` can re-verify ownership from the
/// names alone. The default spec is the whole corpus.
struct ShardSpec {
  uint32_t index = 0;  // 0-based
  uint32_t count = 1;

  bool whole() const { return count <= 1; }

  /// True when this shard is responsible for `host`.
  bool Owns(std::string_view host) const {
    return count <= 1 || Fnv1a64(host) % count == index;
  }

  /// Parses the 1-based CLI form "i/n" (i in [1, n], n >= 1), e.g.
  /// "3/8" is slice index 2 of 8. "0/4", "5/4" and non-numeric specs
  /// are InvalidArgument.
  [[nodiscard]] static StatusOr<ShardSpec> Parse(std::string_view spec);
};

/// Scan statistics, reported alongside the table. Every field is a view
/// over the global MetricsRegistry's `wsd.scan.*` counters: when a scan
/// completes, its shard-locally accumulated totals are merged once into
/// the registry, so the counter deltas across a scan equal the returned
/// stats exactly (asserted in scan_pipeline_test). See docs/METRICS.md
/// for the metric names.
struct ScanStats {
  uint64_t hosts_scanned = 0;
  uint64_t pages_scanned = 0;
  uint64_t bytes_scanned = 0;
  uint64_t entity_mentions = 0;   // matched (page, entity) pairs
  uint64_t review_pages = 0;      // review scans only
  uint64_t skipped_urls = 0;      // cache scans: unparseable page URLs
  double wall_seconds = 0.0;
};

struct ScanResult {
  HostEntityTable table;
  ScanStats stats;
};

/// Per-shard reusable buffers for the streaming scan kernel. One
/// ScanScratch lives for a whole shard; every buffer's capacity climbs to
/// its watermark within the first few hosts and is reused afterwards, so
/// the per-page inner loop performs no heap allocation in steady state
/// (asserted by the allocation-regression test in scan_pipeline_test).
struct ScanScratch {
  Page page;                 // rendered page (url + html)
  std::string visible_text;  // extracted page text
  // Classification tokens: views into visible_text, valid only until the
  // next page.
  std::vector<std::string_view> class_tokens;
  MatchScratch match;             // extractor + matcher buffers
  std::vector<EntityId> host_ids;  // per-host page-deduped entity ids

  /// Bytes currently held across all buffers (capacities, not sizes);
  /// exported as the `wsd.scan.scratch_bytes` gauge.
  size_t MemoryFootprint() const;
};

/// Scans every page of host `s` with the zero-allocation kernel: renders
/// into scratch->page, extracts/matches via the scratch buffers, and
/// leaves the host's sorted (entity, pages) rows in rec->entities
/// (sort-and-collapse of scratch->host_ids). All rec fields are reset
/// first, with capacity reuse. `mentions` and `review_pages` are
/// incremented by the host's totals. `detector` is required for
/// Attribute::kReviews scans and ignored otherwise.
void ScanHostPages(const SyntheticWeb& web, SiteId s,
                   const EntityMatcher& matcher,
                   const ReviewDetector* detector, ScanScratch* scratch,
                   HostRecord* rec, uint64_t* mentions,
                   uint64_t* review_pages);

/// The paper's cache scan (§3.1): stream every page of every host through
/// the attribute extractor and aggregate matches per host. Hosts are
/// processed in parallel shards; rendering is deterministic per host, so
/// the result is independent of thread count.
///
/// For Attribute::kReviews a detector must be supplied; a page then
/// counts only when it (a) mentions the entity's phone and (b) classifies
/// as review content — exactly the paper's two-step restaurant-review
/// methodology.
class ScanPipeline {
 public:
  /// `web` and `pool` must outlive the pipeline. `detector` is required
  /// for review scans and ignored otherwise.
  ScanPipeline(const SyntheticWeb& web, ThreadPool& pool,
               const ReviewDetector* detector = nullptr)
      : web_(web), pool_(pool), detector_(detector) {}

  /// Runs the scan with the streaming kernel (one ScanScratch per shard,
  /// zero steady-state allocation per page). Fails if a review scan
  /// lacks a detector.
  [[nodiscard]] StatusOr<ScanResult> Run() const;

  /// Runs the scan over one hash-partitioned corpus slice: hosts the
  /// spec does not own are skipped entirely (no pages rendered) and
  /// contribute nothing to the table or stats, so the per-shard results
  /// of a complete {1..n} sweep sum/merge to exactly the monolithic
  /// scan (see store/merge.h). Run() is Run(ShardSpec{}).
  [[nodiscard]] StatusOr<ScanResult> Run(const ShardSpec& shard) const;

  /// The pre-kernel implementation: value-returning extractors, per-page
  /// string/vector materialization and a per-host std::map. Kept as the
  /// ablation baseline for bench_micro_scan and as the oracle for the
  /// kernel equivalence tests — both paths must produce bit-identical
  /// tables and stats.
  [[nodiscard]] StatusOr<ScanResult> RunLegacy() const;

 private:
  const SyntheticWeb& web_;
  ThreadPool& pool_;
  const ReviewDetector* detector_;
};

/// Scans a persisted page cache (written by WebCacheWriter / `wsdctl
/// gen-cache`) instead of a live synthetic web. Pages are grouped into
/// hosts by the normalized host of their URL; pages with unparseable
/// URLs are counted in stats and skipped. Single-threaded streaming (the
/// file is the bottleneck) on the same ScanScratch kernel as
/// ScanPipeline::Run. A detector is required for review scans, and a
/// channel that does not apply to the catalog's domain is refused with
/// InvalidArgument.
[[nodiscard]] StatusOr<ScanResult> ScanCacheFile(const std::string& path,
                                   const DomainCatalog& catalog,
                                   Attribute attr,
                                   const ReviewDetector* detector = nullptr);

}  // namespace wsd

#endif  // WSD_EXTRACT_SCAN_PIPELINE_H_
