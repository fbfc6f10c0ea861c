/// \file scan_cache.h
/// Shared ScanResult cache for the analysis server. `wsdd` handles many
/// concurrent requests over a small set of (domain, attr, seed, scale)
/// corpora; this cache admits one entry per key, resolves misses through
/// the normal Study chain (in-memory memo -> on-disk ArtifactStore ->
/// live scan), and evicts least-recently-used entries once a byte budget
/// is exceeded. It is a MemoCache (serve/memo_cache.h): concurrent misses
/// on the same key run one scan, and every caller that waited for it
/// shares its result.
///
/// Each entry also memoizes the three analyses `wsdd` derives from its
/// scan: the k-coverage curve up to kMaxK, the greedy set cover and the
/// Table 2 row. Each is computed on its first request, so a response-cache
/// miss on a resident scan only renders. The memo goes with its entry,
/// and its bytes count toward the same budget.
///
/// Unlike a long-lived Study (whose memo pins every result it ever
/// produced), the cache builds an *ephemeral* Study per miss and keeps
/// only the shared_ptr<const ScanResult>, so LRU eviction genuinely
/// releases memory.

#ifndef WSD_SERVE_SCAN_CACHE_H_
#define WSD_SERVE_SCAN_CACHE_H_

#include <cstdint>
#include <memory>
#include <tuple>

#include "core/connectivity.h"
#include "core/coverage.h"
#include "core/set_cover.h"
#include "core/study.h"
#include "entity/domains.h"
#include "extract/scan_pipeline.h"
#include "serve/memo_cache.h"
#include "util/statusor.h"

namespace wsd {

/// Approximate resident bytes of a scan result (host strings + entity
/// vectors + fixed struct overhead). Used for the cache byte budget;
/// exact malloc accounting is not the point — relative sizes are.
size_t ApproxScanResultBytes(const ScanResult& result);

/// The analyses `wsdd` serves from one scan, memoized with its cache entry.
struct ScanAnalyses {
  ComputeOnce<CoverageCurve> k_coverage;  // k = 1..ScanHandleCache::kMaxK
  ComputeOnce<SetCoverCurve> set_cover;
  ComputeOnce<GraphMetricsRow> graph;
};

/// LRU cache of shared scan results keyed by (domain, attr, seed,
/// scale). Thread-safe. Misses run a real scan via an ephemeral Study
/// configured from `base` options with the key's seed/scale overrides,
/// so artifact_dir / num_entities / legacy_scan are honored.
class ScanHandleCache {
 public:
  struct Key {
    Domain domain = Domain::kBooks;
    Attribute attr = Attribute::kIsbn;
    uint64_t seed = 42;
    double scale = 1.0;

    bool operator<(const Key& o) const {
      return std::tie(domain, attr, seed, scale) <
             std::tie(o.domain, o.attr, o.seed, o.scale);
    }
  };

  /// The largest k /spread answers: the memoized k-coverage curve has
  /// this many rows, and its first K rows are ComputeKCoverage's at K
  /// because an entity's count saturates only above K.
  static constexpr uint32_t kMaxK = 32;

  using Stats = MemoCacheStats;

  /// `base` supplies num_entities / threads / artifact_dir /
  /// legacy_scan; seed and scale come from each key. `max_bytes` is the
  /// eviction threshold; the most recently used entry is never evicted,
  /// so even a zero budget keeps exactly one result resident.
  ///
  /// An entry larger than the whole budget is still admitted: the server
  /// has to hold the result in memory to answer the request anyway, so
  /// rejecting it would only force every future hit on that key to
  /// rescan while saving nothing on the peak. Such entries ride the
  /// MRU-never-evicted rule — they are evicted the moment any other key
  /// becomes MRU — and each admission is flagged via Stats::
  /// oversized_admits and the wsd.serve.scan_cache.oversized_admits
  /// counter so a misconfigured budget is observable.
  ScanHandleCache(const StudyOptions& base, size_t max_bytes);

  ScanHandleCache(const ScanHandleCache&) = delete;
  ScanHandleCache& operator=(const ScanHandleCache&) = delete;

  /// The cached (or freshly scanned) result for `key`. Blocks if another
  /// thread is already scanning the same key, and shares its result. A
  /// failed scan is returned to the thread that ran it and not cached; a
  /// thread that waited for it scans again.
  [[nodiscard]] StatusOr<std::shared_ptr<const ScanResult>> Get(
      const Key& key);

  /// The analyses of `key`'s scan (fetched as Get does), each computed on
  /// its first request and kept in the entry's memo until the entry is
  /// evicted: k-coverage for k = 1..kMaxK at DefaultCoverageTValues, the
  /// greedy set cover at the same t values, and the Table 2 row. A failure
  /// is returned and not kept. Each lookup counts on
  /// wsd.serve.analysis_memo.misses when it ran the computation, on
  /// .hits otherwise.
  [[nodiscard]] StatusOr<std::shared_ptr<const CoverageCurve>> KCoverage(
      const Key& key);
  [[nodiscard]] StatusOr<std::shared_ptr<const SetCoverCurve>> SetCover(
      const Key& key);
  [[nodiscard]] StatusOr<std::shared_ptr<const GraphMetricsRow>> GraphMetrics(
      const Key& key);

  /// Point-in-time counters (also mirrored into wsd.serve.scan_cache.*
  /// registry metrics).
  Stats GetStats() const { return memo_.GetStats(); }

  size_t max_bytes() const { return memo_.max_bytes(); }

 private:
  /// A scan and its memo. The memo sits behind a pointer because a
  /// ComputeOnce cannot move.
  struct Entry {
    std::shared_ptr<const ScanResult> result;
    std::unique_ptr<ScanAnalyses> analyses;
  };

  /// A fresh entry's bytes: the scan and its empty memo. Each analysis
  /// is charged as it is computed.
  static size_t EntryBytes(const Key& key, const Entry& entry);

  /// The entry for `key`, scanning on a miss as Get documents. The pointer
  /// keeps the scan and its memo alive past an eviction.
  [[nodiscard]] StatusOr<std::shared_ptr<const Entry>> Resolve(
      const Key& key);

  /// `slot` of `key`'s memo, computed by `compute(table, entities)` on the
  /// first request; a computed result's bytes are charged to the entry.
  template <typename T, typename Compute>
  [[nodiscard]] StatusOr<std::shared_ptr<const T>> Analyze(
      const Key& key, ComputeOnce<T> ScanAnalyses::*slot,
      const Compute& compute);

  const StudyOptions base_;
  MemoCache<Key, Entry> memo_;
};

}  // namespace wsd

#endif  // WSD_SERVE_SCAN_CACHE_H_
