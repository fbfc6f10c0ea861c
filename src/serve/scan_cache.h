/// \file scan_cache.h
/// Shared ScanResult cache for the analysis server. `wsdd` handles many
/// concurrent requests over a small set of (domain, attr, seed, scale)
/// corpora; this cache admits one entry per key, resolves misses through
/// the normal Study chain (in-memory memo -> on-disk ArtifactStore ->
/// live scan), and evicts least-recently-used entries once a byte budget
/// is exceeded. Concurrent misses on the same key are deduplicated: the
/// first caller scans, the rest block on a condition variable and share
/// the result.
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
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <tuple>

#include "core/connectivity.h"
#include "core/coverage.h"
#include "core/set_cover.h"
#include "core/study.h"
#include "entity/domains.h"
#include "extract/scan_pipeline.h"
#include "util/mutex.h"
#include "util/statusor.h"

namespace wsd {

/// Approximate resident bytes of a scan result (host strings + entity
/// vectors + fixed struct overhead). Used for the cache byte budget;
/// exact malloc accounting is not the point — relative sizes are.
size_t ApproxScanResultBytes(const ScanResult& result);

/// Counts one memoized-analysis lookup: on wsd.serve.analysis_memo.misses
/// when it ran the computation, on .hits otherwise.
void CountAnalysisMemo(bool computed);

/// A result computed once, on its first request. The first caller of Get
/// runs `compute`; callers that arrive while it runs wait for it and share
/// its result, as ScanHandleCache does for scans. A failure goes to the
/// caller that computed it and is not kept, so a waiter then computes
/// again. Every Get counts through CountAnalysisMemo. Thread-safe.
template <typename T>
class ComputeOnce {
 public:
  ComputeOnce() = default;

  ComputeOnce(const ComputeOnce&) = delete;
  ComputeOnce& operator=(const ComputeOnce&) = delete;

  /// The result, computed by `compute()` (a StatusOr<T>) when no caller
  /// has computed it yet.
  template <typename Compute>
  [[nodiscard]] StatusOr<std::shared_ptr<const T>> Get(
      const Compute& compute) {
    {
      MutexLock lock(mu_);
      while (value_ == nullptr && computing_) done_.Wait(mu_);
      CountAnalysisMemo(value_ == nullptr);
      if (value_ != nullptr) return value_;
      computing_ = true;
    }
    StatusOr<T> computed = compute();
    MutexLock lock(mu_);
    computing_ = false;
    done_.NotifyAll();
    if (!computed.ok()) return computed.status();
    value_ = std::make_shared<const T>(std::move(computed).value());
    return value_;
  }

 private:
  Mutex mu_;
  CondVar done_;
  bool computing_ GUARDED_BY(mu_) = false;
  std::shared_ptr<const T> value_ GUARDED_BY(mu_);
};

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

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t oversized_admits = 0;
    size_t entries = 0;
    size_t bytes = 0;
  };

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
  /// thread is already scanning the same key. Scan failures are returned
  /// to every waiter and not cached.
  [[nodiscard]] StatusOr<std::shared_ptr<const ScanResult>> Get(
      const Key& key);

  /// The analyses of `key`'s scan (fetched as Get does), each computed on
  /// its first request and kept in the entry's memo until the entry is
  /// evicted: k-coverage for k = 1..kMaxK at DefaultCoverageTValues, the
  /// greedy set cover at the same t values, and the Table 2 row. A failure
  /// is returned and not kept.
  [[nodiscard]] StatusOr<std::shared_ptr<const CoverageCurve>> KCoverage(
      const Key& key);
  [[nodiscard]] StatusOr<std::shared_ptr<const SetCoverCurve>> SetCover(
      const Key& key);
  [[nodiscard]] StatusOr<std::shared_ptr<const GraphMetricsRow>> GraphMetrics(
      const Key& key);

  /// Point-in-time counters (also mirrored into wsd.serve.scan_cache.*
  /// registry metrics).
  Stats GetStats() const;

  size_t max_bytes() const { return max_bytes_; }

  /// Test-only: `hook` runs with mu_ held immediately after a scanner
  /// admits its entry, before waiters are notified. Tests use it to
  /// deterministically evict the fresh entry (via EvictAllForTest) and
  /// pin the waiter wake-and-rescan path. Never set in production.
  void SetPostAdmitHookForTest(std::function<void()> hook);

  /// Test-only: number of keys some thread is currently scanning.
  size_t InflightCountForTest() const;

  /// Test-only: evicts every resident entry, MRU included. Must only be
  /// called from a post-admit hook, which already runs under mu_ —
  /// analysis is off because the lock is held indirectly by the caller.
  void EvictAllForTest() NO_THREAD_SAFETY_ANALYSIS;

 private:
  struct Entry {
    std::shared_ptr<const ScanResult> result;
    std::shared_ptr<ScanAnalyses> analyses;
    size_t bytes = 0;  // the scan, the memo and every result it holds
    uint64_t last_used = 0;  // LRU tick
  };

  /// The entry for `key`, scanning on a miss as Get documents. The copy
  /// keeps the scan and its memo alive past an eviction.
  [[nodiscard]] StatusOr<Entry> Resolve(const Key& key);

  /// `slot` of `key`'s memo, computed by `compute(table, entities)` on the
  /// first request; a computed result's bytes go to AddAnalysisBytes.
  template <typename T, typename Compute>
  [[nodiscard]] StatusOr<std::shared_ptr<const T>> Analyze(
      const Key& key, ComputeOnce<T> ScanAnalyses::*slot,
      const Compute& compute);

  /// Charges `bytes` to `key`'s entry if it still holds `analyses` (it
  /// may have been evicted while they were computed), then evicts over
  /// budget.
  void AddAnalysisBytes(const Key& key, const ScanAnalyses* analyses,
                        size_t bytes);

  /// Drops LRU entries until total_bytes_ <= max_bytes_.
  void EvictLocked() REQUIRES(mu_);

  /// Blocks until no other thread is scanning `key`. Invariant on
  /// return: either entries_ holds `key` (the scanner succeeded and the
  /// entry has not been evicted yet), or `key` is neither cached nor in
  /// flight and the caller must take over the scan. A wake does NOT
  /// mean the entry is present: the scan may have failed, or the entry
  /// may have been admitted and already evicted by a later key becoming
  /// MRU (certain under a tiny byte budget) — hence the re-check loop.
  void WaitWhileInflight(const Key& key) REQUIRES(mu_);

  const StudyOptions base_;
  const size_t max_bytes_;

  mutable Mutex mu_;
  CondVar inflight_cv_;
  std::map<Key, Entry> entries_ GUARDED_BY(mu_);
  /// Keys some thread is currently scanning.
  std::set<Key> inflight_ GUARDED_BY(mu_);
  uint64_t tick_ GUARDED_BY(mu_) = 0;
  size_t total_bytes_ GUARDED_BY(mu_) = 0;
  uint64_t hits_ GUARDED_BY(mu_) = 0;
  uint64_t misses_ GUARDED_BY(mu_) = 0;
  uint64_t evictions_ GUARDED_BY(mu_) = 0;
  uint64_t oversized_admits_ GUARDED_BY(mu_) = 0;
  std::function<void()> post_admit_hook_ GUARDED_BY(mu_);
};

}  // namespace wsd

#endif  // WSD_SERVE_SCAN_CACHE_H_
