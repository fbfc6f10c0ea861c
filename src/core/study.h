#ifndef WSD_CORE_STUDY_H_
#define WSD_CORE_STUDY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/connectivity.h"
#include "core/coverage.h"
#include "core/demand_analysis.h"
#include "core/review_coverage.h"
#include "core/set_cover.h"
#include "corpus/web_cache.h"
#include "extract/review_detector.h"
#include "extract/scan_pipeline.h"
#include "store/artifact_store.h"
#include "traffic/demand.h"
#include "traffic/review_model.h"
#include "util/flags.h"
#include "util/statusor.h"
#include "util/thread_pool.h"

namespace wsd {

/// Configuration shared by every experiment of the study.
struct StudyOptions {
  /// Entities per domain catalog (the paper used millions; analyses are
  /// scale-stable from ~10^4 up — see tests).
  uint32_t num_entities = 20000;
  uint64_t seed = 42;
  uint32_t threads = 0;  // 0 = hardware concurrency
  /// Multiplier on num_entities, num_sites and traffic populations. Set
  /// WSD_SCALE to raise (or shrink) every experiment uniformly.
  double scale = 1.0;
  /// Run scans through ScanPipeline::RunLegacy (the pre-kernel path).
  /// Escape hatch / ablation switch; set WSD_LEGACY_SCAN=1.
  bool legacy_scan = false;
  /// On-disk scan artifact cache (see src/store). Empty disables it:
  /// scans are then memoized per Study but never persisted. Set via
  /// `--artifacts=DIR` or WSD_ARTIFACT_DIR.
  std::string artifact_dir;

  /// Reads WSD_SCALE / WSD_ENTITIES / WSD_SEED / WSD_THREADS /
  /// WSD_LEGACY_SCAN / WSD_ARTIFACT_DIR from the environment on top of
  /// the defaults. A malformed variable is logged and ignored.
  static StudyOptions FromEnv();

  /// FromEnv(), then the --entities --seed --scale --threads --artifacts
  /// flags on top: the one parser of the study flags that wsdctl, wsdd
  /// and the benches share. A malformed flag is InvalidArgument naming
  /// the flag and its value: a count that is not an integer up to
  /// UINT32_MAX, a seed that is not a uint64, or a scale that is not a
  /// finite number > 0.
  [[nodiscard]] static StatusOr<StudyOptions> FromFlags(
      const FlagParser& flags);

  /// num_entities with scale applied.
  uint32_t ScaledEntities() const;
};

/// Top-level driver reproducing the paper's experiments. Each Run*
/// method is self-contained: it builds the synthetic web (or traffic
/// logs), runs the real extraction/estimation pipeline, and computes the
/// published analysis. All results are deterministic in
/// (options.seed, options.scale).
class Study {
 public:
  explicit Study(const StudyOptions& options);

  const StudyOptions& options() const { return options_; }
  ThreadPool& pool() { return *pool_; }

  /// A shared, immutable scan result for one (domain, attribute). Cheap
  /// to copy (shared_ptr inside); every analysis overload below reads
  /// through it, so one scan feeds arbitrarily many analyses — the
  /// paper's scan-once / analyze-many shape.
  class ScanHandle {
   public:
    Domain domain() const { return domain_; }
    Attribute attr() const { return attr_; }
    const ScanResult& result() const { return *result_; }
    const HostEntityTable& table() const { return result_->table; }
    const ScanStats& stats() const { return result_->stats; }
    /// The underlying shared result; lets callers (e.g. the serve-layer
    /// scan cache) keep the result alive past the Study that produced it.
    std::shared_ptr<const ScanResult> shared_result() const { return result_; }

   private:
    friend class Study;
    ScanHandle(Domain domain, Attribute attr,
               std::shared_ptr<const ScanResult> result)
        : domain_(domain), attr_(attr), result_(std::move(result)) {}

    Domain domain_;
    Attribute attr_;
    std::shared_ptr<const ScanResult> result_;
  };

  /// §3.1 cache scan for one (domain, attribute), served scan-once: an
  /// in-memory memo makes repeat calls free within a Study, and when
  /// options().artifact_dir is set the result round-trips through the
  /// on-disk ArtifactStore (hit: no scan at all; corrupt or stale
  /// artifact: logged, counted, and transparently rescanned). A pair the
  /// attribute registry does not allow is refused with InvalidArgument
  /// before the store is consulted.
  [[nodiscard]] StatusOr<ScanHandle> Scan(Domain domain, Attribute attr);

  /// §3.1 cache scan for one (domain, attribute). Equivalent to
  /// Scan().result() by copy; kept for callers that want to own the
  /// table.
  [[nodiscard]] StatusOr<ScanResult> RunScan(Domain domain, Attribute attr);

  /// Scans one hash-partitioned corpus slice (see ShardSpec), uncached:
  /// the memo and the artifact store describe whole-corpus scans, so a
  /// shard result deliberately bypasses both — its snapshot lives
  /// wherever the caller writes it (`wsdctl scan --shard --out`) and
  /// `wsdctl merge` recombines the slices. Always runs the streaming
  /// kernel; sharding the frozen legacy oracle is unsupported and a
  /// non-whole spec with options().legacy_scan set is InvalidArgument.
  [[nodiscard]] StatusOr<ScanResult> RunShardScan(Domain domain,
                                                  Attribute attr,
                                                  const ShardSpec& shard);

  /// Figures 1-3: scan + k-coverage curves. Like every analysis below,
  /// this reads through a ScanHandle — obtain one with Scan(domain, attr)
  /// and fan it out to as many analyses as needed (the duplicated
  /// (domain, attr) convenience overloads were removed; scan-once /
  /// analyze-many is the only shape).
  struct SpreadResult {
    CoverageCurve curve;
    ScanStats stats;
  };
  [[nodiscard]] StatusOr<SpreadResult> RunSpread(const ScanHandle& scan,
                                   uint32_t max_k = 10);

  /// Figure 4: restaurant review spread, site-level (a) and page-level
  /// (b). `scan` must be a (kRestaurants, kReviews) handle.
  struct ReviewSpreadResult {
    CoverageCurve site_curve;
    PageCoverageCurve page_curve;
    ScanStats stats;
  };
  [[nodiscard]] StatusOr<ReviewSpreadResult> RunReviewSpread(
      const ScanHandle& scan, uint32_t max_k = 10);

  /// Figure 5: greedy set cover vs. size ordering.
  [[nodiscard]] StatusOr<SetCoverCurve> RunSetCover(const ScanHandle& scan);

  /// Table 2 row for one graph.
  [[nodiscard]] StatusOr<GraphMetricsRow> RunGraphMetrics(const ScanHandle& scan);

  /// Figure 9 sweep for one graph.
  [[nodiscard]] StatusOr<std::vector<RobustnessPoint>> RunRobustness(
      const ScanHandle& scan, uint32_t max_removed = 10);

  /// §4 value-of-tail-extraction study for one traffic site: generate
  /// logs, estimate demand from them, and run the Fig 6/7/8 analyses.
  struct ValueStudyResult {
    TrafficSite site = TrafficSite::kYelp;
    DemandTable demand;
    std::vector<uint32_t> reviews;
    std::vector<ReviewBinStat> bins;              // Figs 7-8
    std::vector<DemandCurvePoint> search_curve;   // Fig 6(a)
    std::vector<DemandCurvePoint> browse_curve;   // Fig 6(c)
    double head20_search = 0.0;  // top-20% demand share
    double head20_browse = 0.0;
  };
  [[nodiscard]] StatusOr<ValueStudyResult> RunValueStudy(TrafficSite site);

  /// Builds the synthetic web used by the scans (exposed for examples
  /// and tests that need the ground truth).
  [[nodiscard]] StatusOr<SyntheticWeb> BuildWeb(Domain domain, Attribute attr) const;

 private:
  /// The actual scan (no caching): builds the web and runs the pipeline.
  [[nodiscard]] StatusOr<ScanResult> RunScanUncached(Domain domain,
                                                     Attribute attr);
  ArtifactKey KeyFor(Domain domain, Attribute attr) const;

  StudyOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  std::optional<ReviewDetector> detector_;
  std::optional<ArtifactStore> store_;
  /// Scan-once memo: one shared result per (domain, attr) for the
  /// Study's lifetime.
  std::map<std::pair<int, int>, std::shared_ptr<const ScanResult>>
      scan_memo_;
};

}  // namespace wsd

#endif  // WSD_CORE_STUDY_H_
