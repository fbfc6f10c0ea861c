#include "core/study.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "extract/attribute_registry.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace wsd {

namespace {

double EnvDouble(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  auto parsed = ParseDouble(raw);
  if (!parsed.has_value()) {
    WSD_LOG(kWarning) << "ignoring unparseable " << name << "=" << raw;
    return fallback;
  }
  return *parsed;
}

uint64_t EnvUint(const char* name, uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  auto parsed = ParseUint64(raw);
  if (!parsed.has_value()) {
    WSD_LOG(kWarning) << "ignoring unparseable " << name << "=" << raw;
    return fallback;
  }
  return *parsed;
}

}  // namespace

StudyOptions StudyOptions::FromEnv() {
  StudyOptions options;
  options.scale = EnvDouble("WSD_SCALE", options.scale);
  options.num_entities = static_cast<uint32_t>(
      EnvUint("WSD_ENTITIES", options.num_entities));
  options.seed = EnvUint("WSD_SEED", options.seed);
  options.threads =
      static_cast<uint32_t>(EnvUint("WSD_THREADS", options.threads));
  options.legacy_scan = EnvUint("WSD_LEGACY_SCAN", 0) != 0;
  if (const char* dir = std::getenv("WSD_ARTIFACT_DIR"); dir != nullptr) {
    options.artifact_dir = dir;
  }
  if (options.scale <= 0.0) {
    WSD_LOG(kWarning) << "WSD_SCALE must be positive; using 1.0";
    options.scale = 1.0;
  }
  return options;
}

StatusOr<StudyOptions> StudyOptions::FromFlags(const FlagParser& flags) {
  StudyOptions options = FromEnv();
  for (auto [flag, field] : {std::pair{"entities", &options.num_entities},
                             std::pair{"threads", &options.threads}}) {
    const auto n = flags.GetUintInRange(flag, *field, 0, UINT32_MAX);
    if (!n.ok()) return n.status();
    *field = static_cast<uint32_t>(*n);
  }
  const auto seed = flags.GetUintInRange("seed", options.seed, 0, UINT64_MAX);
  if (!seed.ok()) return seed.status();
  options.seed = *seed;
  if (auto v = flags.Get("scale")) {
    const auto f = ParseDouble(*v);
    if (!f.has_value() || !std::isfinite(*f) || *f <= 0) {
      return Status::InvalidArgument(StrFormat(
          "invalid --scale value '%s' (want a finite number > 0)",
          v->c_str()));
    }
    options.scale = *f;
  }
  if (auto v = flags.Get("artifacts")) options.artifact_dir = *v;
  return options;
}

uint32_t StudyOptions::ScaledEntities() const {
  const double scaled = static_cast<double>(num_entities) * scale;
  return std::max<uint32_t>(64, static_cast<uint32_t>(scaled));
}

Study::Study(const StudyOptions& options)
    : options_(options),
      pool_(std::make_unique<ThreadPool>(options.threads)) {
  if (!options_.artifact_dir.empty()) {
    store_.emplace(options_.artifact_dir);
  }
}

StatusOr<SyntheticWeb> Study::BuildWeb(Domain domain, Attribute attr) const {
  SyntheticWeb::Config config;
  config.domain = domain;
  config.attr = attr;
  config.num_entities = options_.ScaledEntities();
  config.seed = options_.seed;
  SpreadParams params = DefaultSpreadParams(domain, attr);
  params.num_sites = std::max<uint32_t>(
      64, static_cast<uint32_t>(static_cast<double>(params.num_sites) *
                                options_.scale));
  config.spread = params;
  return SyntheticWeb::Create(config);
}

StatusOr<ScanResult> Study::RunScanUncached(Domain domain, Attribute attr) {
  const AttributeSpec& spec = GetAttributeSpec(attr);
  if (options_.legacy_scan && spec.min_snapshot_version > 2) {
    // The byte-frozen legacy oracle predates post-v2 channels and cannot
    // see explicit markup; refuse rather than silently scan nothing.
    return Status::InvalidArgument(
        std::string(AttributeName(attr)) +
        " scans run the kernel path only; unset WSD_LEGACY_SCAN");
  }
  auto web = BuildWeb(domain, attr);
  if (!web.ok()) return web.status();

  const ReviewDetector* detector = nullptr;
  if (spec.review_channel) {
    if (!detector_.has_value()) {
      auto built = ReviewDetector::CreateDefault(options_.seed ^ 0xdecafULL);
      if (!built.ok()) return built.status();
      detector_.emplace(std::move(built).value());
    }
    detector = &*detector_;
  }
  const ScanPipeline pipeline(*web, *pool_, detector);
  return options_.legacy_scan ? pipeline.RunLegacy() : pipeline.Run();
}

ArtifactKey Study::KeyFor(Domain domain, Attribute attr) const {
  ArtifactKey key;
  key.domain = domain;
  key.attr = attr;
  key.num_entities = options_.num_entities;
  key.seed = options_.seed;
  key.scale = options_.scale;
  key.legacy_scan = options_.legacy_scan;
  return key;
}

StatusOr<Study::ScanHandle> Study::Scan(Domain domain, Attribute attr) {
  // Before the store: an artifact stored under an inapplicable key (by an
  // older build, or installed by `wsdctl merge`) must not answer.
  WSD_RETURN_IF_ERROR(CheckAttributeApplies(attr, domain));
  const auto memo_key =
      std::make_pair(static_cast<int>(domain), static_cast<int>(attr));
  if (auto it = scan_memo_.find(memo_key); it != scan_memo_.end()) {
    return ScanHandle(domain, attr, it->second);
  }

  if (store_.has_value()) {
    auto loaded = store_->Load(KeyFor(domain, attr));
    if (loaded.ok()) {
      auto shared =
          std::make_shared<const ScanResult>(std::move(loaded).value());
      scan_memo_[memo_key] = shared;
      return ScanHandle(domain, attr, std::move(shared));
    }
    // Miss or verify failure: the store has counted and logged it; answer
    // with a live scan.
  }

  auto scanned = RunScanUncached(domain, attr);
  if (!scanned.ok()) return scanned.status();
  auto shared =
      std::make_shared<const ScanResult>(std::move(scanned).value());
  if (store_.has_value()) {
    const Status stored = store_->Store(KeyFor(domain, attr), *shared);
    if (!stored.ok()) {
      WSD_LOG(kWarning) << "could not persist scan artifact: "
                        << stored.ToString();
    }
  }
  scan_memo_[memo_key] = shared;
  return ScanHandle(domain, attr, std::move(shared));
}

StatusOr<ScanResult> Study::RunShardScan(Domain domain, Attribute attr,
                                         const ShardSpec& shard) {
  if (options_.legacy_scan && !shard.whole()) {
    return Status::InvalidArgument(
        "sharded scans run the kernel path only; unset WSD_LEGACY_SCAN "
        "(the frozen legacy oracle has no shard support)");
  }
  auto web = BuildWeb(domain, attr);
  if (!web.ok()) return web.status();

  const ReviewDetector* detector = nullptr;
  if (GetAttributeSpec(attr).review_channel) {
    if (!detector_.has_value()) {
      auto built = ReviewDetector::CreateDefault(options_.seed ^ 0xdecafULL);
      if (!built.ok()) return built.status();
      detector_.emplace(std::move(built).value());
    }
    detector = &*detector_;
  }
  const ScanPipeline pipeline(*web, *pool_, detector);
  return pipeline.Run(shard);
}

StatusOr<ScanResult> Study::RunScan(Domain domain, Attribute attr) {
  auto scan = Scan(domain, attr);
  if (!scan.ok()) return scan.status();
  return ScanResult(scan->result());
}

StatusOr<Study::SpreadResult> Study::RunSpread(const ScanHandle& scan,
                                               uint32_t max_k) {
  auto curve = ComputeKCoverage(
      scan.table(), options_.ScaledEntities(), max_k,
      DefaultCoverageTValues(
          static_cast<uint32_t>(scan.table().num_hosts())));
  if (!curve.ok()) return curve.status();
  SpreadResult result;
  result.curve = std::move(curve).value();
  result.stats = scan.stats();
  return result;
}

StatusOr<Study::ReviewSpreadResult> Study::RunReviewSpread(
    const ScanHandle& scan, uint32_t max_k) {
  const auto t_values = DefaultCoverageTValues(
      static_cast<uint32_t>(scan.table().num_hosts()));
  auto site_curve = ComputeKCoverage(scan.table(), options_.ScaledEntities(),
                                     max_k, t_values);
  if (!site_curve.ok()) return site_curve.status();
  auto page_curve = ComputePageCoverage(scan.table(), t_values);
  if (!page_curve.ok()) return page_curve.status();
  ReviewSpreadResult result;
  result.site_curve = std::move(site_curve).value();
  result.page_curve = std::move(page_curve).value();
  result.stats = scan.stats();
  return result;
}

StatusOr<SetCoverCurve> Study::RunSetCover(const ScanHandle& scan) {
  return GreedySetCover(
      scan.table(), options_.ScaledEntities(),
      DefaultCoverageTValues(
          static_cast<uint32_t>(scan.table().num_hosts())));
}

StatusOr<GraphMetricsRow> Study::RunGraphMetrics(const ScanHandle& scan) {
  return ComputeGraphMetrics(scan.domain(), scan.attr(), scan.table(),
                             options_.ScaledEntities(), pool_.get());
}

StatusOr<std::vector<RobustnessPoint>> Study::RunRobustness(
    const ScanHandle& scan, uint32_t max_removed) {
  return ComputeRobustness(scan.table(), options_.ScaledEntities(),
                           max_removed, pool_.get());
}

StatusOr<Study::ValueStudyResult> Study::RunValueStudy(TrafficSite site) {
  TrafficSiteParams params = DefaultTrafficParams(site);
  params.num_entities = std::max<uint32_t>(
      256, static_cast<uint32_t>(static_cast<double>(params.num_entities) *
                                 options_.scale));
  const SitePopulation population =
      BuildPopulation(params, options_.seed ^ 0x7eaf1cULL);

  const TrafficLogOptions log_options;
  const TrafficLogGenerator generator(population, log_options,
                                      options_.seed ^ 0x10656e1ULL);
  // One channel at a time: the search keys are counted and freed before
  // the browse log is generated, so only one channel's keys are held.
  auto estimate = [&](TrafficChannel channel) {
    DemandEstimator estimator(site, params.num_entities);
    generator.Generate(channel,
                       [&](const VisitEvent& e) { estimator.Consume(e); });
    return estimator.Finalize();
  };
  ValueStudyResult result;
  result.site = site;
  result.demand = estimate(TrafficChannel::kSearch);
  DemandTable browse = estimate(TrafficChannel::kBrowse);
  result.demand.browse_demand = std::move(browse.browse_demand);
  result.demand.events_consumed += browse.events_consumed;
  result.demand.events_skipped += browse.events_skipped;
  result.reviews = population.reviews;
  auto bins = AnalyzeValueAdd(result.demand, result.reviews);
  if (!bins.ok()) return bins.status();
  result.bins = std::move(bins).value();
  result.search_curve = CumulativeDemandCurve(result.demand.search_demand);
  result.browse_curve = CumulativeDemandCurve(result.demand.browse_demand);
  result.head20_search = HeadDemandShare(result.demand.search_demand, 0.2);
  result.head20_browse = HeadDemandShare(result.demand.browse_demand, 0.2);
  return result;
}

}  // namespace wsd
